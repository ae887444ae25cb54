// Command perfbench is the GoMP benchmark. One invocation runs one
// workload for a fixed time, checks every output against an oracle, and
// prints as its last line a JSON object with the fields correct,
// attempted, failed and metrics:
//
//	perfbench --workload table1 --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	table1   the paper's kernels (NPB CG, EP, IS, Mandelbrot, Wavefront)
//	tasks    BOTS-shaped task trees (fib, nqueens, unbalanced tree)
//	serving  nproc tenants firing contended parallel-for-reduction regions
//	gompcc   cold builds and edit rebuilds of a generated 2000-file module
//
// --trace 0 prints the end-to-end metrics; --trace 1 spends half the time
// untraced and half with a runtime trace handler installed, and prints the
// per-layer split (metrics.go lists both sets). The line before the result
// stamps the run's environment: nproc, GOMAXPROCS, team size, Go version,
// commit, seed and the host evidence.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Set-up is timed in fresh processes: at least setupProcs of them, more
// while they have taken less than setupProbeTime, up to maxSetupProcs.
const (
	setupProbeTime = 1500 * time.Millisecond
	maxSetupProcs  = 21
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	nproc    int
	// setupOnly makes the process run the workload's set-up, print its
	// duration and exit; the parent times set-up in fresh processes.
	setupOnly bool
	// setupProcs is the least number of fresh processes that time the
	// set-up; the median of their times and the measuring process's own
	// is setup_s.
	setupProcs int
	// tiny shrinks every input for the self-tests.
	tiny bool
	// faultOracle perturbs every oracle's expected value (self-tests).
	faultOracle bool
	// warmup is how long the host warm-up spins before timing.
	warmup time.Duration
}

var workloads = map[string]func(*run) error{
	"table1":  runTable1,
	"tasks":   runTasks,
	"serving": runServing,
	"gompcc":  runGompcc,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload execution.
type run struct {
	cfg               config
	attempted, failed atomic.Int64
	logged            atomic.Int64
	problems          []string // failed whole-run checks (leaks, trace gaps)
	setup             time.Duration
	m                 map[string]float64 // metric values by name
	host              map[string]float64
	cpu0              float64
	wall0             time.Time
	cgBytes           float64 // computed bytes of one CG solve (table1)
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, m: map[string]float64{}, host: map[string]float64{}}
}

// check counts one verified operation; a mismatch is a failed operation,
// logged (the first few) to standard error.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if ok {
		return
	}
	r.failed.Add(1)
	if r.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: oracle mismatch: %s\n", r.cfg.workload, fmt.Sprintf(format, args...))
	}
}

// checkBatch counts n verified operations of which failed mismatched.
func (r *run) checkBatch(n, failed int64, what string) {
	r.attempted.Add(n)
	r.failed.Add(failed)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d %s\n", r.cfg.workload, failed, n, what)
	}
}

// require records a whole-run invariant; a violation makes the run
// incorrect without being an operation.
func (r *run) require(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.cfg.workload, msg)
	}
}

// setupDone records the workload's set-up time and reports whether the
// process should stop there.
func (r *run) setupDone(d time.Duration) bool {
	r.setup = d
	return r.cfg.setupOnly
}

// startTimed warms the host, takes the speed probe and opens the CPU-time
// window; every workload calls it right before its first timed call.
func (r *run) startTimed() {
	warmHost(r.cfg.nproc, r.cfg.warmup)
	r.host["host.probe_speedup"] = probeSpeedup(r.cfg.nproc)
	r.cpu0, r.wall0 = cpuSeconds(), time.Now()
}

// endTimed closes the CPU-time window.
func (r *run) endTimed() {
	r.host["host.cpu_per_wall"] = (cpuSeconds() - r.cpu0) / time.Since(r.wall0).Seconds()
}

// budget is the time of one measured phase: the whole run untraced, half
// of it on each side of a traced run.
func (r *run) budget() time.Duration {
	d := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		d /= 2
	}
	return d
}

// repeatFor runs pass until the next pass would overrun the budget; it
// always runs at least one.
func repeatFor(budget time.Duration, pass func()) {
	start := time.Now()
	for {
		last := timed(pass)
		if time.Since(start)+last > budget {
			return
		}
	}
}

// scratchDir is a fresh per-process directory under the work directory.
// Scratch directories of earlier runs are removed first, and the removal
// is flushed to disk before anything is timed: on the file system this
// was written on, deleting tens of thousands of files slows file creation
// for the seconds after, and the flush keeps that cost out of the timed
// phase. The directory itself is left for the next run to remove.
func (r *run) scratchDir() (string, error) {
	if !r.cfg.setupOnly {
		old, err := filepath.Glob(filepath.Join(r.cfg.workdir, "run-*"))
		if err != nil {
			return "", err
		}
		for _, d := range old {
			if err := os.RemoveAll(d); err != nil {
				return "", err
			}
		}
		syscall.Sync()
	}
	dir := filepath.Join(r.cfg.workdir, fmt.Sprintf("run-%s-%d", r.cfg.workload, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	cfg := config{nproc: runtime.GOMAXPROCS(0), setupProcs: 3, warmup: time.Second}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "table1, tasks, serving or gompcc")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the traced per-layer split")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for scratch files")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "time the workload's set-up and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload table1|tasks|serving|gompcc, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	os.Exit(execute(cfg, os.Stdout))
}

// execute runs cfg and writes the stamp and result lines to out; it
// returns the process exit code.
func execute(cfg config, out io.Writer) int {
	r := newRun(cfg)
	if cfg.setupOnly {
		if err := workloads[cfg.workload](r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(out, r.setup.Seconds())
		return 0
	}
	var setups []float64
	if !cfg.trace && cfg.setupProcs > 0 {
		// Fresh processes until they have spent setupProbeTime, within
		// the configured bounds: cheap set-ups get more samples.
		start := time.Now()
		for len(setups) < cfg.setupProcs || (time.Since(start) < setupProbeTime && len(setups) < maxSetupProcs) {
			s, err := setupInFreshProcess(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
				return 1
			}
			setups = append(setups, s)
		}
	}
	if err := workloads[cfg.workload](r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := r.finish(append(setups, r.setup.Seconds()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stamp, _ := json.Marshal(r.stamp())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "env %s\n%s\n", stamp, line)
	return 0
}

// setupInFreshProcess runs this binary with --setup-only and returns the
// set-up time it reports, so set-up includes what a new process pays
// (worker start, the importer's standard-library load).
func setupInFreshProcess(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", "1", "--workdir", cfg.workdir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(stdout.String()), 64)
}

// finish assembles the result: the end-to-end set untraced, the per-layer
// set traced. Host evidence is taken in every run.
func (r *run) finish(setups []float64) (result, error) {
	rss := peakRSSMB() // before the triad arrays raise it
	r.host["host.triad_gbs"] = triadGBs(r.cfg.nproc)
	if r.cgBytes > 0 {
		r.m["npb.cg.bw_frac"] = r.cgBytes / r.m["npb.cg.omp_s"] / (r.host["host.triad_gbs"] * 1e9)
	}
	att, failed := r.attempted.Load(), r.failed.Load()
	res := result{
		Correct:   failed == 0 && len(r.problems) == 0 && att > 0,
		Attempted: max(att, 1),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
		for k, v := range r.host {
			r.m[k] = v
		}
		r.m["failed_frac"] = float64(failed) / float64(max(att, 1))
	} else {
		r.m["setup_s"] = median(setups)
		r.m["peak_rss_mb"] = rss
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for k := range r.m {
		if !known[k] {
			return res, fmt.Errorf("%s: measured metric %s is not in the contract", r.cfg.workload, k)
		}
	}
	for _, d := range defs {
		v, ok := r.m[d.name]
		if !ok {
			if !r.cfg.trace {
				return res, fmt.Errorf("%s: end-to-end metric %s was not measured", r.cfg.workload, d.name)
			}
			v = 0 // a layer this workload does not exercise
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", r.cfg.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// stamp is the run's environment record.
func (r *run) stamp() map[string]any {
	s := map[string]any{
		"workload":   r.cfg.workload,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.seconds,
		"trace":      r.cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"team_size":  r.cfg.nproc,
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
	for k, v := range r.host {
		s[k] = v
	}
	s["host.triad_array_mib"] = triadMiB
	return s
}

// commit is the VCS revision the binary was built from, or "unknown" when
// the checkout carries no version control metadata.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources and go.mod files under root, so a run
// from a checkout without version control still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
