package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/directive"
	"repro/internal/modpipe"
	"repro/internal/modpipe/corpusgen"
	"repro/internal/sema"
	"repro/internal/transform"
)

// gompcc builds a seeded corpusgen module of 2000 files, covering all five
// file classes, with strict sema (the CLI default) and Workers = nproc.
// Each iteration does a cold build into empty cache and output
// directories, five rounds of appending a line to one seeded file of each
// class and rebuilding, a no-op rebuild, and then a cold build of the edited module
// with one worker: that build is the 1-thread time of speedup and the
// oracle the last rebuild must equal byte for byte.

const (
	gompccFiles = 2000
	gompccRound = 5 // edit-and-rebuild rounds per iteration
)

// setupSource is the one-file module whose strict build is the workload's
// set-up: it starts the default runtime and makes the type checker's
// importer load the standard library.
const setupSource = `package main

import "fmt"

func main() {
	sum := 0
	//omp parallel for reduction(+:sum)
	for i := 0; i < 100; i++ {
		sum += i
	}
	fmt.Println(sum)
}
`

type gompccState struct {
	r       *run
	n       int
	root    string // the corpus module
	scratch string
	kinds   map[string]corpusgen.Kind
	rels    []string
	byKind  [][]string // files of each class, classes in manifest order
	rng     *rand.Rand
	edits   int
	dirs    int

	coldN, cold1, rebuild, noop samples
	diagOnly, cacheOnly         samples // traced runs only
	// per rebuild: files transformed, units type-checked, cache hit share
	transformed, checked, hits []float64
}

func runGompcc(r *run) error {
	files := gompccFiles
	if r.cfg.tiny {
		files = 60
	}
	scratch, err := r.scratchDir()
	if err != nil {
		return err
	}

	setupRoot := filepath.Join(scratch, "setup")
	if err := writeModule(setupRoot, "main.go", setupSource); err != nil {
		return err
	}
	var setupRes *modpipe.Result
	d := timed(func() {
		setupRes, err = modpipe.Run(setupRoot, modpipe.Options{Workers: r.cfg.nproc, Sema: sema.Strict})
	})
	if err != nil {
		return fmt.Errorf("set-up build: %w", err)
	}
	if r.setupDone(d) {
		return nil
	}
	r.require(setupRes.ErrorCount() == 0 && setupRes.SemaChecked == 1,
		"set-up build: %d errors, %d units checked", setupRes.ErrorCount(), setupRes.SemaChecked)

	g := &gompccState{r: r, n: r.cfg.nproc, root: filepath.Join(scratch, "corpus"), scratch: scratch,
		kinds: map[string]corpusgen.Kind{}, rng: rand.New(rand.NewSource(r.cfg.seed))}
	m, err := corpusgen.Generate(g.root, corpusgen.Config{Files: files, Seed: r.cfg.seed})
	if err != nil {
		return err
	}
	class := map[corpusgen.Kind]int{}
	for _, f := range m.Files {
		g.kinds[f.Rel] = f.Kind
		g.rels = append(g.rels, f.Rel)
		i, ok := class[f.Kind]
		if !ok {
			i = len(g.byKind)
			class[f.Kind] = i
			g.byKind = append(g.byKind, nil)
		}
		g.byKind[i] = append(g.byKind[i], f.Rel)
	}

	r.startTimed()
	budget := r.budget()
	if r.cfg.trace {
		t := time.Now()
		if err := g.probes(); err != nil {
			return err
		}
		budget -= time.Since(t)
	}
	var iterErr error
	repeatFor(budget, func() {
		if iterErr == nil && r.cfg.trace {
			iterErr = g.stages()
		}
		if iterErr == nil {
			iterErr = g.iteration(nil)
		}
	})
	if iterErr != nil {
		return iterErr
	}
	coldN := g.coldN.median()
	r.m["solve_s"] = geomean([]float64{coldN, g.rebuild.median()})
	r.m["speedup"] = g.cold1.median() / coldN
	if !r.cfg.trace {
		r.endTimed()
		return nil
	}
	r.m["gompcc.cold_files_per_s"] = float64(files) / coldN
	r.m["gompcc.rebuild_s"] = g.rebuild.median()
	r.m["modpipe.rebuild.transformed"] = median(g.transformed)
	r.m["modpipe.rebuild.sema_checked"] = median(g.checked)
	r.m["modpipe.rebuild.hit_frac"] = median(g.hits)
	r.m["modpipe.diag_only_s"] = g.diagOnly.median()
	r.m["modpipe.cache_write_s"] = g.cacheOnly.median() - g.diagOnly.median()
	r.m["modpipe.mirror_s"] = coldN - g.cacheOnly.median()
	r.m["modpipe.noop_s"] = g.noop.median()

	// Traced window: whole iterations, the handler installed around the
	// nproc-worker cold build and the rebuild.
	g.coldN = nil
	w := newWindow(g.n, core.Default())
	w.run(r.budget(), func() int64 {
		if iterErr == nil {
			iterErr = g.iteration(w)
		}
		return 1
	})
	r.endTimed()
	if iterErr != nil {
		return iterErr
	}
	w.finish(r)
	r.m["trace.overhead_frac"] = g.coldN.median() / coldN
	return nil
}

// writeModule writes a go.mod and one file under root.
func writeModule(root, name, src string) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module setup\n\ngo 1.24\n"), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, name), []byte(src), 0o644)
}

// build runs one strict module build and returns its result and time; an
// empty cache or out directory leaves that stage out.
func (g *gompccState) build(workers int, cache, out string) (*modpipe.Result, time.Duration, error) {
	var res *modpipe.Result
	var err error
	d := measure(func() {
		res, err = modpipe.Run(g.root, modpipe.Options{Workers: workers, CacheDir: cache, OutDir: out, Sema: sema.Strict})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("module build: %w", err)
	}
	return res, d, nil
}

// fresh returns cache and output directory names no build has used. No
// directory is deleted during the run (see scratchDir), so no deletion's
// file-system work lands inside a timed build.
func (g *gompccState) fresh(tag string) (cache, out string) {
	g.dirs++
	suffix := fmt.Sprintf("%s-%d", tag, g.dirs)
	return filepath.Join(g.scratch, "cache-"+suffix), filepath.Join(g.scratch, "out-"+suffix)
}

// iteration is a cold build, gompccRound rounds of edits and rebuild, a
// no-op rebuild, and a 1-worker cold build compared with the last rebuild.
// With a window, the cold build and the rebuilds are traced.
func (g *gompccState) iteration(w *window) error {
	traced := func(f func() error) error {
		if w == nil {
			return f()
		}
		w.c.start()
		defer w.c.stop(core.Default().Quiesce)
		return f()
	}
	cache, out := g.fresh("n")
	var cold, rb *modpipe.Result
	var d time.Duration
	if err := traced(func() (err error) { cold, d, err = g.build(g.n, cache, out); return }); err != nil {
		return err
	}
	g.coldN.add(d)
	g.checkDiags(cold, "cold build")

	for round := 0; round < gompccRound; round++ {
		rels, units, err := g.edit()
		if err != nil {
			return err
		}
		if err := traced(func() (err error) { rb, d, err = g.build(g.n, cache, out); return }); err != nil {
			return err
		}
		g.rebuild.add(d)
		g.checkDiags(rb, "rebuild")
		g.r.check(rb.Transformed == rels && rb.SemaChecked == units && rb.Panics == 0,
			"rebuild after editing %d files in %d units re-transformed %d and re-checked %d", rels, units, rb.Transformed, rb.SemaChecked)
		g.transformed = append(g.transformed, float64(rb.Transformed))
		g.checked = append(g.checked, float64(rb.SemaChecked))
		g.hits = append(g.hits, float64(rb.CacheHits)/float64(len(rb.Files)))
	}

	noop, d, err := g.build(g.n, cache, out)
	if err != nil {
		return err
	}
	g.noop.add(d)
	g.r.check(noop.CacheHits == len(noop.Files) && noop.SemaChecked == 0,
		"no-op rebuild transformed %d files and re-checked %d units", noop.Transformed, noop.SemaChecked)

	cache1, out1 := g.fresh("1")
	one, d, err := g.build(1, cache1, out1)
	if err != nil {
		return err
	}
	g.cold1.add(d)
	g.checkDiags(one, "1-worker cold build")
	g.checkSame(rb, one)
	return nil
}

// edit appends a comment line to one seeded file of each class, which
// keeps each file's class, and returns how many files and package units
// changed. corpusgen gives every package directory a single class, and
// the cost of re-checking a unit depends on its class, so a fixed class
// mix makes every rebuild the same amount of work whatever the seed.
func (g *gompccState) edit() (files, units int, err error) {
	g.edits++
	dirs := map[string]bool{}
	for _, rels := range g.byKind {
		rel := rels[g.rng.Intn(len(rels))]
		dirs[path.Dir(rel)] = true
		p := filepath.Join(g.root, filepath.FromSlash(rel))
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return 0, 0, err
		}
		_, werr := fmt.Fprintf(f, "\n// edit %d\n", g.edits)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return 0, 0, werr
		}
	}
	return len(g.byKind), len(dirs), nil
}

// checkDiags is the per-file class oracle: a clean file gets no
// diagnostic, a malformed or ill-typed file at least one error, any other
// file no error; no file may come from a recovered panic.
func (g *gompccState) checkDiags(res *modpipe.Result, what string) {
	g.r.require(len(res.Files) == len(g.rels), "%s saw %d files, the corpus has %d", what, len(res.Files), len(g.rels))
	all, errs := map[string]int{}, map[string]int{}
	for _, d := range res.Diags {
		all[d.File]++
		if d.Severity == directive.SevError {
			errs[d.File]++
		}
	}
	for _, f := range res.Files {
		kind := g.kinds[f.Rel]
		wantErr := kind == corpusgen.Malformed || kind == corpusgen.IllTyped
		if g.r.cfg.faultOracle {
			wantErr = !wantErr
		}
		ok := (errs[f.Rel] > 0) == wantErr && !f.Panicked
		if kind == corpusgen.Clean {
			ok = ok && all[f.Rel] == 0
		}
		g.r.check(ok, "%s: %s file %s has %d diagnostics, %d errors", what, kind, f.Rel, all[f.Rel], errs[f.Rel])
	}
}

// checkSame holds the rebuild to the cold build of the same content: equal
// output bytes per file and an equal diagnostic list.
func (g *gompccState) checkSame(rb, cold *modpipe.Result) {
	render := func(res *modpipe.Result) string {
		var b strings.Builder
		for _, d := range res.Diags {
			fmt.Fprintf(&b, "%s %d %s\n", d.Position(), d.Severity, d.Msg)
		}
		return b.String()
	}
	fault := g.r.cfg.faultOracle
	g.r.check((render(rb) == render(cold)) != fault, "rebuild diagnostics differ from a cold build's")
	for i, f := range rb.Files {
		c := cold.Files[i]
		g.r.check((f.Rel == c.Rel && bytes.Equal(f.Output, c.Output)) != fault,
			"rebuild output of %s differs from a cold build's", f.Rel)
	}
}

// stages times the pipeline without cache and output, and with the cache
// only, into fresh directories; the iteration's cold build adds the output
// mirror on top of the second.
func (g *gompccState) stages() error {
	diag, d, err := g.build(g.n, "", "")
	if err != nil {
		return err
	}
	g.diagOnly.add(d)
	g.checkDiags(diag, "diagnose-only build")
	cache, _ := g.fresh("cache-only")
	cached, d, err := g.build(g.n, cache, "")
	if err != nil {
		return err
	}
	g.cacheOnly.add(d)
	g.checkDiags(cached, "cache-only build")
	return nil
}

// probes times discovery and single-threaded passes of the directive
// parser, the package type-checker and the file transformer over the
// corpus, each layer called on its own.
func (g *gompccState) probes() error {
	r := g.r
	var err error
	r.m["modpipe.discover_ms"] = timed(func() { _, err = modpipe.DiscoverFiles(g.root) }).Seconds() * 1e3
	if err != nil {
		return err
	}
	srcs := map[string][]byte{}
	units := map[string]map[string][]byte{}
	var bodies []string
	for _, rel := range g.rels {
		src, err := os.ReadFile(filepath.Join(g.root, filepath.FromSlash(rel)))
		if err != nil {
			return err
		}
		srcs[rel] = src
		dir := path.Dir(rel)
		if units[dir] == nil {
			units[dir] = map[string][]byte{}
		}
		units[dir][rel] = src
		for _, line := range strings.Split(string(src), "\n") {
			if c, ok := strings.CutPrefix(strings.TrimSpace(line), "//"); ok {
				if body, _, ok := directive.DirectiveBody(c); ok {
					bodies = append(bodies, body)
				}
			}
		}
	}
	if len(bodies) > 0 {
		parsed := 0
		d := timed(func() {
			for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
				for _, b := range bodies {
					directive.ParseAt(b, directive.Pos{})
				}
				parsed += len(bodies)
			}
		})
		r.m["directive.parse_us"] = d.Seconds() * 1e6 / float64(parsed)
	}
	d := timed(func() {
		for _, u := range units {
			sema.Check(u)
		}
	})
	r.m["sema.check_ms"] = d.Seconds() * 1e3 / float64(len(units))
	r.m["sema.units"] = float64(len(units))
	opts := transform.DefaultOptions()
	d = timed(func() {
		for rel, src := range srcs {
			transform.FileChecked(rel, src, opts)
		}
	})
	r.m["transform.busy_s"] = d.Seconds()
	r.m["transform.file_us"] = d.Seconds() * 1e6 / float64(len(srcs))
	return nil
}
