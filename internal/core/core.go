// Package core implements the OpenMP programming model on top of the kmp
// fork-join runtime: parallel regions, worksharing loops with the full
// schedule clause (including the work-stealing nonmonotonic dynamic kind)
// and collapse(n) nest flattening (ForNest), single/master/sections,
// critical, ordered, reductions and explicit tasks. It is the Go rendering
// of the directives the paper's preprocessor generates calls for; package
// gomp at the module root is the thin public facade over it.
//
// The central type is Thread: OpenMP code has ambient thread identity
// (omp_get_thread_num reads thread-local state), Go does not, so every
// region body receives its *Thread — the same information libomp passes to
// outlined functions as the gtid argument.
package core

import (
	"sync"
	"time"

	"repro/internal/icv"
	"repro/internal/kmp"
	"repro/internal/lock"
)

// Runtime is one OpenMP "device": a worker pool, its ICVs, and the named
// critical-section locks. Most programs use the package-level Default
// runtime; tests construct isolated runtimes freely.
type Runtime struct {
	pool *kmp.Pool

	critMu   sync.Mutex
	critical map[string]lock.Lock

	startTime time.Time
}

// NewRuntime creates a runtime with the given ICVs (nil = spec defaults).
func NewRuntime(icvs *icv.Set) *Runtime {
	r := &Runtime{
		pool:      kmp.NewPool(icvs),
		critical:  make(map[string]lock.Lock),
		startTime: time.Now(),
	}
	// Install the closure-free task executor before any team exists; every
	// team's task pool inherits it (see taskExec in taskapi.go).
	r.pool.SetTaskExec(r.taskExec)
	return r
}

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
	// DefaultLookup is the environment source for the Default runtime;
	// overridable before first use, for tests.
	DefaultLookup icv.LookupFunc
)

// Default returns the process-wide runtime, initialised from OMP_*
// environment variables on first use (like libomp's lazy initialisation).
func Default() *Runtime {
	defaultOnce.Do(func() {
		lookup := DefaultLookup
		if lookup == nil {
			lookup = osLookup
		}
		icvs, _ := icv.FromEnv(lookup)
		defaultRT = NewRuntime(icvs)
	})
	return defaultRT
}

// ICVs exposes the runtime's internal control variables.
func (r *Runtime) ICVs() *icv.Set { return r.pool.ICVs() }

// Pool exposes the underlying fork-join pool (ablation hooks).
func (r *Runtime) Pool() *kmp.Pool { return r.pool }

// SetNumThreads sets the default team size (omp_set_num_threads). The write
// goes through the pool's atomic fork-ICV snapshot, so a setter racing
// concurrent forks can never tear a team size.
func (r *Runtime) SetNumThreads(n int) {
	if n < 1 {
		return // the spec leaves this undefined; we ignore it loudly enough
	}
	r.pool.SetNumThreadsVar([]int{n})
}

// MaxThreads returns the team size the next parallel region would get
// without a num_threads clause (omp_get_max_threads).
func (r *Runtime) MaxThreads() int { return r.pool.NumThreadsVarAt(0) }

// SetSchedule sets run-sched-var (omp_set_schedule). Like SetNumThreads it
// publishes through the pool's fork-ICV snapshot: regions forked afterwards
// resolve schedule(runtime) against the new value, while a running region
// keeps the value it was forked with, so its members cannot disagree.
func (r *Runtime) SetSchedule(s icv.Schedule) { r.pool.SetRunSchedVar(s) }

// Schedule returns run-sched-var (omp_get_schedule).
func (r *Runtime) Schedule() icv.Schedule { return r.pool.RunSchedVar() }

// SetDynamic sets dyn-var (omp_set_dynamic), which also selects the thread
// arbiter's immediate-shrink admission rung over bounded waiting.
func (r *Runtime) SetDynamic(on bool) { r.pool.SetDynVar(on) }

// Dynamic returns dyn-var (omp_get_dynamic).
func (r *Runtime) Dynamic() bool { return r.pool.DynVar() }

// SetThreadLimit sets thread-limit-var, the ceiling the thread-budget
// arbiter charges concurrent regions against (OMP_THREAD_LIMIT; the 5.1
// omp_set_teams_thread_limit analogue for the flat pool).
func (r *Runtime) SetThreadLimit(n int) {
	if n >= 1 {
		r.pool.SetThreadLimitVar(n)
	}
}

// ThreadLimit returns thread-limit-var (omp_get_thread_limit).
func (r *Runtime) ThreadLimit() int { return r.pool.ThreadLimitVar() }

// SetMaxActiveLevels sets max-active-levels-var (omp_set_max_active_levels).
func (r *Runtime) SetMaxActiveLevels(n int) {
	if n >= 1 {
		r.pool.SetMaxActiveLevelsVar(n)
	}
}

// MaxActiveLevels returns max-active-levels-var.
func (r *Runtime) MaxActiveLevels() int { return r.pool.MaxActiveLevelsVar() }

// Quiesce blocks until every pool worker has fully retired its last
// dispatch cycle. The join of a parallel region is its end barrier, so a
// region call can return while workers are still draining the barrier exit
// (and emitting its trace events); trace collectors and goroutine-counting
// tests call Quiesce before reading.
func (r *Runtime) Quiesce() { r.pool.WaitQuiescent() }

// Wtime returns elapsed wall-clock seconds since an arbitrary fixed point
// (omp_get_wtime).
func (r *Runtime) Wtime() float64 { return time.Since(r.startTime).Seconds() }

// Wtick returns the timer resolution in seconds (omp_get_wtick).
func (r *Runtime) Wtick() float64 { return 1e-9 }

// criticalLock returns the lock for a named critical construct, creating it
// on first use. The empty name is the unnamed critical section; all unnamed
// criticals share one lock, as the spec requires.
func (r *Runtime) criticalLock(name string) lock.Lock {
	r.critMu.Lock()
	defer r.critMu.Unlock()
	l, ok := r.critical[name]
	if !ok {
		l = lock.New()
		r.critical[name] = l
	}
	return l
}
