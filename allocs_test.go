// Steady-state allocation regression guards for the fork/join hot path.
//
// The hot-team cache (internal/kmp) makes the fork→for→barrier→join cycle
// allocation-free once a team of the right shape exists: Fork revives the
// cached team with one atomic Swap, workers are released through per-worker
// epoch doors, static loops and reductions keep no per-construct state,
// the remaining worksharing state lives in a pre-allocated ring whose loop
// schedulers reset in place, and the join is the region-end barrier. These
// tests pin that property with testing.AllocsPerRun so a regression (a new
// per-fork closure, a map rebuild, a fresh scheduler) fails loudly.
//
// AllocsPerRun counts mallocs process-wide, so team members other than the
// measuring goroutine participate in lockstep: AllocsPerRun calls f once as
// a warm-up plus `runs` measured times, hence the runs+1 loops on the
// non-measuring members.
package gomp_test

import (
	"testing"
	"time"

	gomp "repro"
	"repro/internal/icv"
	"repro/internal/kmp"
)

const allocRuns = 200

// warmForkPath brings the pool to steady state: the hot team is built and
// each worker has slept at least once, so per-goroutine runtime timers are
// allocated outside the measurement window.
func warmForkPath(pool *kmp.Pool, micro func(*kmp.Team, int)) {
	for i := 0; i < 8; i++ {
		pool.Fork(kmp.ForkSpec{}, micro)
	}
	time.Sleep(3 * time.Millisecond)
	pool.Fork(kmp.ForkSpec{}, micro)
}

func TestSteadyStateForkAllocFree(t *testing.T) {
	for _, n := range []int{1, 4} {
		s := icv.Default()
		s.NumThreads = []int{n}
		pool := kmp.NewPool(s)
		micro := func(tm *kmp.Team, tid int) {}
		warmForkPath(pool, micro)
		avg := testing.AllocsPerRun(allocRuns, func() {
			pool.Fork(kmp.ForkSpec{}, micro)
		})
		if avg != 0 {
			t.Errorf("steady-state Fork (n=%d, same-size repeat): %v allocs/op, want 0", n, avg)
		}
		pool.Shutdown()
	}
}

func TestSteadyStateStaticForAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	body := func(lo, hi int) {}
	// Warm region: let workers allocate their sleep timers.
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.ForChunks(256, body)
		}
	})
	time.Sleep(3 * time.Millisecond)
	var avg float64
	rt.Parallel(func(th *gomp.Thread) {
		if th.Num() == 0 {
			avg = testing.AllocsPerRun(allocRuns, func() {
				th.ForChunks(256, body)
			})
		} else {
			for i := 0; i < allocRuns+1; i++ {
				th.ForChunks(256, body)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state static For: %v allocs/op, want 0", avg)
	}
}

func TestSteadyStateBarrierAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Barrier()
		}
	})
	time.Sleep(3 * time.Millisecond)
	var avg float64
	rt.Parallel(func(th *gomp.Thread) {
		if th.Num() == 0 {
			avg = testing.AllocsPerRun(allocRuns, func() {
				th.Barrier()
			})
		} else {
			for i := 0; i < allocRuns+1; i++ {
				th.Barrier()
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Barrier: %v allocs/op, want 0", avg)
	}
}

// TestSteadyStateReduceAllocFree pins the team-owned reduction slot banks:
// ReduceFor and Reduce write partials into pre-allocated per-member slots
// and fold them after the barrier, so a steady-state reduction allocates
// nothing (it used to build an accumulator per construct).
func TestSteadyStateReduceAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	body := func(i int, acc float64) float64 { return acc + float64(i) }
	for _, c := range []struct {
		name string
		op   func(th *gomp.Thread)
	}{
		{"ReduceFor", func(th *gomp.Thread) { gomp.ReduceFor(th, 256, gomp.OpSum, body) }},
		{"Reduce", func(th *gomp.Thread) { gomp.Reduce(th, gomp.OpSum, 1.0) }},
	} {
		rt.Parallel(func(th *gomp.Thread) {
			for i := 0; i < 16; i++ {
				c.op(th)
			}
		})
		time.Sleep(3 * time.Millisecond)
		var avg float64
		rt.Parallel(func(th *gomp.Thread) {
			if th.Num() == 0 {
				avg = testing.AllocsPerRun(allocRuns, func() { c.op(th) })
			} else {
				for i := 0; i < allocRuns+1; i++ {
					c.op(th)
				}
			}
		})
		if avg != 0 {
			t.Errorf("steady-state %s (team of 2): %v allocs/op, want 0", c.name, avg)
		}
	}
}

// TestSteadyStateOrderedAllocFree pins the recycled per-thread OrderedCtx:
// an ordered loop used to heap-allocate one ctx per iteration on both the
// parallel and sequential paths.
func TestSteadyStateOrderedAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	body := func(i int, ord *gomp.OrderedCtx) { ord.Do(func() {}) }
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.ForOrdered(64, body)
		}
	})
	time.Sleep(3 * time.Millisecond)
	var avg float64
	rt.Parallel(func(th *gomp.Thread) {
		if th.Num() == 0 {
			avg = testing.AllocsPerRun(allocRuns, func() {
				th.ForOrdered(64, body)
			})
		} else {
			for i := 0; i < allocRuns+1; i++ {
				th.ForOrdered(64, body)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state ForOrdered: %v allocs/op, want 0", avg)
	}
}

// TestSteadyStateDoacrossAllocFree pins the recycled doacross machinery:
// the flag vector, linearization tables and ctx live on the worksharing
// ring entry and the Thread, so a steady-state pipelined loop — including
// its variadic sink Waits — allocates nothing.
func TestSteadyStateDoacrossAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	loops := []gomp.Loop{{Begin: 0, End: 64, Step: 1}}
	body := func(ix []int64, d *gomp.DoacrossCtx) {
		d.Wait(ix[0] - 1)
		d.Post()
	}
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.ForDoacross(loops, body)
		}
	})
	time.Sleep(3 * time.Millisecond)
	var avg float64
	rt.Parallel(func(th *gomp.Thread) {
		if th.Num() == 0 {
			avg = testing.AllocsPerRun(allocRuns, func() {
				th.ForDoacross(loops, body)
			})
		} else {
			for i := 0; i < allocRuns+1; i++ {
				th.ForDoacross(loops, body)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state ForDoacross: %v allocs/op, want 0", avg)
	}
}

// Steady-state task spawn/complete allocation guards. The task fast path is
// allocation-free: Units and dephash states come from per-thread free lists
// (internal/task/recycle.go), the body func rides in the Unit's User field,
// depend lists are assembled in a per-Thread scratch buffer, and the
// per-execution Thread contexts are recycled on a per-member stack. These
// guards pin all of that at zero so any regression (a per-spawn closure, a
// re-boxed option, a dephash rebuilt per task) fails loudly. The serial
// team makes the drain deterministic: spawn publishes to the deque,
// taskwait executes.
func TestSteadyStateTaskAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{1}
	rt := gomp.NewRuntime(s)
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Task(func(*gomp.Thread) {})
		}
		th.Taskwait()
		avg := testing.AllocsPerRun(allocRuns, func() {
			th.Task(func(*gomp.Thread) {})
			th.Taskwait()
		})
		if avg != 0 {
			t.Errorf("steady-state task spawn+complete: %v allocs/op, want 0", avg)
		}
	})
}

func TestSteadyStateTaskDependAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{1}
	rt := gomp.NewRuntime(s)
	var x int
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Task(func(*gomp.Thread) {}, gomp.DependInOut(&x))
		}
		th.Taskwait()
		avg := testing.AllocsPerRun(allocRuns, func() {
			th.Task(func(*gomp.Thread) {}, gomp.DependInOut(&x))
			th.Taskwait()
		})
		if avg != 0 {
			t.Errorf("steady-state depend task spawn+complete: %v allocs/op, want 0", avg)
		}
	})
}

// TestSteadyStateTaskloopAllocFree pins the loop-form chunk path: bounds
// ride in the Unit, the body func is shared across chunks, and the implicit
// taskgroup descriptor is recycled per Thread.
func TestSteadyStateTaskloopAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{1}
	rt := gomp.NewRuntime(s)
	body := func(i int) {}
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Taskloop(64, 16, body)
		}
		avg := testing.AllocsPerRun(allocRuns, func() {
			th.Taskloop(64, 16, body)
		})
		if avg != 0 {
			t.Errorf("steady-state taskloop (64 iters, grainsize 16): %v allocs/op, want 0", avg)
		}
	})
}
