package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/icv"
	"repro/internal/reduction"
)

// Multi-tenant conformance storm.
//
// The serving path (hot-team cache + thread-budget arbiter) is
// exercised the way the north star uses it: many concurrent goroutines each
// firing short parallel/for/reduction/task regions. Every region's result is
// checked against a sequential oracle, and every region shape is
// size-independent — the arbiter is free to shrink or serialise any team,
// and correctness must not notice. The sweep varies tenant count, thread
// budget and dyn-var; CI additionally runs the whole file
// under -race.

// stormSeed keeps the storm reproducible: a failure report names the config
// and the per-tenant seed derived from it.
const stormSeed = 0x5eed

// stormTenant runs iters random regions on rt, one tenant goroutine's
// worth of traffic, failing the test on any oracle mismatch.
func stormTenant(t *testing.T, rt *Runtime, seed int64, iters int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < iters; i++ {
		m := 16 + rng.Intn(49) // trip count 16..64
		base := int64(rng.Intn(1000))
		var oracle int64
		for j := 0; j < m; j++ {
			oracle += base + int64(j)
		}
		switch rng.Intn(4) {
		case 0: // parallel for over shared accumulator
			var sum atomic.Int64
			rt.ParallelFor(m, func(j int, th *Thread) {
				sum.Add(base + int64(j))
			})
			if sum.Load() != oracle {
				t.Errorf("seed %d iter %d parallel-for: sum %d, want %d", seed, i, sum.Load(), oracle)
			}
		case 1: // worksharing reduction
			var got atomic.Int64
			rt.Parallel(func(th *Thread) {
				s := ReduceFor(th, m, reduction.Sum, func(j int, acc int64) int64 {
					return acc + base + int64(j)
				})
				if th.Num() == 0 {
					got.Store(s)
				}
			})
			if got.Load() != oracle {
				t.Errorf("seed %d iter %d reduction: sum %d, want %d", seed, i, got.Load(), oracle)
			}
		case 2: // explicit tasks + taskwait
			var sum atomic.Int64
			rt.Parallel(func(th *Thread) {
				if th.Num() == 0 {
					for j := 0; j < m; j++ {
						j := j
						th.Task(func(tt *Thread) {
							sum.Add(base + int64(j))
						})
					}
					th.Taskwait()
					if sum.Load() != oracle {
						t.Errorf("seed %d iter %d tasks: sum %d, want %d", seed, i, sum.Load(), oracle)
					}
				}
				th.Barrier()
			})
		default: // bare parallel: every member runs exactly once
			var members atomic.Int64
			var size atomic.Int64
			rt.Parallel(func(th *Thread) {
				members.Add(1)
				size.Store(int64(th.NumThreads()))
			})
			if members.Load() != size.Load() {
				t.Errorf("seed %d iter %d parallel: %d members ran in a team of %d",
					seed, i, members.Load(), size.Load())
			}
		}
	}
}

// runStorm drives tenants concurrent goroutines of stormTenant traffic
// against one runtime and then checks the pool for thread-budget leaks.
func runStorm(t *testing.T, rt *Runtime, tenants, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			stormTenant(t, rt, seed, iters)
		}(stormSeed + int64(g))
	}
	wg.Wait()
	rt.Quiesce()
	if used := rt.Pool().ThreadBudgetUsed(); used != 0 {
		t.Errorf("thread budget after storm = %d, want exactly 0", used)
	}
}

// TestMultiTenantStorm sweeps the storm over tenant counts, thread budgets
// and dyn-var settings.
func TestMultiTenantStorm(t *testing.T) {
	cases := []struct {
		tenants, iters, teamSize, threadLimit int
		dynamic                               bool
	}{
		{tenants: 100, iters: 6, teamSize: 4, threadLimit: 1 << 20, dynamic: false},
		{tenants: 100, iters: 6, teamSize: 4, threadLimit: 8, dynamic: true},
		{tenants: 200, iters: 4, teamSize: 3, threadLimit: 4, dynamic: true},
		{tenants: 200, iters: 4, teamSize: 2, threadLimit: 2, dynamic: false},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("tenants=%d/limit=%d/dyn=%v",
			tc.tenants, tc.threadLimit, tc.dynamic)
		t.Run(name, func(t *testing.T) {
			s := icv.Default()
			s.NumThreads = []int{tc.teamSize}
			s.ThreadLimit = tc.threadLimit
			s.Dynamic = tc.dynamic
			rt := NewRuntime(s)
			defer rt.Pool().Shutdown()
			runStorm(t, rt, tc.tenants, tc.iters)
		})
	}
}

// TestMultiTenantStorm1000 is the acceptance-criteria headline: 1000
// concurrent tenants, a finite thread budget, exact budget restoration.
func TestMultiTenantStorm1000(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{4}
	s.ThreadLimit = 16
	s.Dynamic = true
	rt := NewRuntime(s)
	defer rt.Pool().Shutdown()
	iters := 4
	if testing.Short() {
		iters = 2
	}
	runStorm(t, rt, 1000, iters)
}

// TestSetNumThreadsDuringStorm pins the satellite fix: omp_set_num_threads
// racing a storm of forks must never tear a team size — every region sees
// one of the values some setter actually published, and the teardown
// leaves the budget at zero.
func TestSetNumThreadsDuringStorm(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := NewRuntime(s)
	defer rt.Pool().Shutdown()

	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				rt.SetNumThreads(1 + i%4)
				if mt := rt.MaxThreads(); mt < 1 || mt > 4 {
					t.Errorf("MaxThreads mid-storm = %d, want 1..4", mt)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var members atomic.Int64
				var size atomic.Int64
				rt.Parallel(func(th *Thread) {
					members.Add(1)
					size.Store(int64(th.NumThreads()))
				})
				n := size.Load()
				if n < 1 || n > 4 {
					t.Errorf("torn team size %d, want 1..4", n)
				}
				if members.Load() != n {
					t.Errorf("%d members ran in a team of %d", members.Load(), n)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mut.Wait()
	rt.Quiesce()
	if used := rt.Pool().ThreadBudgetUsed(); used != 0 {
		t.Errorf("thread budget after setter storm = %d, want 0", used)
	}
}
