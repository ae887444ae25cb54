package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/icv"
	"repro/internal/reduction"
	"repro/internal/sched"
)

// Static-path conformance. Static loops compute their chunks locally and
// reductions fold team-owned slot banks, with no shared construct state;
// these tests hold that path to libomp's static formulas, to exact
// coverage, to bit-identical reductions and to cancellation, and check that
// it leaves the worksharing ring untouched. Run them under -race.

// libompOwner is the thread libomp's __kmpc_for_static_init assigns logical
// iteration k of a trip-iteration loop on a team of n, written out
// independently of sched.StaticChunk: without a chunk size, the balanced
// block split (the first trip mod n threads take one extra iteration); with
// chunk size k, chunk-sized pieces dealt round-robin.
func libompOwner(chunk int, trip int64, n int, k int64) int {
	if chunk > 0 {
		return int((k / int64(chunk)) % int64(n))
	}
	small, extra := trip/int64(n), trip%int64(n)
	if k < extra*(small+1) {
		return int(k / (small + 1))
	}
	return int(extra + (k-extra*(small+1))/small)
}

// staticCase is one schedule that resolves to static.
type staticCase struct {
	name  string
	opt   ForOption
	run   icv.Schedule // run-sched-var, for schedule(runtime)
	chunk int          // the chunk size the schedule resolves to
}

func staticConformanceCases() []staticCase {
	return []staticCase{
		{name: "static", opt: Schedule(icv.StaticSched, 0)},
		{name: "static,1", opt: Schedule(icv.StaticSched, 1), chunk: 1},
		{name: "static,3", opt: Schedule(icv.StaticSched, 3), chunk: 3},
		{name: "static,7", opt: Schedule(icv.StaticSched, 7), chunk: 7},
		{name: "auto", opt: Schedule(icv.AutoSched, 0)},
		{name: "runtime=static", opt: Schedule(icv.RuntimeSched, 0), run: icv.Schedule{Kind: icv.StaticSched}},
		{name: "runtime=static,3", opt: Schedule(icv.RuntimeSched, 0), run: icv.Schedule{Kind: icv.StaticSched, Chunk: 3}, chunk: 3},
	}
}

// ownerLog records which thread ran each logical iteration and how often.
type ownerLog struct {
	owner []atomic.Int32
	count []atomic.Int32
}

func newOwnerLog(trip int64) *ownerLog {
	return &ownerLog{owner: make([]atomic.Int32, trip), count: make([]atomic.Int32, trip)}
}

func (l *ownerLog) hit(k int64, tid int) {
	l.owner[k].Store(int32(tid))
	l.count[k].Add(1)
}

// check asserts every iteration ran exactly once, on libomp's thread.
func (l *ownerLog) check(t *testing.T, what string, chunk int, n int) {
	t.Helper()
	trip := int64(len(l.count))
	for k := int64(0); k < trip; k++ {
		if c := l.count[k].Load(); c != 1 {
			t.Fatalf("%s: iteration %d ran %d times", what, k, c)
		}
		if got, want := int(l.owner[k].Load()), libompOwner(chunk, trip, n, k); got != want {
			t.Fatalf("%s: iteration %d ran on thread %d, libomp assigns %d", what, k, got, want)
		}
	}
}

// TestStaticPathConformance runs every static construct under every
// static-resolving schedule over team sizes 1-5 and trip counts 0, 1, n-1,
// n and 1001, checking exact coverage and libomp's thread assignment.
func TestStaticPathConformance(t *testing.T) {
	const inner = 3 // ForNest inner trip count
	for n := 1; n <= 5; n++ {
		for _, sc := range staticConformanceCases() {
			rt := testRuntime(n)
			rt.SetSchedule(sc.run) // consulted by the runtime cases only
			for _, trip := range []int64{0, 1, int64(n - 1), int64(n), 1001} {
				what := func(c string) string {
					return fmt.Sprintf("%s %s n=%d trip=%d", c, sc.name, n, trip)
				}
				forLog, loopLog, chunksLog := newOwnerLog(trip), newOwnerLog(trip), newOwnerLog(trip)
				nestLog, ordLog, doaLog := newOwnerLog(inner*trip), newOwnerLog(trip), newOwnerLog(trip)
				var ordNext atomic.Int64
				var ordBad atomic.Int32
				doaDone := make([]atomic.Bool, trip)
				var doaBad atomic.Int32
				rt.Parallel(func(th *Thread) {
					tid := th.Num()
					th.For(int(trip), func(i int) { forLog.hit(int64(i), tid) }, sc.opt)
					// Negative step: values 3*trip, 3*trip-3, ..., 3.
					th.ForLoop(sched.Loop{Begin: 3 * trip, End: 0, Step: -3}, func(v int64) {
						loopLog.hit((3*trip-v)/3, tid)
					}, sc.opt, NoWait())
					th.ForChunks(int(trip), func(lo, hi int) {
						for i := lo; i < hi; i++ {
							chunksLog.hit(int64(i), tid)
						}
					}, sc.opt)
					th.ForNest([]sched.Loop{{Begin: 0, End: trip, Step: 1}, {Begin: 5, End: -1, Step: -2}}, func(ix []int64) {
						nestLog.hit(ix[0]*inner+(5-ix[1])/2, tid)
					}, sc.opt, NoWait())
					th.ForOrdered(int(trip), func(i int, ord *OrderedCtx) {
						ordLog.hit(int64(i), tid)
						ord.Do(func() {
							if ordNext.Load() != int64(i) {
								ordBad.Add(1)
							}
							ordNext.Store(int64(i) + 1)
						})
					}, sc.opt)
					th.ForDoacross([]sched.Loop{{Begin: 0, End: trip, Step: 1}}, func(ix []int64, d *DoacrossCtx) {
						i := ix[0]
						d.Wait(i - 1)
						if i > 0 && !doaDone[i-1].Load() {
							doaBad.Add(1)
						}
						doaLog.hit(i, tid)
						doaDone[i].Store(true)
						d.Post()
					}, sc.opt)
				})
				forLog.check(t, what("For"), sc.chunk, n)
				loopLog.check(t, what("ForLoop step -3"), sc.chunk, n)
				chunksLog.check(t, what("ForChunks"), sc.chunk, n)
				nestLog.check(t, what("ForNest collapse(2)"), sc.chunk, n)
				ordLog.check(t, what("ForOrdered"), sc.chunk, n)
				doaLog.check(t, what("ForDoacross"), sc.chunk, n)
				if ordBad.Load() != 0 || ordNext.Load() != trip {
					t.Fatalf("%s: %d ordered regions out of order, %d of %d ran", what("ForOrdered"), ordBad.Load(), ordNext.Load(), trip)
				}
				if doaBad.Load() != 0 {
					t.Fatalf("%s: %d iterations ran before their sink", what("ForDoacross"), doaBad.Load())
				}
			}
			rt.Pool().Shutdown()
		}
	}
}

// TestStaticNowaitChainKeepsRingNumbering chains more nowait static loops
// than the ring has slots between dynamic loops and single constructs. The
// static loops claim no ring slot, so the ring-based constructs on either
// side must still find each other's entries, and the ring must drain.
func TestStaticNowaitChainKeepsRingNumbering(t *testing.T) {
	const n, trip, rounds, chain = 4, 40, 6, 12
	rt := testRuntime(n)
	defer rt.Pool().Shutdown()
	hits := make([]atomic.Int32, rounds*(chain+1)*trip)
	var singles atomic.Int32
	rt.Parallel(func(th *Thread) {
		for r := 0; r < rounds; r++ {
			base := r * (chain + 1) * trip
			th.For(trip, func(i int) { hits[base+i].Add(1) }, Schedule(icv.DynamicSched, 1), NoWait())
			for c := 1; c <= chain; c++ {
				off := base + c*trip
				th.For(trip, func(i int) { hits[off+i].Add(1) }, Schedule(icv.StaticSched, c%4), NoWait())
			}
			th.Single(func() { singles.Add(1) }, NoWait())
		}
		th.Barrier()
		if th.team.LiveConstructs() != 0 {
			t.Errorf("thread %d: %d ring entries still live", th.Num(), th.team.LiveConstructs())
		}
		if th.wsSeq != 2*rounds {
			t.Errorf("thread %d claimed %d ring slots, want %d (dynamic loops and singles only)", th.Num(), th.wsSeq, 2*rounds)
		}
	})
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Fatalf("iteration slot %d ran %d times", i, c)
		}
	}
	if singles.Load() != rounds {
		t.Errorf("%d single bodies ran, want %d", singles.Load(), rounds)
	}
}

// reduceTerm is the value folded in reduction r at index i. Magnitudes
// spread over sixteen decades, so any change in summation order shows up
// in the low bits.
func reduceTerm(r, i int) float64 {
	return math.Pow(10, float64((r+3*i)%17-8)) * (1 + 1/float64(r+i+1))
}

// TestStaticReductionsBitIdentical runs 1000 back-to-back float64 Reduce
// and ReduceFor calls with nowait loops between them — so fast members run
// into the next reduction while slow ones still fold the last, alternating
// the two slot banks — and compares every member's result bit for bit with
// a serial left-to-right fold of the members' partials.
func TestStaticReductionsBitIdentical(t *testing.T) {
	const reps, trip = 1000, 37
	for _, n := range []int{2, 3, 5} {
		rt := testRuntime(n)
		bare := make([][]float64, n)
		loop := make([][]float64, n)
		rt.Parallel(func(th *Thread) {
			tid := th.Num()
			bare[tid] = make([]float64, reps)
			loop[tid] = make([]float64, reps)
			for r := 0; r < reps; r++ {
				bare[tid][r] = Reduce(th, reduction.Sum, reduceTerm(r, tid))
				th.For(2*n+1, func(int) {}, NoWait())
				loop[tid][r] = ReduceFor(th, trip, reduction.Sum, func(i int, acc float64) float64 {
					return acc + reduceTerm(r, i)
				})
				th.ForChunks(n+2, func(lo, hi int) {}, Schedule(icv.StaticSched, 1), NoWait())
			}
		})
		rt.Pool().Shutdown()
		for r := 0; r < reps; r++ {
			wantBare := reduceTerm(r, 0)
			for i := 1; i < n; i++ {
				wantBare += reduceTerm(r, i)
			}
			var wantLoop float64
			for tid := 0; tid < n; tid++ {
				partial := 0.0 // the Sum identity
				for k := int64(0); k < trip; k++ {
					if libompOwner(0, trip, n, k) == tid {
						partial += reduceTerm(r, int(k))
					}
				}
				if tid == 0 {
					wantLoop = partial
				} else {
					wantLoop += partial
				}
			}
			for tid := 0; tid < n; tid++ {
				if math.Float64bits(bare[tid][r]) != math.Float64bits(wantBare) {
					t.Fatalf("n=%d rep %d thread %d: Reduce = %v, serial fold %v", n, r, tid, bare[tid][r], wantBare)
				}
				if math.Float64bits(loop[tid][r]) != math.Float64bits(wantLoop) {
					t.Fatalf("n=%d rep %d thread %d: ReduceFor = %v, serial fold %v", n, r, tid, loop[tid][r], wantLoop)
				}
			}
		}
	}
}

// TestStaticLoopCancelStopsChunks cancels a region from inside a static
// loop: no thread may start a chunk after it has seen the cancel, and the
// loop must stop short of its trip count.
func TestStaticLoopCancelStopsChunks(t *testing.T) {
	const n, trip = 4, 4000
	for _, opt := range []ForOption{Schedule(icv.StaticSched, 1), Schedule(icv.StaticSched, 3), Schedule(icv.RuntimeSched, 0)} {
		rt := testRuntime(n)
		rt.SetSchedule(icv.Schedule{Kind: icv.StaticSched, Chunk: 2})
		var late, ran atomic.Int64
		rt.Parallel(func(th *Thread) {
			seen := false
			th.ForChunks(trip, func(lo, hi int) {
				if seen {
					late.Add(1)
				}
				ran.Add(int64(hi - lo))
				if th.Num() == 0 && lo >= 100 {
					th.Cancel()
				}
				if th.CancellationPoint() {
					seen = true
				}
			}, opt)
			seen = false
			th.For(trip, func(i int) {
				if seen {
					late.Add(1)
				}
				if th.CancellationPoint() {
					seen = true
				}
			}, opt)
		})
		rt.Pool().Shutdown()
		if late.Load() != 0 {
			t.Errorf("%d chunks started after their thread saw the cancel", late.Load())
		}
		if ran.Load() >= trip {
			t.Errorf("cancelled loop ran all %d iterations", trip)
		}
	}
}

// TestStaticRegionLeavesRingClean: a region that runs only static loops and
// reductions claims no ring slot, so the ring is neither live nor dirty and
// the next fork of the team skips restoring it. A dynamic loop, for
// contrast, does use the ring.
func TestStaticRegionLeavesRingClean(t *testing.T) {
	rt := testRuntime(3)
	defer rt.Pool().Shutdown()
	check := func(th *Thread, wantDirty bool) {
		th.Barrier() // every member has retired whatever it claimed
		if th.Num() != 0 {
			return
		}
		if live := th.team.LiveConstructs(); live != 0 {
			t.Errorf("%d ring entries live", live)
		}
		if got := th.team.RingDirty(); got != wantDirty {
			t.Errorf("ring dirty = %v, want %v", got, wantDirty)
		}
	}
	body := func(th *Thread) {
		th.For(10, func(int) {})
		th.For(10, func(int) {}, Schedule(icv.StaticSched, 2), NoWait())
		th.ForLoop(sched.Loop{Begin: 10, End: 0, Step: -1}, func(int64) {}, Schedule(icv.AutoSched, 0))
		th.ForChunks(10, func(lo, hi int) {}, NoWait())
		th.ForNest([]sched.Loop{{Begin: 0, End: 3, Step: 1}, {Begin: 0, End: 4, Step: 1}}, func([]int64) {})
		Reduce(th, reduction.Sum, 1)
		ReduceFor(th, 10, reduction.Max, func(i, acc int) int { return max(i, acc) })
		ReduceForLoop(th, sched.Loop{Begin: 0, End: 9, Step: 3}, reduction.Prod, func(i int64, acc float64) float64 {
			return acc * float64(i+1)
		}, Schedule(icv.StaticSched, 1))
		if th.wsSeq != 0 {
			t.Errorf("thread %d claimed %d ring slots", th.Num(), th.wsSeq)
		}
	}
	for i := 0; i < 2; i++ {
		rt.Parallel(func(th *Thread) {
			body(th)
			check(th, false)
		})
	}
	rt.Parallel(func(th *Thread) {
		th.For(10, func(int) {}, Schedule(icv.DynamicSched, 1))
		check(th, true)
	})
}

// TestRuntimeScheduleResolvesAtFork: schedule(runtime) resolves against the
// run-sched-var the team was forked with. A SetSchedule inside the region —
// or racing it from another goroutine — must not split the members between
// the static path and the shared dispenser (which would hang the loop).
func TestRuntimeScheduleResolvesAtFork(t *testing.T) {
	const n, trip = 3, 100
	rt := testRuntime(n)
	defer rt.Pool().Shutdown()
	rt.SetSchedule(icv.Schedule{Kind: icv.StaticSched})
	log := newOwnerLog(trip)
	rt.Parallel(func(th *Thread) {
		if th.Num() == 0 {
			rt.SetSchedule(icv.Schedule{Kind: icv.DynamicSched, Chunk: 1})
		}
		th.Barrier()
		th.For(trip, func(i int) { log.hit(int64(i), th.Num()) }, Schedule(icv.RuntimeSched, 0))
	})
	log.check(t, "runtime loop after in-region SetSchedule", 0, n)
	if got := rt.Schedule(); got != (icv.Schedule{Kind: icv.DynamicSched, Chunk: 1}) {
		t.Errorf("Schedule() = %+v after SetSchedule(dynamic,1)", got)
	}
	rt.Parallel(func(th *Thread) {
		if got := th.team.RunSched(); got.Kind != icv.DynamicSched {
			t.Errorf("next region forked with run-sched %+v, want dynamic", got)
		}
	})
}

// TestSetScheduleDuringRuntimeLoops flips run-sched-var between static and
// dispensed kinds while other goroutines run schedule(runtime) loops and
// reductions. It must be race-clean, cover every iteration exactly once and
// finish: a member resolving differently from its team would hang.
func TestSetScheduleDuringRuntimeLoops(t *testing.T) {
	const n, trip, regions = 2, 64, 150
	rt := testRuntime(n)
	defer rt.Pool().Shutdown()
	scheds := []icv.Schedule{
		{Kind: icv.StaticSched},
		{Kind: icv.DynamicSched, Chunk: 1},
		{Kind: icv.StaticSched, Chunk: 3},
		{Kind: icv.GuidedSched},
		{Kind: icv.StealSched},
		{Kind: icv.AutoSched},
	}
	stop := make(chan struct{})
	var setter sync.WaitGroup
	setter.Add(1)
	go func() {
		defer setter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				rt.SetSchedule(scheds[i%len(scheds)])
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < regions; r++ {
					hits := make([]atomic.Int32, trip)
					sums := make([]int, n)
					rt.Parallel(func(th *Thread) {
						if th.Num() == 0 {
							rt.SetSchedule(scheds[r%len(scheds)])
						}
						th.For(trip, func(i int) { hits[i].Add(1) }, Schedule(icv.RuntimeSched, 0), NoWait())
						th.ForChunks(trip, func(lo, hi int) {
							for i := lo; i < hi; i++ {
								hits[i].Add(1)
							}
						}, Schedule(icv.RuntimeSched, 0))
						sums[th.Num()] = ReduceFor(th, trip, reduction.Sum, func(i, acc int) int { return acc + i },
							Schedule(icv.RuntimeSched, 0))
					})
					for i := range hits {
						if c := hits[i].Load(); c != 2 {
							t.Errorf("region %d: iteration %d ran %d times over two loops", r, i, c)
							return
						}
					}
					for tid, s := range sums {
						if s != trip*(trip-1)/2 {
							t.Errorf("region %d thread %d: sum %d", r, tid, s)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("schedule(runtime) loops hung while run-sched-var changed")
	}
	close(stop)
	setter.Wait()
}
