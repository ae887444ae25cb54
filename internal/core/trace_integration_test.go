package core

import (
	"fmt"
	"testing"

	"repro/internal/icv"
	"repro/internal/reduction"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Tracing integration: the runtime must emit the OMPT-analog event stream.
// These tests serialise on the global trace handler.

func withRecorder(t *testing.T, rt *Runtime, fn func(r *trace.Recorder)) {
	t.Helper()
	r := trace.NewRecorder()
	trace.Set(r.Handle)
	defer trace.Clear()
	// Drain trailing worker barrier exits before the next test swaps the
	// global handler, so no emission crosses recorder boundaries.
	defer rt.Pool().WaitQuiescent()
	fn(r)
}

func TestTraceRegionForkJoin(t *testing.T) {
	rt := testRuntime(4)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {})
		if r.Count(trace.EvRegionFork) != 1 || r.Count(trace.EvRegionJoin) != 1 {
			t.Errorf("fork/join = %d/%d", r.Count(trace.EvRegionFork), r.Count(trace.EvRegionJoin))
		}
		recs := r.Records()
		if recs[0].Ev != trace.EvRegionFork || recs[0].Arg != 4 {
			t.Errorf("first record %+v, want fork with team size 4", recs[0])
		}
	})
}

func TestTraceBarrierPairs(t *testing.T) {
	rt := testRuntime(3)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) { th.Barrier() })
		// The join is the region-end barrier: Fork returns once all members
		// have arrived, but workers may still be draining the barrier exit
		// (and its trace emission). Settle the pool before counting.
		rt.Pool().WaitQuiescent()
		// One explicit barrier per member plus the region-end barriers;
		// enters and exits must balance.
		if r.Count(trace.EvBarrierEnter) == 0 {
			t.Error("no barrier events")
		}
		if r.Count(trace.EvBarrierEnter) != r.Count(trace.EvBarrierExit) {
			t.Errorf("unbalanced barrier events: %d enter, %d exit",
				r.Count(trace.EvBarrierEnter), r.Count(trace.EvBarrierExit))
		}
	})
}

func TestTraceLoopChunksCoverTripCount(t *testing.T) {
	rt := testRuntime(4)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			th.For(100, func(int) {}, Schedule(icv.DynamicSched, 7))
		})
		var total int64
		for _, rec := range r.Records() {
			if rec.Ev == trace.EvLoopChunk {
				total += rec.Arg
			}
		}
		if total != 100 {
			t.Errorf("chunk lengths sum to %d, want 100", total)
		}
	})
}

// TestTraceStaticLoopChunks: a static loop computes its chunks locally but
// still emits one EvLoopChunk per executed chunk, carrying the chunk
// length, from the thread that runs it — for every static construct.
func TestTraceStaticLoopChunks(t *testing.T) {
	const n = 4
	rt := testRuntime(n)
	withRecorder(t, rt, func(r *trace.Recorder) {
		var gtid [n]int
		rt.Parallel(func(th *Thread) {
			gtid[th.Num()] = th.GlobalID()
			th.For(100, func(int) {}, Schedule(icv.StaticSched, 3))
			th.ForChunks(10, func(lo, hi int) {})
			ReduceFor(th, 9, reduction.Sum, func(i, acc int) int { return acc + i }, Schedule(icv.StaticSched, 2))
			th.ForNest([]sched.Loop{{Begin: 0, End: 3, Step: 1}, {Begin: 0, End: 5, Step: 1}}, func([]int64) {}, NoWait())
		})
		rt.Pool().WaitQuiescent()
		want := map[int][]int64{}
		for tid := 0; tid < n; tid++ {
			g := gtid[tid]
			for _, loop := range []struct {
				s    icv.Schedule
				trip int64
			}{
				{icv.Schedule{Kind: icv.StaticSched, Chunk: 3}, 100},
				{icv.Schedule{Kind: icv.StaticSched}, 10},
				{icv.Schedule{Kind: icv.StaticSched, Chunk: 2}, 9},
				{icv.Schedule{Kind: icv.StaticSched}, 15},
			} {
				for c := int64(0); ; c++ {
					ch, ok := sched.StaticChunk(loop.s, loop.trip, n, tid, c)
					if !ok {
						break
					}
					want[g] = append(want[g], ch.Len())
				}
			}
		}
		got := map[int][]int64{}
		for _, rec := range r.Records() {
			if rec.Ev == trace.EvLoopChunk {
				got[rec.GTID] = append(got[rec.GTID], rec.Arg)
			}
		}
		for g, w := range want {
			if fmt.Sprint(got[g]) != fmt.Sprint(w) {
				t.Errorf("gtid %d: chunk events %v, want %v", g, got[g], w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("chunk events from %d threads, want %d", len(got), len(want))
		}
	})
}

func TestTraceTasks(t *testing.T) {
	rt := testRuntime(2)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			if th.Num() == 0 {
				for i := 0; i < 10; i++ {
					th.Task(func(*Thread) {})
				}
			}
		})
		if r.Count(trace.EvTaskCreate) != 10 || r.Count(trace.EvTaskRun) != 10 {
			t.Errorf("task events create=%d run=%d", r.Count(trace.EvTaskCreate), r.Count(trace.EvTaskRun))
		}
	})
}

func TestTraceCritical(t *testing.T) {
	rt := testRuntime(2)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			th.Critical("x", func() {})
		})
		if r.Count(trace.EvCriticalEnter) != 2 || r.Count(trace.EvCriticalExit) != 2 {
			t.Errorf("critical events %d/%d", r.Count(trace.EvCriticalEnter), r.Count(trace.EvCriticalExit))
		}
	})
}

func TestNoTraceOverheadPathStillCorrect(t *testing.T) {
	// With tracing disabled everything behaves identically.
	trace.Clear()
	rt := testRuntime(4)
	var sum int64
	rt.Parallel(func(th *Thread) {
		s := ReduceFor(th, 100, reduction.Sum, func(i int, acc int64) int64 { return acc + int64(i) })
		th.Master(func() { sum = s })
	})
	if sum != 4950 {
		t.Errorf("sum = %d", sum)
	}
}

// TestTraceDoacrossEvents: sink waits and posts must reach the OMPT-analog
// stream. A 2-thread chain guarantees at least one cross-thread sink wait
// on an in-space iteration; every iteration posts exactly once (explicit
// and auto-post are one event).
func TestTraceDoacrossEvents(t *testing.T) {
	rt := testRuntime(2)
	const n = 32
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			th.ForDoacross([]sched.Loop{{Begin: 0, End: n, Step: 1}}, func(ix []int64, d *DoacrossCtx) {
				d.Wait(ix[0] - 1)
				d.Post()
			}, Schedule(icv.StaticSched, 0))
		})
		rt.Pool().WaitQuiescent()
		if got := r.Count(trace.EvDoacrossPost); got != n {
			t.Errorf("doacross-post events = %d, want %d", got, n)
		}
		// In-space sinks: iterations 1..n-1 (iteration 0's sink is
		// vacuous and emits nothing).
		if got := r.Count(trace.EvDoacrossWait); got != n-1 {
			t.Errorf("doacross-wait events = %d, want %d", got, n-1)
		}
	})
}
