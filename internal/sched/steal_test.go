package sched

import (
	"math"
	"sync"
	"testing"

	"repro/internal/icv"
)

func stealSched(trip int64, nthreads int, chunk int) *stealer {
	return New(icv.Schedule{Kind: icv.StealSched, Chunk: chunk}, trip, nthreads).(*stealer)
}

// TestSchedStealPartition: the work-stealing scheduler must tile the
// iteration space exactly under real concurrency, like every other kind
// (also covered by the shared scheduleCases suite; this pins larger teams).
func TestSchedStealPartition(t *testing.T) {
	for _, trip := range []int64{0, 1, 7, 100, 10000} {
		for _, n := range []int{1, 2, 4, 16} {
			chunks := drainConcurrent(stealSched(trip, n, 1), n)
			checkPartition(t, chunks, trip)
		}
	}
}

// TestSchedStealLocalFirst: a thread's first chunk comes from the front of
// its own block-static range — the local pop that keeps the common path off
// shared state.
func TestSchedStealLocalFirst(t *testing.T) {
	const trip, n = 1024, 4
	s := stealSched(trip, n, 1)
	for tid := 0; tid < n; tid++ {
		begin, _ := StaticBlockBounds(trip, n, tid)
		c, ok := s.Next(tid)
		if !ok || c.Begin != begin {
			t.Errorf("tid %d first chunk %+v, want to start at own block %d", tid, c, begin)
		}
	}
}

// TestSchedStealDrainByOneThread: a single caller must be able to finish
// the whole loop by stealing every other slot's range — the property that
// makes one fast thread absorb its stalled teammates' iterations.
func TestSchedStealDrainByOneThread(t *testing.T) {
	const trip, n = 1000, 8
	s := stealSched(trip, n, 1)
	chunks := map[int][]Chunk{}
	for {
		c, ok := s.Next(3)
		if !ok {
			break
		}
		chunks[3] = append(chunks[3], c)
	}
	checkPartition(t, chunks, trip)
}

// TestSchedStealChunkFloor: pops respect the schedule clause's chunk size
// as a granularity floor (all but range-final chunks are at least chunk
// iterations).
func TestSchedStealChunkFloor(t *testing.T) {
	const trip, n, chunk = 1000, 4, 16
	s := stealSched(trip, n, chunk)
	chunks := drainConcurrent(s, n)
	short := 0
	for _, cs := range chunks {
		for _, c := range cs {
			if c.Len() < chunk {
				short++
			}
		}
	}
	// A sub-chunk piece can only be the tail of a range; with 4 initial
	// ranges plus steals there are few ranges, so short pieces stay rare.
	if short > 2*n {
		t.Errorf("%d chunks under the %d-iteration floor", short, chunk)
	}
}

// TestSchedStealPopsAreBatched: the whole point of the stealer — the
// number of scheduler round trips must be far below the iteration count
// (O(n log trip)), unlike dynamic chunk 1's one atomic per iteration.
func TestSchedStealPopsAreBatched(t *testing.T) {
	const trip, n = 1 << 16, 4
	s := stealSched(trip, n, 1)
	calls := 0
	for tid := 0; tid < n; tid++ {
		for {
			if _, ok := s.Next(tid); !ok {
				break
			}
			calls++
		}
	}
	// Geometric pops and steal-halving keep calls logarithmic-ish per
	// range; 2000 is ~30x fewer round trips than dynamic chunk 1 would
	// make, while leaving slack for the single-caller drain pattern.
	if calls > 2000 {
		t.Errorf("steal made %d scheduler calls for %d iterations; pops are not batched", calls, trip)
	}
}

// TestSchedStealConcurrentStress hammers the steal path from many
// goroutines (run under -race in CI): repeated Reset/drain cycles over odd
// shapes must keep the exact-partition invariant.
func TestSchedStealConcurrentStress(t *testing.T) {
	s := stealSched(1, 8, 1)
	for round := 0; round < 50; round++ {
		trip := int64(round * 97 % 3001)
		if !s.Reset(trip, 8) {
			t.Fatal("Reset refused")
		}
		var mu sync.Mutex
		counts := make([]int, trip)
		var wg sync.WaitGroup
		for tid := 0; tid < 8; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for {
					c, ok := s.Next(tid)
					if !ok {
						return
					}
					mu.Lock()
					for i := c.Begin; i < c.End; i++ {
						counts[i]++
					}
					mu.Unlock()
				}
			}(tid)
		}
		wg.Wait()
		for i, got := range counts {
			if got != 1 {
				t.Fatalf("round %d: iteration %d ran %d times", round, i, got)
			}
		}
	}
}

// TestSchedStealHugeTripNoOverflow: bounds arithmetic must survive trip
// counts near int64 max (the de-linearized space of a deep collapse can be
// enormous even when each level is modest).
func TestSchedStealHugeTripNoOverflow(t *testing.T) {
	s := stealSched(math.MaxInt64-3, 2, 1)
	for tid := 0; tid < 2; tid++ {
		c, ok := s.Next(tid)
		if !ok || c.Empty() || c.Begin < 0 || c.End < c.Begin {
			t.Fatalf("tid %d: chunk %+v", tid, c)
		}
	}
}

// TestSchedDynamicCursorClamped: the shared-cursor scheduler must not let
// post-exhaustion Next calls grow the cursor without bound — a recycled
// scheduler lives across many loops and a huge trip count would otherwise
// march the cursor toward int64 wrap-around.
func TestSchedDynamicCursorClamped(t *testing.T) {
	const trip, chunk = 64, 8
	s := newDynamic(trip, chunk)
	for {
		if _, ok := s.Next(0); !ok {
			break
		}
	}
	for i := 0; i < 10000; i++ {
		if _, ok := s.Next(0); ok {
			t.Fatal("drained scheduler handed out a chunk")
		}
	}
	if cur := s.cursor.Load(); cur > trip+chunk {
		t.Errorf("cursor grew to %d after exhaustion (want <= %d)", cur, trip+chunk)
	}
}

// TestSchedStealResolveRuntime: OMP_SCHEDULE=nonmonotonic:dynamic must
// reach schedule(runtime) loops through the run-sched ICV.
func TestSchedStealResolveRuntime(t *testing.T) {
	icvs := icv.Default()
	icvs.RunSched = icv.Schedule{Kind: icv.StealSched, Chunk: 2}
	got := Resolve(icv.Schedule{Kind: icv.RuntimeSched}, icvs.RunSched)
	if got != icvs.RunSched {
		t.Errorf("Resolve(runtime) = %+v, want the steal run-sched", got)
	}
	if _, ok := New(got, 100, 4).(*stealer); !ok {
		t.Error("resolved steal schedule did not build a stealer")
	}
}
