package kmp

import (
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func doaInit(e *WSEntry, loops ...sched.Loop) int64 {
	trips := make([]int64, len(loops))
	trip := sched.NestTrips(loops, trips)
	e.DoacrossInit(loops, trips, trip)
	return trip
}

func TestDoacrossSinkLinearization(t *testing.T) {
	var e WSEntry
	// 3 × 4 nest with non-trivial bounds: i in {2,4,6}, j in {-1,0,1,2}.
	doaInit(&e, sched.Loop{Begin: 2, End: 8, Step: 2}, sched.Loop{Begin: -1, End: 3, Step: 1})
	cases := []struct {
		vec  []int64
		k    int64
		in   bool
		name string
	}{
		{[]int64{2, -1}, 0, true, "origin"},
		{[]int64{2, 2}, 3, true, "end of first row"},
		{[]int64{4, -1}, 4, true, "second row"},
		{[]int64{6, 2}, 11, true, "last"},
		{[]int64{0, 0}, 0, false, "before first row"},
		{[]int64{8, 0}, 0, false, "after last row"},
		{[]int64{4, 3}, 0, false, "past the row end"},
		{[]int64{4, -2}, 0, false, "before the row start"},
	}
	for _, c := range cases {
		k, in := e.DoacrossSink(c.vec)
		if in != c.in || (in && k != c.k) {
			t.Errorf("%s: DoacrossSink(%v) = (%d,%v), want (%d,%v)", c.name, c.vec, k, in, c.k, c.in)
		}
	}
}

func TestDoacrossSinkArityPanics(t *testing.T) {
	var e WSEntry
	doaInit(&e, sched.Loop{Begin: 0, End: 4, Step: 1}, sched.Loop{Begin: 0, End: 4, Step: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong-arity sink vector")
		}
	}()
	e.DoacrossSink([]int64{1})
}

func TestDoacrossPostReleasesWait(t *testing.T) {
	p := NewPool(fixedICVs(2))
	var order []string
	p.Fork(ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		doaInit(e, sched.Loop{Begin: 0, End: 2, Step: 1})
		if tid == 1 {
			if !e.DoacrossWait(0, tm) {
				t.Error("wait reported cancelled on an uncancelled team")
			}
			order = append(order, "waited")
			e.DoacrossPost(1)
		} else {
			order = append(order, "posting")
			e.DoacrossPost(0)
			e.DoacrossWait(1, tm)
		}
		tm.Barrier(tid)
	})
	if len(order) != 2 || order[0] != "posting" || order[1] != "waited" {
		t.Fatalf("doacross order %v", order)
	}
}

func TestDoacrossWaitReleasedByCancel(t *testing.T) {
	p := NewPool(fixedICVs(2))
	var released atomic.Int64
	p.Fork(ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		doaInit(e, sched.Loop{Begin: 0, End: 4, Step: 1})
		if tid == 1 {
			// Iteration 3 is never posted; only the cancel releases us.
			if e.DoacrossWait(3, tm) {
				t.Error("wait satisfied without a post")
			}
			released.Add(1)
		} else {
			tm.Cancel()
		}
		tm.Barrier(tid)
	})
	if released.Load() != 1 {
		t.Fatal("cancelled doacross wait never released")
	}
}

// TestDoacrossRecycleClearsFlags: a recycled entry's next tenant must see a
// zeroed flag vector, including when it reuses the previous tenant's
// capacity (same trip) and when it shrinks.
func TestDoacrossRecycleClearsFlags(t *testing.T) {
	var e WSEntry
	doaInit(&e, sched.Loop{Begin: 0, End: 8, Step: 1})
	for k := int64(0); k < 8; k++ {
		e.DoacrossPost(k)
	}
	e.recycle()
	doaInit(&e, sched.Loop{Begin: 0, End: 6, Step: 1})
	for k := int64(0); k < 6; k++ {
		if e.doaFlags[k*int64(e.doaPad)].Load() != 0 {
			t.Fatalf("flag %d survived recycle", k)
		}
	}
}

// TestDoacrossPaddingFallback: small spaces pad each flag to a cache line;
// spaces past doaPadLimit pack one word per iteration.
func TestDoacrossPaddingFallback(t *testing.T) {
	var e WSEntry
	doaInit(&e, sched.Loop{Begin: 0, End: 64, Step: 1})
	if e.doaPad != doaLineWords {
		t.Errorf("small space pad = %d, want %d", e.doaPad, doaLineWords)
	}
	e.recycle()
	doaInit(&e, sched.Loop{Begin: 0, End: doaPadLimit + 1, Step: 1})
	if e.doaPad != 1 {
		t.Errorf("large space pad = %d, want 1", e.doaPad)
	}
	// The last iteration's flag must be addressable.
	e.DoacrossPost(doaPadLimit)
	if k, in := e.DoacrossSink([]int64{doaPadLimit}); !in || e.doaFlags[k].Load() != 1 {
		t.Error("last iteration flag not addressable in packed mode")
	}
}

// TestOrderedTurnReleasedByCancel is the kmp-level half of the
// ordered×cancel fix: a parked turn wait must observe team cancellation.
func TestOrderedTurnReleasedByCancel(t *testing.T) {
	p := NewPool(fixedICVs(2))
	var gaveUp atomic.Int64
	p.Fork(ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		if tid == 1 {
			// Turn 5 can never arrive: nobody finishes turns 0..4.
			if e.WaitOrderedTurn(5, tm) {
				t.Error("turn 5 acquired without predecessors")
			}
			gaveUp.Add(1)
		} else {
			tm.Cancel()
		}
		tm.Barrier(tid)
	})
	if gaveUp.Load() != 1 {
		t.Fatal("cancelled ordered turn wait never released")
	}
}

// TestDoacrossSinkRejectsNonIterationVectors: vectors between iterations
// (step does not divide vec-Begin) name no iteration and must be vacuous,
// not truncated onto a neighbouring (or the current!) iteration.
func TestDoacrossSinkRejectsNonIterationVectors(t *testing.T) {
	var e WSEntry
	doaInit(&e, sched.Loop{Begin: 10, End: 2, Step: -2}) // iterations 10,8,6,4
	for _, vec := range []int64{9, 7, 5, 3, 11} {
		if k, in := e.DoacrossSink([]int64{vec}); in {
			t.Errorf("non-iteration vector %d linearized to %d", vec, k)
		}
	}
	for i, vec := range []int64{10, 8, 6, 4} {
		if k, in := e.DoacrossSink([]int64{vec}); !in || k != int64(i) {
			t.Errorf("iteration vector %d = (%d,%v), want (%d,true)", vec, k, in, i)
		}
	}
}
