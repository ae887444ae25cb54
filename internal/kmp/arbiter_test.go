package kmp

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestArbiterAdmitLadder walks the degradation ladder rung by rung at the
// unit level: full grant, immediate shrink under dyn-var, serialisation at
// exhaustion, and exact restore after release.
func TestArbiterAdmitLadder(t *testing.T) {
	var a arbiter
	if got := a.admit(4, 3, false); got != 4 {
		t.Fatalf("full grant: admit(4) = %d, want 4", got)
	}
	if used := a.used.Load(); used != 3 {
		t.Fatalf("after full grant: used = %d, want 3", used)
	}
	// Budget exhausted, dyn on: serialise immediately.
	if got := a.admit(3, 3, true); got != 1 {
		t.Fatalf("exhausted+dyn: admit(3) = %d, want 1", got)
	}
	shrunk, serialized := a.shrunk.Load(), a.serialized.Load()
	if shrunk != 1 || serialized != 1 {
		t.Fatalf("stats after serialise = (%d, %d), want (1, 1)", shrunk, serialized)
	}
	a.release(4)
	a.release(1) // serialised regions hold no budget; release must be a no-op
	if used := a.used.Load(); used != 0 {
		t.Fatalf("after releases: used = %d, want 0", used)
	}
	// Partial budget, dyn on: shrink to what remains.
	if got := a.admit(3, 3, true); got != 3 {
		t.Fatalf("refill: admit(3) = %d, want 3", got)
	}
	if got := a.admit(4, 4, true); got != 3 { // 2 left of 4, so 1+2
		t.Fatalf("partial+dyn: admit(4) = %d, want 3", got)
	}
	if a.shrunk.Load() != 2 {
		t.Fatalf("shrunk = %d, want 2", a.shrunk.Load())
	}
	a.release(3)
	a.release(3)
	if used := a.used.Load(); used != 0 {
		t.Fatalf("final: used = %d, want 0", used)
	}
}

// TestArbiterBoundedWaitDegrades pins the no-deadlock guarantee of rung 3:
// a non-dynamic request against a budget that never frees must return
// anyway (degraded), after a bounded wait.
func TestArbiterBoundedWaitDegrades(t *testing.T) {
	var a arbiter
	a.used.Store(2) // budget permanently occupied
	start := time.Now()
	got := a.admit(3, 2, false)
	if got != 1 {
		t.Fatalf("admit under permanent exhaustion = %d, want 1 (serialised)", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded wait took %v; the ladder is supposed to be short", elapsed)
	}
	if a.serialized.Load() != 1 {
		t.Fatalf("serialized = %d, want 1", a.serialized.Load())
	}
}

// TestArbiterConcurrentExactRestore hammers admit/release from many
// goroutines with random sizes and both dyn modes; the budget invariant
// (used never exceeds the limit) must hold throughout and the counter must
// return exactly to zero.
func TestArbiterConcurrentExactRestore(t *testing.T) {
	var a arbiter
	const limit = 4
	var wg sync.WaitGroup
	var overshoot atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 2 + rng.Intn(4)
				got := a.admit(n, limit, rng.Intn(2) == 0)
				if got < 1 || got > n {
					t.Errorf("admit(%d) = %d out of range", n, got)
				}
				if used := a.used.Load(); used > limit {
					overshoot.Add(1)
				}
				a.release(got)
			}
		}(int64(g))
	}
	wg.Wait()
	if overshoot.Load() != 0 {
		t.Errorf("budget exceeded its limit %d time(s)", overshoot.Load())
	}
	if used := a.used.Load(); used != 0 {
		t.Errorf("after all releases: used = %d, want 0", used)
	}
}

// blockedRegion forks a team of n in the background and parks its body
// until release is closed; started is closed once the region has been
// admitted and is holding its budget grant.
func blockedRegion(p *Pool, n int, started, release chan struct{}) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var once sync.Once
		p.Fork(ForkSpec{NumThreads: n}, func(tm *Team, tid int) {
			once.Do(func() { close(started) })
			<-release
		})
	}()
	return done
}

// TestPoolSerializesWhenBudgetExhausted: with thread-limit-var 2 (one extra
// thread of budget) and dyn-var set, a region forked while a sibling holds
// the budget must run serialised — immediately, without deadlock — and the
// budget must read zero once both have joined.
func TestPoolSerializesWhenBudgetExhausted(t *testing.T) {
	icvs := fixedICVs(2)
	icvs.Dynamic = true
	icvs.ThreadLimit = 2
	p := NewPool(icvs)
	defer p.Shutdown()

	started := make(chan struct{})
	release := make(chan struct{})
	done := blockedRegion(p, 2, started, release)
	<-started

	sawN := 0
	p.Fork(ForkSpec{NumThreads: 2}, func(tm *Team, tid int) {
		sawN = tm.N() // serialised team: only tid 0 runs, no race
	})
	if sawN != 1 {
		t.Errorf("region under exhausted budget ran with %d threads, want 1", sawN)
	}
	if _, serialized := p.AdmissionStats(); serialized < 1 {
		t.Errorf("serialized count = %d, want >= 1", serialized)
	}

	close(release)
	<-done
	p.WaitQuiescent()
	if used := p.ThreadBudgetUsed(); used != 0 {
		t.Errorf("budget after joins = %d, want 0", used)
	}
}

// TestPoolBoundedWaitNoDeadlock is the non-dynamic variant: the second
// region waits its bounded while for the hoarder, then degrades and
// completes anyway.
func TestPoolBoundedWaitNoDeadlock(t *testing.T) {
	icvs := fixedICVs(2)
	icvs.ThreadLimit = 2 // dyn-var off: rung 3 then degrade
	p := NewPool(icvs)
	defer p.Shutdown()

	started := make(chan struct{})
	release := make(chan struct{})
	done := blockedRegion(p, 2, started, release)
	<-started

	finished := make(chan int, 1)
	go func() {
		n := 0
		p.Fork(ForkSpec{NumThreads: 2}, func(tm *Team, tid int) {
			if tid == 0 {
				n = tm.N()
			}
		})
		finished <- n
	}()
	select {
	case n := <-finished:
		if n != 1 {
			t.Errorf("degraded region size = %d, want 1", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fork deadlocked waiting for budget the hoarder never returns")
	}

	close(release)
	<-done
	p.WaitQuiescent()
	if used := p.ThreadBudgetUsed(); used != 0 {
		t.Errorf("budget after joins = %d, want 0", used)
	}
}

// TestPoolBudgetRestoredAfterPanic: a panicking region body must unwind to
// the forker (first panic wins), leave the team joined and reusable, and
// return its full budget grant — the deferred fork epilogue runs on the
// panic path too.
func TestPoolBudgetRestoredAfterPanic(t *testing.T) {
	p := NewPool(fixedICVs(4))
	defer p.Shutdown()

	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				if r := recover(); r != "tenant bug" {
					t.Errorf("round %d: recovered %v, want \"tenant bug\"", round, r)
				}
			}()
			p.Fork(ForkSpec{}, func(tm *Team, tid int) {
				if tid == 1 {
					panic("tenant bug")
				}
			})
			t.Errorf("round %d: fork returned instead of rethrowing", round)
		}()

		// The pool must be fully serviceable after the panic.
		var mask atomic.Int64
		p.Fork(ForkSpec{}, func(tm *Team, tid int) {
			mask.Or(1 << tid)
		})
		if mask.Load() != 0b1111 {
			t.Fatalf("round %d: post-panic fork mask = %b, want 1111", round, mask.Load())
		}
	}
	p.WaitQuiescent()
	if used := p.ThreadBudgetUsed(); used != 0 {
		t.Errorf("budget after panicking regions = %d, want 0", used)
	}
}

// TestPoolBudgetRandomInterleavings drives random mixes of sizes, nesting
// and panics from concurrent tenants, then checks the one durable
// invariant: a quiescent pool holds zero budget.
func TestPoolBudgetRandomInterleavings(t *testing.T) {
	icvs := fixedICVs(4)
	icvs.Dynamic = true
	icvs.ThreadLimit = 4
	icvs.MaxActiveLevels = 2
	p := NewPool(icvs)
	defer p.Shutdown()

	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				n := 1 + rng.Intn(4)
				mustPanic := rng.Intn(5) == 0
				func() {
					if mustPanic {
						defer func() { recover() }()
					}
					p.Fork(ForkSpec{NumThreads: n}, func(tm *Team, tid int) {
						if tid == 0 && i%7 == 0 {
							// Occasionally nest a region from the master.
							p.ForkFrom(tm, tid, ForkSpec{NumThreads: 2}, func(*Team, int) {})
						}
						if mustPanic && tid == 0 {
							panic("storm panic")
						}
					})
				}()
			}
		}(int64(g))
	}
	wg.Wait()
	p.WaitQuiescent()
	if used := p.ThreadBudgetUsed(); used != 0 {
		t.Errorf("budget after storm = %d, want 0", used)
	}
}
