// Package barrier implements the team barrier — the synchronisation point
// at the end of every parallel region and (non-nowait) worksharing
// construct.
//
// The algorithm is the dissemination barrier: log2(n) rounds of pairwise
// signalling, with no single hot location. It is the only one because it
// beat a central counter and a combining tree at the default team size
// (see "Barrier algorithm" in DESIGN.md for the numbers).
//
// The barrier is cyclic (reusable) and safe for the fixed set of
// participants it was constructed for. Waiting uses a spin-then-yield
// -then-sleep policy (see wait.go) so the runtime remains live even when
// there are more "threads" (goroutines) than GOMAXPROCS — a situation a
// pthreads runtime like libomp handles with futexes.
package barrier

import (
	"sync/atomic"

	"repro/internal/icv"
)

// Work is a source of deferred work a barrier waiter may execute while it
// idles — in the runtime, the team's explicit-task pool. RunOne must be
// cheap when no work is pending (it is polled from wait loops) and must
// never block on the caller's own progress. Team barriers are task
// scheduling points (OpenMP 5.2 §15.9.5), which is exactly what WaitWork
// implements.
type Work interface {
	// RunOne executes one unit of pending work on behalf of participant
	// id, reporting whether anything was executed.
	RunOne(id int) bool
}

// Dissemination is the dissemination barrier: ceil(log2 n) rounds where in
// round r participant i signals participant (i + 2^r) mod n and waits for a
// signal from (i - 2^r) mod n. Phase counters (not senses) make it cyclic.
type Dissemination struct {
	n      int
	rounds int
	policy icv.WaitPolicy
	// flags[i][r] counts signals received by participant i in round r.
	flags [][]paddedI64
	phase []paddedU32 // per-participant phase number
}

// NewDissemination returns a dissemination barrier for n participants.
func NewDissemination(n int, policy icv.WaitPolicy) *Dissemination {
	if n < 1 {
		panic("barrier: need at least one participant")
	}
	RefreshProcs()
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	flags := make([][]paddedI64, n)
	for i := range flags {
		flags[i] = make([]paddedI64, max(rounds, 1))
	}
	return &Dissemination{n: n, rounds: rounds, policy: policy, flags: flags, phase: make([]paddedU32, n)}
}

// N returns the number of participants.
func (b *Dissemination) N() int { return b.n }

// Wait blocks participant id (0 <= id < N()) until the whole team has
// arrived.
func (b *Dissemination) Wait(id int) { b.WaitWork(id, nil) }

// WaitWork is Wait, but the participant executes units of w while it awaits
// each round's peer signal instead of only spinning — the
// barrier-as-task-scheduling-point behaviour. A nil w degenerates to Wait.
func (b *Dissemination) WaitWork(id int, w Work) {
	if b.n == 1 {
		return
	}
	phase := int64(b.phase[id].v) + 1
	b.phase[id].v = uint32(phase)
	for r := 0; r < b.rounds; r++ {
		peer := (id + (1 << r)) % b.n
		b.flags[peer][r].v.Add(1)
		// Wait until our round-r flag reaches this phase's count.
		spinInt64(&b.flags[id][r].v, phase, b.policy, w, id)
	}
}

// paddedU32 is a uint32 on its own cache line.
type paddedU32 struct {
	v uint32
	_ [60]byte
}

// paddedI64 is an atomic.Int64 on its own cache line.
type paddedI64 struct {
	v atomic.Int64
	_ [56]byte
}
