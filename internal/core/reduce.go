package core

import (
	"unsafe"

	"repro/internal/kmp"
	"repro/internal/reduction"
	"repro/internal/sched"
)

// Reductions. ReduceFor and friends are free generic functions rather than
// Thread methods because Go methods cannot carry type parameters.

// ReduceFor runs a worksharing loop over 0..n-1 in which each iteration
// folds into a reduction accumulator: the reduction clause on a loop.
// body receives the iteration index and the thread's running partial and
// returns the updated partial. Every team member receives the identical
// combined result (the value the reduction variable holds after the
// construct); combine it with the pre-loop value of the variable as in
// `sum = gomp.Combine(op, sum, result)`, or use the transformer which emits
// that code. The implicit barrier is always taken: a reduction result
// cannot be produced without one.
func ReduceFor[T reduction.Number](t *Thread, n int, op reduction.Op, body func(i int, acc T) T, opts ...ForOption) T {
	return ReduceForLoop(t, sched.Loop{Begin: 0, End: int64(n), Step: 1}, op,
		func(i int64, acc T) T { return body(int(i), acc) }, opts...)
}

// ReduceForLoop is ReduceFor over a general canonical loop.
func ReduceForLoop[T reduction.Number](t *Thread, loop sched.Loop, op reduction.Op, body func(i int64, acc T) T, opts ...ForOption) T {
	cfg := buildForConfig(opts)
	trip := loop.TripCount()

	if t.team == nil {
		acc := reduction.Identity[T](op)
		for k := int64(0); k < trip; k++ {
			acc = body(loop.Iteration(k), acc)
		}
		return acc
	}
	local := reduction.Identity[T](op)
	ls := t.beginLoop(cfg.sched, trip, false)
	t.runChunks(&ls, func(k int64) {
		local = body(loop.Iteration(k), local)
	}, false)
	// The reduction's barrier is the loop's implicit barrier.
	t.endLoop(&ls, true)
	return teamReduce(t, op, local)
}

// Reduce performs a team-wide reduction of one value per thread, outside a
// loop: each thread contributes v, all receive the combined result. This is
// the reduction clause on a bare parallel construct.
func Reduce[T reduction.Number](t *Thread, op reduction.Op, v T) T {
	if t.team == nil {
		return v
	}
	return teamReduce(t, op, v)
}

// teamReduce combines every member's partial v and returns the result to
// all of them. Each member writes v to its slot of one of the team's two
// reduction banks, alternating banks from one reduction to the next (see
// kmp.Team.ReductionBank), and after the barrier — mandatory, since all
// partials must be in place before any member combines them — folds the
// bank's slots 0..n-1 left to right, the order reduction.Accumulator.Reduce
// uses. The fold order is fixed, so every member computes the same value,
// bit for bit for floating types.
func teamReduce[T reduction.Number](t *Thread, op reduction.Op, v T) T {
	bank := t.team.ReductionBank(int(t.redSeq & 1))
	t.redSeq++
	*redSlot[T](&bank[t.tid]) = v
	t.Barrier()
	acc := *redSlot[T](&bank[0])
	for i := 1; i < len(bank); i++ {
		acc = reduction.Combine(op, acc, *redSlot[T](&bank[i]))
	}
	return acc
}

// redSlot views a reduction slot's leading bytes as a T; every Number type
// fits in the slot and none holds a pointer.
func redSlot[T reduction.Number](s *kmp.RedSlot) *T { return (*T)(unsafe.Pointer(s)) }

// Combine re-exports the reduction combiner so callers can fold a reduction
// result into the original variable without importing internal packages.
func Combine[T reduction.Number](op reduction.Op, a, b T) T {
	return reduction.Combine(op, a, b)
}
