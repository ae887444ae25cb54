// Package sched implements the worksharing-loop schedulers of OpenMP 5.2
// section 11.5 — static (block and cyclic), dynamic, guided, auto, runtime
// — plus the work-stealing steal scheduler behind
// schedule(nonmonotonic:dynamic) (libomp's static_steal). The paper lowers
// `omp for` to "a runtime library routine call to calculate the loop
// bounds" — this package is that routine.
//
// A loop is first normalised to a trip count (the number of iterations);
// static schedules are a pure function of trip count, team size and thread
// number (StaticChunk), as in libomp, while the other kinds hand out chunks
// from a shared Scheduler. Both deal in half-open chunk ranges [Begin, End)
// of *logical iteration numbers*, which Loop.Iteration maps back to user
// loop-variable values. This matches how libomp's __kmpc_for_static_init /
// __kmpc_dispatch_next operate on a normalised iteration space. Nest
// extends the same normalisation to perfectly nested loops: collapse(n)
// flattens the nest into one logical space and Delinearize recovers the
// per-level loop variables from a logical iteration number.
//
// Every Scheduler is Reset-able in place, which is what lets the kmp
// worksharing ring cache one scheduler per ring slot and run steady-state
// dispensed loops without allocation.
package sched

import (
	"fmt"
	"sync/atomic"

	"repro/internal/icv"
)

// Loop describes a canonical-form loop: for i := Begin; i < End (or > for
// negative Step); i += Step. Step must be non-zero.
type Loop struct {
	Begin, End, Step int64
}

// TripCount returns the number of iterations the loop executes.
func (l Loop) TripCount() int64 {
	if l.Step == 0 {
		panic("sched: loop step must be non-zero")
	}
	if l.Step > 0 {
		if l.End <= l.Begin {
			return 0
		}
		return (l.End - l.Begin + l.Step - 1) / l.Step
	}
	if l.End >= l.Begin {
		return 0
	}
	step := -l.Step
	return (l.Begin - l.End + step - 1) / step
}

// Iteration maps logical iteration k (0-based) to the loop-variable value.
func (l Loop) Iteration(k int64) int64 { return l.Begin + k*l.Step }

// Chunk is a half-open range [Begin, End) of logical iteration numbers.
type Chunk struct {
	Begin, End int64
}

// Empty reports whether the chunk contains no iterations.
func (c Chunk) Empty() bool { return c.End <= c.Begin }

// Len returns the number of iterations in the chunk.
func (c Chunk) Len() int64 {
	if c.Empty() {
		return 0
	}
	return c.End - c.Begin
}

// Scheduler hands out chunks of a loop's iteration space to team threads.
// Implementations must be safe for concurrent Next calls from distinct tids.
type Scheduler interface {
	// Next returns the next chunk for thread tid, and ok=false when the
	// thread has no more work.
	Next(tid int) (Chunk, bool)
	// Reset reconfigures the scheduler in place for a new loop with the
	// same schedule kind and chunk (the caller must verify the schedule
	// descriptor matches before calling), so a long-running region can
	// workshare loop after loop without allocating scheduler state. It
	// reports false when the receiver cannot be reshaped, in which case
	// the caller falls back to New. Reset must not be called concurrently
	// with Next.
	Reset(trip int64, nthreads int) bool
}

// Static reports whether the resolved schedule s is static — block,
// static,k, or auto, which this runtime maps to static. Static loops take
// their chunks from StaticChunk; only the other kinds need a Scheduler.
func Static(s icv.Schedule) bool {
	return s.Kind == icv.StaticSched || s.Kind == icv.AutoSched
}

// New builds the shared chunk dispenser for a dynamic, guided or steal
// schedule. RuntimeSched must be resolved against run-sched-var by the
// caller before reaching here (Resolve does that), and static schedules
// have no dispenser: each thread computes its chunks with StaticChunk.
func New(s icv.Schedule, trip int64, nthreads int) Scheduler {
	if nthreads < 1 {
		panic("sched: nthreads must be >= 1")
	}
	if trip < 0 {
		trip = 0
	}
	switch s.Kind {
	case icv.StaticSched, icv.AutoSched:
		panic("sched: static schedules have no dispenser; use StaticChunk")
	case icv.DynamicSched:
		chunk := int64(s.Chunk)
		if chunk <= 0 {
			chunk = 1
		}
		return newDynamic(trip, chunk)
	case icv.GuidedSched:
		minChunk := int64(s.Chunk)
		if minChunk <= 0 {
			minChunk = 1
		}
		return newGuided(trip, nthreads, minChunk)
	case icv.StealSched:
		chunk := int64(s.Chunk)
		if chunk <= 0 {
			chunk = 1
		}
		return newStealer(trip, nthreads, chunk)
	case icv.RuntimeSched:
		panic("sched: RuntimeSched must be resolved via Resolve before New")
	default:
		panic(fmt.Sprintf("sched: unknown schedule kind %v", s.Kind))
	}
}

// Resolve replaces schedule(runtime) with run, the run-sched-var value the
// encountering team was forked with. Every member of a team resolves
// against the same value, so all of them take the same path — the static
// computation or the shared dispenser.
func Resolve(s icv.Schedule, run icv.Schedule) icv.Schedule {
	if s.Kind == icv.RuntimeSched {
		r := run
		if r.Kind == icv.RuntimeSched { // guard against ICV set to runtime
			return icv.Schedule{Kind: icv.StaticSched}
		}
		return r
	}
	return s
}

// StaticBlockBounds returns thread tid's block [begin, end) under block-static
// scheduling: one contiguous block per thread, the first (trip mod
// nthreads) threads taking one extra iteration, so block sizes differ by at
// most one (libomp's static_balanced split).
func StaticBlockBounds(trip int64, nthreads, tid int) (begin, end int64) {
	n := int64(nthreads)
	t := int64(tid)
	small := trip / n
	extra := trip % n
	if t < extra {
		begin = t * (small + 1)
		end = begin + small + 1
	} else {
		begin = extra*(small+1) + (t-extra)*small
		end = begin + small
	}
	return begin, end
}

// StaticChunk returns thread tid's c-th chunk (c = 0, 1, ...) of a loop of
// trip iterations under the static schedule s on a team of nthreads, and
// ok=false once the thread has no c-th chunk. Block static (no chunk size)
// gives each thread its StaticBlockBounds block as chunk 0; static,k deals
// k-iteration chunks round-robin, thread tid taking chunks tid, tid+n,
// tid+2n, ... — libomp's __kmpc_for_static_init arithmetic. It is a pure
// function of its arguments, so every team member computes its own chunks
// and a static loop touches no shared construct state.
func StaticChunk(s icv.Schedule, trip int64, nthreads, tid int, c int64) (Chunk, bool) {
	if s.Chunk <= 0 {
		if c > 0 {
			return Chunk{}, false
		}
		begin, end := StaticBlockBounds(trip, nthreads, tid)
		return Chunk{begin, end}, begin < end
	}
	k := int64(s.Chunk)
	chunks := trip / k
	if trip%k != 0 {
		chunks++
	}
	idx := c*int64(nthreads) + int64(tid)
	if idx >= chunks {
		return Chunk{}, false
	}
	begin := idx * k
	return Chunk{begin, min(begin+k, trip)}, true
}

// dynamic hands out fixed-size chunks from a shared atomic cursor
// (schedule(dynamic, chunk)); first-come first-served.
type dynamic struct {
	trip, chunk int64
	cursor      atomic.Int64
}

func newDynamic(trip, chunk int64) *dynamic {
	return &dynamic{trip: trip, chunk: chunk}
}

// Reset implements Scheduler; the chunk size carries over.
func (s *dynamic) Reset(trip int64, _ int) bool {
	s.trip = trip
	s.cursor.Store(0)
	return true
}

func (s *dynamic) Next(int) (Chunk, bool) {
	begin := s.cursor.Add(s.chunk) - s.chunk
	if begin >= s.trip {
		// Clamp the overshot cursor back to trip. Without this, every
		// post-exhaustion Next (and a recycled scheduler sees them for its
		// whole lifetime) grows the cursor by chunk, which on a huge trip
		// count eventually wraps int64 and would hand out iterations
		// again. The CAS only succeeds when no other Add interleaved, so
		// the cursor stays within [trip, trip + nthreads·chunk).
		s.cursor.CompareAndSwap(begin+s.chunk, s.trip)
		return Chunk{}, false
	}
	return Chunk{begin, min(begin+s.chunk, s.trip)}, true
}

// guided hands out chunks proportional to the remaining iterations divided
// by the team size, decreasing exponentially and bounded below by minChunk
// (schedule(guided, chunk)). This is the libomp formula.
type guided struct {
	trip, minChunk, nthreads int64
	cursor                   atomic.Int64
}

func newGuided(trip int64, nthreads int, minChunk int64) *guided {
	return &guided{trip: trip, minChunk: minChunk, nthreads: int64(nthreads)}
}

// Reset implements Scheduler; the minimum chunk carries over.
func (s *guided) Reset(trip int64, nthreads int) bool {
	s.trip, s.nthreads = trip, int64(nthreads)
	s.cursor.Store(0)
	return true
}

func (s *guided) Next(int) (Chunk, bool) {
	for {
		begin := s.cursor.Load()
		remaining := s.trip - begin
		if remaining <= 0 {
			return Chunk{}, false
		}
		size := (remaining + s.nthreads - 1) / s.nthreads
		if size < s.minChunk {
			size = s.minChunk
		}
		if size > remaining {
			size = remaining
		}
		if s.cursor.CompareAndSwap(begin, begin+size) {
			return Chunk{begin, begin + size}, true
		}
	}
}
