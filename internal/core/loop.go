package core

import (
	"fmt"

	"repro/internal/icv"
	"repro/internal/kmp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ForOption configures a worksharing loop (the clauses of `omp for`).
type ForOption func(*forConfig)

type forConfig struct {
	sched    icv.Schedule
	hasSched bool
	nowait   bool
	ordered  bool
}

// Schedule is the schedule clause. chunk 0 means unspecified.
func Schedule(kind icv.ScheduleKind, chunk int) ForOption {
	return func(c *forConfig) { c.sched = icv.Schedule{Kind: kind, Chunk: chunk}; c.hasSched = true }
}

// NoWait is the nowait clause: skip the implicit barrier at loop end.
func NoWait() ForOption {
	return func(c *forConfig) { c.nowait = true }
}

// OrderedOpt is the ordered clause; loop bodies may then use Thread.Ordered
// via the ForOrdered variant.
func OrderedOpt() ForOption {
	return func(c *forConfig) { c.ordered = true }
}

func buildForConfig(opts []ForOption) forConfig {
	var cfg forConfig
	// Applying options takes &cfg through opaque funcs, which forces cfg to
	// the heap; keep that in a separate function so the common no-options
	// call (every default-schedule loop and barrier-bearing construct in a
	// steady-state region) allocates nothing.
	if len(opts) > 0 {
		cfg = applyForOpts(opts)
	}
	if !cfg.hasSched {
		cfg.sched = icv.Schedule{Kind: icv.StaticSched}
	}
	return cfg
}

func applyForOpts(opts []ForOption) forConfig {
	var cfg forConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// For is the worksharing loop directive over iterations 0..n-1: the team
// splits the iteration space according to the schedule clause, and an
// implicit barrier follows unless nowait is given. Must be called by every
// member of the team (the OpenMP worksharing contract).
func (t *Thread) For(n int, body func(i int), opts ...ForOption) {
	t.ForLoop(sched.Loop{Begin: 0, End: int64(n), Step: 1}, func(i int64) { body(int(i)) }, opts...)
}

// ForLoop is For generalised to any canonical loop (begin/end/step, step may
// be negative) — the form the source transformer lowers arbitrary Go for
// statements into.
func (t *Thread) ForLoop(loop sched.Loop, body func(i int64), opts ...ForOption) {
	cfg := buildForConfig(opts)
	trip := loop.TripCount()

	if t.team == nil {
		// Sequential context: run the whole loop in order.
		for k := int64(0); k < trip; k++ {
			body(loop.Iteration(k))
		}
		return
	}
	ls := t.beginLoop(cfg.sched, trip, false)
	t.runChunks(&ls, func(k int64) { body(loop.Iteration(k)) }, false)
	t.endLoop(&ls, cfg.nowait)
}

// ForNest is the collapse(n) worksharing loop: the perfectly nested
// canonical loops (outermost first) are flattened into one logical
// iteration space which the team splits according to the schedule clause,
// so inner-loop iterations load-balance across threads even when the outer
// loop is short or skewed. The body receives the per-level loop-variable
// values, outermost first; ix is reused across iterations on the same
// thread and must not be retained or mutated.
func (t *Thread) ForNest(loops []sched.Loop, body func(ix []int64), opts ...ForOption) {
	cfg := buildForConfig(opts)
	trips, ix, base := t.nestFrame(len(loops))
	trip := sched.NestTrips(loops, trips)

	if t.team == nil {
		for k := int64(0); k < trip; k++ {
			sched.DelinearizeNest(loops, trips, k, ix)
			body(ix)
		}
		t.nestBase = base
		return
	}
	ls := t.beginLoop(cfg.sched, trip, false)
	t.runChunks(&ls, func(k int64) {
		sched.DelinearizeNest(loops, trips, k, ix)
		body(ix)
	}, false)
	t.endLoop(&ls, cfg.nowait)
	t.nestBase = base
}

// nestFrame claims a trips+ix frame of the given depth from the thread's
// scratch stack, returning the two slices and the stack base to restore
// once the loop's body can no longer run. Stacking frames (rather than
// reusing offset 0, as an earlier version did) keeps a nested collapsed
// loop on the same Thread — e.g. inside a serialized inner region — from
// clobbering the outer loop's live trips/ix; growing reallocates without
// copying, because outer frames keep their slices into the old array.
func (t *Thread) nestFrame(depth int) (trips, ix []int64, base int) {
	base = t.nestBase
	need := base + 2*depth
	if cap(t.nestScratch) < need {
		t.nestScratch = make([]int64, need)
	}
	t.nestScratch = t.nestScratch[:cap(t.nestScratch)]
	trips = t.nestScratch[base : base+depth]
	ix = t.nestScratch[base+depth : need]
	t.nestBase = need
	return trips, ix, base
}

// ForChunks is For with chunk granularity: the body receives whole chunk
// ranges [lo, hi) instead of single iterations, letting hot loops run as
// tight range loops without a closure call per iteration. This matches the
// code a C compiler generates for `omp for` (the loop body inlined into the
// per-chunk bound loop) and is the recommended form for very fine-grained
// iterations.
func (t *Thread) ForChunks(n int, body func(lo, hi int), opts ...ForOption) {
	cfg := buildForConfig(opts)
	if cfg.ordered {
		// Matching splitOpts' loud-failure convention: silently dropping
		// the clause would let out-of-order chunk bodies masquerade as an
		// ordered loop.
		panic("gomp: ForChunks cannot honour the ordered clause (ordered requires per-iteration granularity); use ForOrdered")
	}
	trip := int64(n)

	if t.team == nil {
		if trip > 0 {
			body(0, n)
		}
		return
	}
	ls := t.beginLoop(cfg.sched, trip, false)
	for {
		chunk, ok := t.nextChunk(&ls)
		if !ok {
			break
		}
		body(int(chunk.Begin), int(chunk.End))
	}
	t.endLoop(&ls, cfg.nowait)
}

// OrderedCtx is the per-iteration handle for ordered regions inside a
// ForOrdered loop. The loop re-arms one recycled ctx per thread, so the
// handle must not be retained past the iteration's body.
type OrderedCtx struct {
	e        *kmp.WSEntry
	tm       *kmp.Team
	k        int64
	consumed bool
}

// arm re-points the recycled ctx at iteration k of the construct.
func (o *OrderedCtx) arm(e *kmp.WSEntry, tm *kmp.Team, k int64) {
	o.e, o.tm, o.k, o.consumed = e, tm, k, false
}

// Do executes fn as the iteration's ordered region: regions run in exact
// iteration order across the team. At most one Do per iteration. When the
// region has been cancelled the turn wait gives up and fn is skipped (the
// thread is on its way to the region-end barrier anyway).
func (o *OrderedCtx) Do(fn func()) {
	if o.consumed {
		panic("core: multiple Ordered regions in one iteration")
	}
	o.consumed = true
	if o.e == nil { // sequential
		fn()
		return
	}
	if !o.e.WaitOrderedTurn(o.k, o.tm) {
		return // cancelled while waiting
	}
	fn()
	o.e.FinishOrdered(o.k)
}

// ForOrdered is For with the ordered clause: the body receives an OrderedCtx
// whose Do runs in iteration order. Iterations that skip Do still retire
// their ordered slot when the body returns (conservatively, in order), so a
// data-dependent ordered region cannot deadlock the loop.
func (t *Thread) ForOrdered(n int, body func(i int, ord *OrderedCtx), opts ...ForOption) {
	cfg := buildForConfig(opts)
	cfg.ordered = true
	trip := int64(n)

	// The recycled ctx is saved and restored across the loop so an ordered
	// loop nested inside another's body on the same Thread (the serialized
	// inner-region case nestFrame also guards against) cannot clobber the
	// outer iteration's live ctx state.
	ord := &t.ordScratch
	saved := *ord
	if t.team == nil {
		for k := int64(0); k < trip; k++ {
			ord.arm(nil, nil, k)
			body(int(k), ord)
		}
		*ord = saved
		return
	}
	// The ordered turn counter is shared state, so an ordered loop takes a
	// ring entry whatever its schedule.
	ls := t.beginLoop(cfg.sched, trip, true)
	e := ls.e
	t.runChunks(&ls, func(k int64) {
		ord.arm(e, t.team, k)
		body(int(k), ord)
		if ord.consumed {
			return
		}
		// The iteration executed no ordered region; release its turn so
		// successors may proceed — unless cancellation already broke the
		// turn chain, in which case every waiter gives up on its own.
		if e.WaitOrderedTurn(k, t.team) {
			e.FinishOrdered(k)
		}
	}, true)
	t.endLoop(&ls, cfg.nowait)
	*ord = saved
}

// loopShare is one thread's handle on a worksharing loop: the resolved
// schedule, where its chunks come from, and the ring entry of a loop that
// needs shared construct state. A static loop computes its chunks with
// sched.StaticChunk from the trip count, team size and thread number alone
// (libomp's __kmpc_for_static_init), so unless it is ordered or doacross
// it claims no ring entry at all; the other kinds draw chunks from the
// entry's shared dispenser.
type loopShare struct {
	resolved icv.Schedule
	trip     int64
	c        int64           // next static chunk index
	s        sched.Scheduler // shared dispenser; nil for static schedules
	seq      int64
	e        *kmp.WSEntry // nil unless the loop needs shared state
}

// beginLoop opens a worksharing loop of trip iterations on the thread's
// team, resolving schedule(runtime) against the value the team was forked
// with so that every member takes the same path. entry requests a ring
// entry even for a static schedule (ordered turns, doacross flags).
func (t *Thread) beginLoop(s icv.Schedule, trip int64, entry bool) loopShare {
	ls := loopShare{resolved: sched.Resolve(s, t.team.RunSched()), trip: trip}
	static := sched.Static(ls.resolved)
	if entry || !static {
		ls.seq, ls.e = t.construct()
	}
	if !static {
		ls.s = ls.e.LoopSched(ls.resolved, trip, t.team.N())
	}
	return ls
}

// nextChunk returns the thread's next chunk of the loop, or ok=false when
// it has none left or the region has been cancelled: every chunk boundary
// is a cancellation point. Each chunk handed out is one EvLoopChunk event.
func (t *Thread) nextChunk(ls *loopShare) (sched.Chunk, bool) {
	if t.team.Cancelled() {
		return sched.Chunk{}, false
	}
	var chunk sched.Chunk
	var ok bool
	if ls.s != nil {
		chunk, ok = ls.s.Next(t.tid)
	} else {
		chunk, ok = sched.StaticChunk(ls.resolved, ls.trip, t.team.N(), t.tid, ls.c)
		ls.c++
	}
	if ok && trace.Enabled() {
		trace.Emit(trace.EvLoopChunk, t.GlobalID(), chunk.Len())
	}
	return chunk, ok
}

// endLoop takes the loop's implicit barrier unless nowait, and retires its
// ring entry, if it claimed one.
func (t *Thread) endLoop(ls *loopShare, nowait bool) {
	if !nowait {
		t.Barrier()
	}
	if ls.e != nil {
		t.team.Retire(ls.seq, ls.e)
	}
}

// runChunks runs this thread's chunks of the loop, invoking body per
// iteration. Cancellation is polled before each chunk and, with pollEach,
// between iterations too: an ordered or doacross iteration can park on its
// turn or sink, so a cancelling sibling must be noticed before entering
// the next wait.
func (t *Thread) runChunks(ls *loopShare, body func(int64), pollEach bool) {
	for {
		chunk, ok := t.nextChunk(ls)
		if !ok {
			return
		}
		for k := chunk.Begin; k < chunk.End; k++ {
			if pollEach && k > chunk.Begin && t.team.Cancelled() {
				return
			}
			body(k)
		}
	}
}

// ParallelFor is the combined `omp parallel for` construct.
func (r *Runtime) ParallelFor(n int, body func(i int, t *Thread), opts ...any) {
	parOpts, forOpts := splitOpts(opts)
	r.Parallel(func(t *Thread) {
		t.For(n, func(i int) { body(i, t) }, forOpts...)
	}, parOpts...)
}

// splitOpts separates mixed ParOption/ForOption lists for the combined
// constructs; anything else panics loudly at the call site, naming the
// offending argument and its type so the bad value is easy to find.
func splitOpts(opts []any) ([]ParOption, []ForOption) {
	var ps []ParOption
	var fs []ForOption
	for i, o := range opts {
		switch v := o.(type) {
		case ParOption:
			ps = append(ps, v)
		case ForOption:
			fs = append(fs, v)
		default:
			panic(fmt.Sprintf("gomp: option %d has type %T; combined constructs accept only gomp.ParOption (NumThreads, If) or gomp.ForOption (Schedule, NoWait) values", i, o))
		}
	}
	return ps, fs
}
