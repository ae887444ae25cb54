// Package task implements OpenMP explicit tasking: the task construct,
// taskwait, taskgroup, task dependencies (the depend clause) and task
// priorities. It is the substrate the gomp runtime's Task API sits on.
//
// Each team owns a Pool with one Chase–Lev work-stealing deque per thread
// (chaselev.go) plus a shared priority queue. A thread pushes tasks it
// creates onto the bottom of its own deque (LIFO: best locality, mirrors
// libomp), and steals from the top of victims' deques (FIFO: steals the
// oldest, largest-granularity work). Tasks spawned with a positive priority
// go to the shared priority buckets instead, which every thread consults
// before its own deque. Threads execute tasks at task scheduling points —
// taskwait, taskgroup end, taskyield, and team barriers — exactly the
// points the OpenMP spec designates.
//
// The spawn/complete hot path is allocation-free in steady state: Units and
// dephash states are recycled through per-thread free lists with an epoch
// protocol proving no use-after-recycle (recycle.go), and a completing
// dependent task publishes all of its newly-ready successors with a single
// counter update, keeping one for itself to run inline (dep.go).
//
// Tasks form a tree: every task records its parent, and a parent's taskwait
// drains until its live-children count hits zero. Taskgroups count all
// descendants spawned within the group. Tasks with depend clauses are held
// off every queue until their predecessors complete (see dep.go).
package task

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Unit is one explicit task instance. The task body receives its Unit so
// that nested Spawn calls attach children to the correct parent. Units are
// recycled (see recycle.go): holding a *Unit across its completion is only
// safe through a Handle.
type Unit struct {
	fn     func(*Unit)
	user   any // embedding-layer payload run by the pool's ExecFunc when fn is nil
	parent *Unit
	group  *Group
	// life is the incarnation's reference count: 1 for the task itself
	// (dropped when its body completes) plus 1 per live child. Whoever
	// drops it to zero recycles the Unit. life > 1 therefore means "has
	// unfinished children", which is what taskwait polls.
	life     atomic.Int64
	pool     *Pool
	tid      int // executing thread, set at execution time
	lo, hi   int // iteration bounds for loop-form (taskloop chunk) tasks
	priority int32
	final    bool
	hasDeps  bool
	loop     bool
	done     atomic.Bool
	// epoch is the recycling generation: even while live, odd once retired;
	// retire and reuse both bump it (see recycle.go).
	epoch atomic.Uint64
	// dep is the dependency node: predecessor count and successor list.
	// Only touched for tasks spawned with depend clauses.
	dep depNode
	// depmap is the dephash ordering this task's children; lazily created
	// when a child is spawned with depend clauses (see dep.go).
	depmap *depMap
}

// Pool returns the pool this task belongs to.
func (u *Unit) Pool() *Pool { return u.pool }

// Tid returns the id of the thread currently executing this task.
func (u *Unit) Tid() int { return u.tid }

// Final reports whether this task was spawned final: all of its descendant
// tasks are final and undeferred (the final clause, OpenMP 5.2 §12.5.3).
func (u *Unit) Final() bool { return u != nil && u.final }

// Group returns the taskgroup the task was spawned into, or nil.
func (u *Unit) Group() *Group { return u.group }

// User returns the embedding-layer payload passed in SpawnOpts.User.
func (u *Unit) User() any { return u.user }

// Loop reports whether this is a loop-form task; Lo and Hi are its bounds.
func (u *Unit) Loop() bool { return u.loop }

// Lo returns the first iteration of a loop-form task.
func (u *Unit) Lo() int { return u.lo }

// Hi returns the past-the-end iteration of a loop-form task.
func (u *Unit) Hi() int { return u.hi }

// Handle names one incarnation of a Unit: the pointer plus the epoch it was
// spawned under. It stays valid after the Unit is recycled — a recycled
// incarnation reads as done.
type Handle struct {
	u     *Unit
	epoch uint64
}

// Done reports whether the task's body has completed. An epoch mismatch
// means the incarnation was retired and recycled, which only happens after
// completion.
func (h Handle) Done() bool {
	return h.u == nil || h.u.epoch.Load() != h.epoch || h.u.done.Load()
}

// ExecFunc executes a Unit spawned with fn == nil; the embedding layer
// installs one (SetExec) to run closure-free payloads carried in
// SpawnOpts.User.
type ExecFunc func(p *Pool, u *Unit, tid int)

// Group is a taskgroup: it completes when every task spawned into it (at any
// nesting depth) has finished.
type Group struct {
	count atomic.Int64
}

// NewRoot creates a sentinel Unit representing an implicit task. It is never
// executed — its self-reference is never dropped, so it is never recycled —
// and exists so that explicit tasks spawned by an implicit task have a
// parent whose children taskwait can drain, and a dephash their depend
// clauses register in.
func NewRoot(pool *Pool) *Unit {
	u := &Unit{pool: pool}
	u.life.Store(1)
	return u
}

// PrioLevels is the number of distinct priority buckets; priorities at or
// above PrioLevels-1 share the top bucket (the spec makes priority a hint,
// not a total order).
const PrioLevels = 8

// Pool schedules tasks for one team of n threads.
type Pool struct {
	n           int
	exec        ExecFunc
	onPanic     func(any)
	owner       any
	deques      []deque
	caches      []unitCache
	prio        prioQueue
	outstanding atomic.Int64 // spawned (incl. dependency-blocked) + executing tasks
	queued      atomic.Int64 // tasks sitting in a deque or priority bucket
	gtids       []int        // team-global thread ids for trace emission (optional)
}

// NewPool creates a task pool for a team of n threads.
func NewPool(n int) *Pool {
	if n < 1 {
		panic("task: pool needs at least one thread")
	}
	p := &Pool{n: n, deques: make([]deque, n), caches: make([]unitCache, n)}
	for i := range p.deques {
		p.deques[i].init()
	}
	return p
}

// N returns the team size the pool serves.
func (p *Pool) N() int { return p.n }

// SetGTIDs supplies the team's global thread ids so trace events carry the
// runtime-wide id rather than the team-local one. The slice is retained.
func (p *Pool) SetGTIDs(gtids []int) { p.gtids = gtids }

// SetExec installs the executor for Units spawned with a nil fn. Must be
// set before any such Unit is spawned.
func (p *Pool) SetExec(fn ExecFunc) { p.exec = fn }

// SetOnPanic installs the handler that receives the value recovered from a
// panicking task body. The unit's accounting then completes as if the body
// had returned, so no taskwait, taskgroup or barrier waiting on it hangs;
// the embedding layer records the value and rethrows it at the region's
// join. Without a handler the panic propagates out of the scheduling point.
func (p *Pool) SetOnPanic(fn func(any)) { p.onPanic = fn }

// SetOwner attaches the embedding layer's owner (the kmp team); the
// executor reads it back through Owner.
func (p *Pool) SetOwner(o any) { p.owner = o }

// Owner returns the value set by SetOwner.
func (p *Pool) Owner() any { return p.owner }

func (p *Pool) gtid(tid int) int {
	if tid < len(p.gtids) {
		return p.gtids[tid]
	}
	return tid
}

// Outstanding returns the number of tasks spawned-but-unfinished, including
// tasks still waiting on dependencies. Zero means the pool is quiescent *at
// this instant*; callers coordinating shutdown must ensure no thread can
// still spawn (the barrier protocol does).
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

// SpawnOpts carries the task-creation clauses that affect scheduling.
type SpawnOpts struct {
	// Priority is the priority clause value; tasks with higher values are
	// preferred at scheduling points. 0 is the default.
	Priority int
	// Deps is the task's depend clause list; the task stays off every
	// queue until all predecessors complete. The slice is consumed during
	// the Spawn call and may be reused by the caller afterwards.
	Deps []Dep
	// Final marks the task final: its descendants are final too and the
	// embedding layer runs them undeferred.
	Final bool
	// User is an embedding-layer payload for tasks spawned with a nil fn;
	// the pool's ExecFunc interprets it. Pointer-shaped values (funcs,
	// pointers) ride in the interface without allocating.
	User any
	// Loop marks a loop-form task iterating [Lo, Hi); the ExecFunc runs
	// the body over the bounds, so taskloop chunks need no per-chunk
	// closure.
	Loop   bool
	Lo, Hi int
}

// Spawn enqueues fn as a child of parent (nil for an implicit-task parent)
// in group (nil for none), pushed on thread tid's deque.
func (p *Pool) Spawn(tid int, parent *Unit, group *Group, fn func(*Unit)) Handle {
	return p.SpawnOpt(tid, parent, group, SpawnOpts{}, fn)
}

// SpawnOpt is Spawn with scheduling options: priority, final, depend
// clauses, and the closure-free payload fields. A task with dependencies
// becomes ready — and visible to RunOne — only when its predecessor count
// hits zero; until then it is counted in Outstanding but sits in no queue.
// Dependencies order siblings: parent must be non-nil when Deps is.
func (p *Pool) SpawnOpt(tid int, parent *Unit, group *Group, o SpawnOpts, fn func(*Unit)) Handle {
	u := p.allocUnit(tid)
	u.fn = fn
	u.user = o.User
	u.parent = parent
	u.group = group
	u.priority = int32(o.Priority)
	u.final = o.Final
	u.loop = o.Loop
	u.lo, u.hi = o.Lo, o.Hi
	// The epoch must be read before the task is published: it can run and
	// be recycled the instant it reaches a queue.
	h := Handle{u: u, epoch: u.epoch.Load()}
	if parent != nil {
		parent.life.Add(1)
	}
	if group != nil {
		group.count.Add(1)
	}
	p.outstanding.Add(1)
	if len(o.Deps) == 0 {
		p.ready(tid, u)
		p.throttle(tid)
		return h
	}
	if parent == nil {
		panic("task: depend clauses require a parent task (dependencies order siblings)")
	}
	u.hasDeps = true
	// Registration guard: the +1 keeps concurrent predecessor completions
	// from releasing the task while its edges are still being added.
	u.dep.npred.Store(1)
	p.register(tid, parent, u, o.Deps)
	if u.dep.npred.Add(-1) == 0 {
		p.ready(tid, u)
	}
	p.throttle(tid)
	return h
}

// RunInline executes fn synchronously as an included task on the spawning
// thread — the undeferred path for final tasks, false if clauses, and
// serialised teams. Parent/group accounting matches Spawn so taskwait and
// taskgroup semantics are preserved.
func (p *Pool) RunInline(tid int, parent *Unit, group *Group, o SpawnOpts, fn func(*Unit)) {
	u := p.allocUnit(tid)
	u.fn = fn
	u.user = o.User
	u.parent = parent
	u.group = group
	u.priority = int32(o.Priority)
	u.final = o.Final
	u.loop = o.Loop
	u.lo, u.hi = o.Lo, o.Hi
	if parent != nil {
		parent.life.Add(1)
	}
	if group != nil {
		group.count.Add(1)
	}
	p.outstanding.Add(1)
	p.execute(tid, u)
}

// spawnThrottle bounds the spawned-but-unfinished backlog: past it, task
// generation becomes a task scheduling point and the spawner executes its
// own newest ready task before returning — libomp's task-throttling
// behaviour when a thread's task deque fills (the spec designates
// generation as a scheduling point, and LIFO keeps the recursion depth at
// the task-tree depth, not the task count). This keeps a spawn storm's
// working set near the bound, so the free lists absorb it and burst
// spawning stays allocation-free; a dependence chain drains the same way,
// because the chain head sits in the spawner's deque and the inline-chain
// release runs the rest.
const spawnThrottle = 256

// throttle is the generation-point scheduling check; called after a
// deferred spawn publishes.
func (p *Pool) throttle(tid int) {
	if p.outstanding.Load() <= spawnThrottle {
		return
	}
	if v := p.deques[tid].popBottom(); v != nil {
		p.queued.Add(-1)
		p.execute(tid, v)
	}
}

// ready places a task whose dependencies (if any) are satisfied where
// RunOne will find it: the shared priority buckets for prioritised tasks,
// thread tid's own deque otherwise.
func (p *Pool) ready(tid int, u *Unit) {
	if u.hasDeps && trace.Enabled() {
		trace.Emit(trace.EvTaskReady, p.gtid(tid), int64(u.priority))
	}
	p.queued.Add(1)
	if u.priority > 0 {
		p.prio.push(u)
		return
	}
	p.deques[tid].pushBottom(u)
}

// RunOne executes one ready task on thread tid if any is available: first
// from the shared priority buckets (highest priority first), then from
// tid's own deque (newest first), then by stealing the oldest task from
// another thread. It reports whether a task was executed. The empty case is
// one atomic load — cheap enough that barrier wait loops poll it.
func (p *Pool) RunOne(tid int) bool {
	if p.queued.Load() == 0 {
		return false
	}
	u := p.prio.take()
	if u == nil {
		u = p.deques[tid].popBottom()
	}
	if u == nil {
		// Steal round-robin starting after tid so victims differ
		// between threads.
		for k := 1; k < p.n; k++ {
			if u = p.deques[(tid+k)%p.n].stealTop(); u != nil {
				break
			}
		}
	}
	if u == nil {
		return false
	}
	p.queued.Add(-1)
	p.execute(tid, u)
	return true
}

// execute runs a chain of task bodies: the unit it was handed, then — for
// dependent tasks — the successor releaseSuccessors kept back for inline
// execution, and so on down the chain. Each completed unit releases its
// other successors in one batch, retires its counters bottom-up, and is
// recycled once its last child (possibly itself) lets go.
func (p *Pool) execute(tid int, u *Unit) {
	for u != nil {
		u.tid = tid
		p.run(tid, u)
		var next *Unit
		if u.hasDeps {
			next = p.releaseSuccessors(tid, u)
		}
		u.done.Store(true)
		// parent/group must be read out before free resets the fields.
		parent := u.parent
		group := u.group
		if u.life.Add(-1) == 0 {
			p.free(tid, u)
		}
		if parent != nil && parent.life.Add(-1) == 0 {
			p.free(tid, parent)
		}
		if group != nil {
			group.count.Add(-1)
		}
		p.outstanding.Add(-1)
		u = next
	}
}

// run executes u's body. It is the one boundary every task body passes
// through (deferred, undeferred and barrier-wait execution alike), so a
// panic is recovered here and handed to the pool's handler; the defer sits
// in this small helper rather than in execute's loop so it stays
// open-coded.
func (p *Pool) run(tid int, u *Unit) {
	defer p.recoverBody()
	if u.fn != nil {
		u.fn(u)
	} else {
		p.exec(p, u, tid)
	}
}

// recoverBody is run's deferred recover.
func (p *Pool) recoverBody() {
	if r := recover(); r != nil {
		if p.onPanic == nil {
			panic(r)
		}
		p.onPanic(r)
	}
}

// WaitChildren is taskwait: thread tid executes ready tasks until parent's
// direct children have all completed (life back to the task's own single
// self-reference). Descendant tasks beyond direct children are not waited
// for, matching the spec.
func (p *Pool) WaitChildren(tid int, parent *Unit) {
	if parent == nil {
		// Implicit task with no tracked children: taskwait degenerates
		// to draining the whole pool, the conservative interpretation.
		p.Quiesce(tid)
		return
	}
	for parent.life.Load() > 1 {
		if !p.RunOne(tid) {
			runtime.Gosched()
		}
	}
}

// WaitHandle executes ready tasks until h's task has completed — the
// undeferred path for a task with depend clauses: its predecessors must run
// (somewhere) first, so the encountering thread helps until it is done.
func (p *Pool) WaitHandle(tid int, h Handle) {
	for !h.Done() {
		if !p.RunOne(tid) {
			runtime.Gosched()
		}
	}
}

// WaitGroup is the end of a taskgroup region: execute until every task
// spawned into g (transitively) has completed.
func (p *Pool) WaitGroup(tid int, g *Group) {
	for g.count.Load() > 0 {
		if !p.RunOne(tid) {
			runtime.Gosched()
		}
	}
}

// Quiesce executes tasks until the pool is momentarily empty. Team barriers
// call this before arriving so that "all tasks complete before the barrier
// releases" holds (see the barrier protocol in internal/kmp). Tasks blocked
// on dependencies count as outstanding, so Quiesce cannot return while a
// dependency chain is still draining on other threads.
func (p *Pool) Quiesce(tid int) {
	for p.outstanding.Load() > 0 {
		if !p.RunOne(tid) {
			runtime.Gosched()
		}
	}
}

// prioQueue is the shared priority store: PrioLevels FIFO buckets, each
// behind its own small mutex with its own emptiness counter, plus a global
// counter so the common no-priority case costs one load. take locks only
// the bucket it pops from — never the whole queue. Each bucket pops via a
// head index (reset when the bucket drains) so dequeueing is O(1), not a
// slice shift.
type prioQueue struct {
	count   atomic.Int64
	buckets [PrioLevels]prioBucket
}

type prioBucket struct {
	n     atomic.Int64
	mu    sync.Mutex
	items []*Unit
	head  int
	_     [24]byte // keep neighbouring buckets off this cache line
}

// push appends u to its priority's bucket (clamped to the top level).
func (q *prioQueue) push(u *Unit) {
	b := int(u.priority)
	if b >= PrioLevels {
		b = PrioLevels - 1
	}
	bk := &q.buckets[b]
	bk.mu.Lock()
	bk.items = append(bk.items, u)
	bk.mu.Unlock()
	bk.n.Add(1)
	q.count.Add(1)
}

// take removes and returns the oldest task of the highest non-empty bucket,
// or nil when every bucket is empty. Empty buckets are skipped on their
// atomic counter alone; only the selected bucket's mutex is taken.
func (q *prioQueue) take() *Unit {
	if q.count.Load() == 0 {
		return nil
	}
	for b := PrioLevels - 1; b >= 0; b-- {
		bk := &q.buckets[b]
		if bk.n.Load() == 0 {
			continue
		}
		bk.mu.Lock()
		if bk.head == len(bk.items) {
			bk.mu.Unlock()
			continue
		}
		u := bk.items[bk.head]
		bk.items[bk.head] = nil
		bk.head++
		if bk.head == len(bk.items) {
			bk.items = bk.items[:0]
			bk.head = 0
		}
		bk.mu.Unlock()
		bk.n.Add(-1)
		q.count.Add(-1)
		return u
	}
	return nil
}
