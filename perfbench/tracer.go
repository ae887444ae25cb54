package main

import (
	"sync/atomic"
	"time"

	gomp "repro"
	"repro/internal/core"
)

// The traced-run collector. It installs itself through gomp.SetTraceHandler
// and writes every runtime event into a preallocated buffer owned by the
// emitting global thread id. A worker's GTID is emitted by one goroutine
// only, so its buffer cursor is uncontended; GTID 0 is shared by every
// top-level master (all serving tenants fork as GTID 0), so each buffer
// reserves its slots with an atomic add instead of a lock. The mutex-guarded
// trace.Recorder would serialise exactly the forks and barriers whose spans
// this collector times.

type event struct {
	t   int64 // nanoseconds since the collector's base time
	arg int32 // the record's Arg (team size, chunk length, priority)
	ev  uint8
}

type gtidBuf struct {
	n   atomic.Int64
	evs []event
	_   [64]byte // keep neighbouring cursors off one cache line
}

type collector struct {
	base       time.Time
	bufs       []gtidBuf
	outOfRange atomic.Int64
}

// newCollector preallocates slots buffers of perSlot events each.
func newCollector(slots, perSlot int) *collector {
	c := &collector{bufs: make([]gtidBuf, slots)}
	for i := range c.bufs {
		c.bufs[i].evs = make([]event, perSlot)
	}
	return c
}

func (c *collector) handle(r gomp.TraceRecord) {
	if r.GTID < 0 || r.GTID >= len(c.bufs) {
		c.outOfRange.Add(1)
		return
	}
	b := &c.bufs[r.GTID]
	t := int64(time.Since(c.base))
	if i := b.n.Add(1) - 1; i < int64(len(b.evs)) {
		b.evs[i] = event{t: t, arg: int32(min(r.Arg, 1<<31-1)), ev: uint8(r.Ev)}
	}
}

// start installs the handler. The caller guarantees no region is in flight.
func (c *collector) start() {
	c.base = time.Now()
	gomp.SetTraceHandler(c.handle)
}

// stop removes the handler after quiesce has let every worker retire the
// trailing barrier exits of the last region.
func (c *collector) stop(quiesce func()) {
	quiesce()
	gomp.SetTraceHandler(nil)
}

// fill is the largest fraction of any buffer used so far; the workloads end
// their traced window well before a buffer could overflow.
func (c *collector) fill() float64 {
	worst := 0.0
	for i := range c.bufs {
		worst = max(worst, float64(c.bufs[i].n.Load())/float64(len(c.bufs[i].evs)))
	}
	return worst
}

// traceStats are the counts and span sums rebuilt from the buffers. Span
// totals are sums of exit times minus sums of entry times per GTID, which
// is exact however the shared GTID-0 stream interleaves concurrent masters.
type traceStats struct {
	forks                  int64
	forkJoinNs             int64 // Σ(join − fork)
	teamNs                 int64 // Σ(join − fork)·team size
	barrierEnters          int64
	barrierNs              int64 // Σ(exit − enter) over every thread
	chunks, chunkLen       int64
	taskCreates            int64
	migrated               int64 // Σ_g max(0, runs_g − creates_g)
	dropped, unmatchedSpan int64
}

func (c *collector) stats() traceStats {
	var s traceStats
	s.dropped = c.outOfRange.Load()
	for i := range c.bufs {
		b := &c.bufs[i]
		n := b.n.Load()
		if n > int64(len(b.evs)) {
			s.dropped += n - int64(len(b.evs))
			n = int64(len(b.evs))
		}
		var forks, joins, enters, exits, creates, runs int64
		for _, e := range b.evs[:n] {
			switch gomp.TraceEvent(e.ev) {
			case gomp.TraceRegionFork:
				forks++
				s.forkJoinNs -= e.t
				s.teamNs -= e.t * int64(e.arg)
			case gomp.TraceRegionJoin:
				joins++
				s.forkJoinNs += e.t
				s.teamNs += e.t * int64(e.arg)
			case gomp.TraceBarrierEnter:
				enters++
				s.barrierNs -= e.t
			case gomp.TraceBarrierExit:
				exits++
				s.barrierNs += e.t
			case gomp.TraceLoopChunk:
				s.chunks++
				s.chunkLen += int64(e.arg)
			case gomp.TraceTaskCreate:
				creates++
			case gomp.TraceTaskRun:
				runs++
			}
		}
		s.forks += forks
		s.barrierEnters += enters
		s.taskCreates += creates
		s.migrated += max(0, runs-creates)
		if forks != joins || enters != exits {
			s.unmatchedSpan++
		}
	}
	return s
}

// complete reports whether every span opened in the window was closed and
// no event was lost, so the span sums above are exact.
func (s traceStats) complete() bool { return s.dropped == 0 && s.unmatchedSpan == 0 }

// layerMetrics turns the window's stats into the per-layer trace metrics;
// ops is the number of verified operations the window ran.
func (s traceStats) layerMetrics(ops int64, m map[string]float64) {
	per := func(v int64) float64 { return float64(v) / float64(max(ops, 1)) }
	m["kmp.forks"] = per(s.forks)
	m["barrier.waits"] = per(s.barrierEnters)
	m["sched.chunks"] = per(s.chunks)
	m["task.created"] = per(s.taskCreates)
	if s.forks > 0 {
		m["kmp.fork_join_us"] = float64(s.forkJoinNs) / float64(s.forks) / 1e3
	}
	if s.barrierEnters > 0 {
		m["barrier.wait_us"] = float64(s.barrierNs) / float64(s.barrierEnters) / 1e3
	}
	if s.teamNs > 0 {
		m["barrier.wait_share"] = float64(s.barrierNs) / float64(s.teamNs)
	}
	if s.chunks > 0 {
		m["sched.chunk_len"] = float64(s.chunkLen) / float64(s.chunks)
	}
	if s.taskCreates > 0 {
		m["task.migrated_frac"] = float64(s.migrated) / float64(s.taskCreates)
	}
}

// window is one traced phase: the collector plus the pool counters read
// around it. ops counts the verified operations the window ran.
type window struct {
	c                         *collector
	rt                        *core.Runtime
	shrunk0, serial0, steals0 int64
	ops                       int64
}

// newWindow sizes the buffers for a team of n: GTID 0 is every top-level
// master, and workers get small ids from their pool's counter.
func newWindow(n int, rt *core.Runtime) *window {
	w := &window{c: newCollector(2*n+6, 1<<18), rt: rt}
	w.shrunk0, w.serial0 = rt.Pool().AdmissionStats()
	w.steals0 = rt.Pool().ShardSteals()
	return w
}

// run repeats pass, which returns the operations it verified, until the
// budget is spent or a buffer is half full; it runs pass at least once.
// pass installs and removes the handler itself around the calls it traces.
func (w *window) run(budget time.Duration, pass func() int64) {
	deadline := time.Now().Add(budget)
	for w.ops == 0 || (time.Now().Before(deadline) && w.c.fill() < 0.5) {
		w.ops += pass()
	}
}

// finish rebuilds the window's per-layer metrics into r.
func (w *window) finish(r *run) {
	st := w.c.stats()
	r.require(st.complete(), "traced window lost or unmatched events: dropped %d, unmatched GTIDs %d",
		st.dropped, st.unmatchedSpan)
	st.layerMetrics(w.ops, r.m)
	shrunk, serial := w.rt.Pool().AdmissionStats()
	steals := w.rt.Pool().ShardSteals()
	if st.forks > 0 {
		per1k := func(v int64) float64 { return 1000 * float64(v) / float64(st.forks) }
		r.m["kmp.admit_shrunk"] = per1k(shrunk - w.shrunk0)
		r.m["kmp.admit_serialized"] = per1k(serial - w.serial0)
		r.m["kmp.shard_steals"] = per1k(steals - w.steals0)
	}
}
