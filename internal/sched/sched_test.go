package sched

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/icv"
)

// staticDrain collects every thread's chunks of a static schedule from the
// pure StaticChunk function.
func staticDrain(s icv.Schedule, trip int64, nthreads int) map[int][]Chunk {
	out := make(map[int][]Chunk)
	for tid := 0; tid < nthreads; tid++ {
		for c := int64(0); ; c++ {
			ch, ok := StaticChunk(s, trip, nthreads, tid, c)
			if !ok {
				break
			}
			out[tid] = append(out[tid], ch)
		}
	}
	return out
}

// drainConcurrent pulls chunks from n goroutines simultaneously, as a real
// team would (required for dynamic/guided to exercise contention).
func drainConcurrent(s Scheduler, nthreads int) map[int][]Chunk {
	out := make([][]Chunk, nthreads)
	var wg sync.WaitGroup
	for tid := 0; tid < nthreads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				c, ok := s.Next(tid)
				if !ok {
					return
				}
				out[tid] = append(out[tid], c)
			}
		}(tid)
	}
	wg.Wait()
	m := make(map[int][]Chunk)
	for tid, cs := range out {
		if len(cs) > 0 {
			m[tid] = cs
		}
	}
	return m
}

// checkPartition asserts the chunks exactly tile [0, trip): full coverage,
// no overlap — the fundamental worksharing contract.
func checkPartition(t *testing.T, chunks map[int][]Chunk, trip int64) {
	t.Helper()
	seen := make([]int, trip)
	for tid, cs := range chunks {
		for _, c := range cs {
			if c.Begin < 0 || c.End > trip || c.Empty() {
				t.Fatalf("tid %d: chunk %+v out of range [0,%d)", tid, c, trip)
			}
			for i := c.Begin; i < c.End; i++ {
				seen[i]++
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("iteration %d assigned %d times", i, n)
		}
	}
}

// staticCases are the schedules StaticChunk computes; dispenserCases are
// the ones New builds a shared Scheduler for.
func staticCases() []icv.Schedule {
	return []icv.Schedule{
		{Kind: icv.StaticSched},
		{Kind: icv.StaticSched, Chunk: 1},
		{Kind: icv.StaticSched, Chunk: 3},
		{Kind: icv.StaticSched, Chunk: 100},
		{Kind: icv.AutoSched},
	}
}

func dispenserCases() []icv.Schedule {
	return []icv.Schedule{
		{Kind: icv.DynamicSched},
		{Kind: icv.DynamicSched, Chunk: 7},
		{Kind: icv.GuidedSched},
		{Kind: icv.GuidedSched, Chunk: 4},
		{Kind: icv.StealSched},
		{Kind: icv.StealSched, Chunk: 4},
	}
}

// chunksFor collects one loop's chunks under s: computed for static
// schedules, drawn concurrently from a fresh dispenser otherwise.
func chunksFor(s icv.Schedule, trip int64, nthreads int) map[int][]Chunk {
	if Static(s) {
		return staticDrain(s, trip, nthreads)
	}
	return drainConcurrent(New(s, trip, nthreads), nthreads)
}

func TestAllSchedulesPartitionIterationSpace(t *testing.T) {
	for _, s := range append(staticCases(), dispenserCases()...) {
		for _, trip := range []int64{0, 1, 2, 7, 64, 1000} {
			for _, n := range []int{1, 2, 3, 8} {
				chunks := chunksFor(s, trip, n)
				var total int64
				for _, cs := range chunks {
					for _, c := range cs {
						total += c.Len()
					}
				}
				if total != trip {
					t.Errorf("%v trip=%d n=%d: covered %d iterations", s, trip, n, total)
					continue
				}
				checkPartition(t, chunks, trip)
			}
		}
	}
}

func TestStaticBlockShape(t *testing.T) {
	// 10 iterations over 4 threads: blocks of 3,3,2,2 starting 0,3,6,8.
	wantBegin := []int64{0, 3, 6, 8}
	wantEnd := []int64{3, 6, 8, 10}
	for tid := 0; tid < 4; tid++ {
		b, e := StaticBlockBounds(10, 4, tid)
		if b != wantBegin[tid] || e != wantEnd[tid] {
			t.Errorf("tid %d: [%d,%d), want [%d,%d)", tid, b, e, wantBegin[tid], wantEnd[tid])
		}
	}
}

func TestStaticBlockSingleChunkPerThread(t *testing.T) {
	chunks := staticDrain(icv.Schedule{Kind: icv.StaticSched}, 100, 8)
	for tid, cs := range chunks {
		if len(cs) != 1 {
			t.Errorf("tid %d: %d chunks, want 1", tid, len(cs))
		}
	}
}

func TestStaticBlockBalance(t *testing.T) {
	// Block sizes must differ by at most one.
	f := func(tripRaw uint16, nRaw uint8) bool {
		trip := int64(tripRaw)
		n := int(nRaw)%16 + 1
		var sizes []int64
		var total int64
		for tid := 0; tid < n; tid++ {
			b, e := StaticBlockBounds(trip, n, tid)
			if e < b {
				return false
			}
			sizes = append(sizes, e-b)
			total += e - b
		}
		if total != trip {
			return false
		}
		lo, hi := sizes[0], sizes[0]
		for _, s := range sizes {
			lo, hi = min(lo, s), max(hi, s)
		}
		return hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStaticChunkedRoundRobin(t *testing.T) {
	// schedule(static,2), 12 iterations, 3 threads:
	// t0: [0,2) [6,8), t1: [2,4) [8,10), t2: [4,6) [10,12)
	chunks := staticDrain(icv.Schedule{Kind: icv.StaticSched, Chunk: 2}, 12, 3)
	want := map[int][]Chunk{
		0: {{0, 2}, {6, 8}},
		1: {{2, 4}, {8, 10}},
		2: {{4, 6}, {10, 12}},
	}
	for tid, cs := range want {
		if len(chunks[tid]) != len(cs) {
			t.Fatalf("tid %d: got %v want %v", tid, chunks[tid], cs)
		}
		for i := range cs {
			if chunks[tid][i] != cs[i] {
				t.Errorf("tid %d chunk %d: got %+v want %+v", tid, i, chunks[tid][i], cs[i])
			}
		}
	}
}

// TestStaticChunkedIsDeterministic: StaticChunk is a pure function, so a
// thread asking for its chunks in any order (or asking twice) gets the same
// chunks as one walking them in sequence — the property that lets every
// team member compute its share without shared state.
func TestStaticChunkedIsDeterministic(t *testing.T) {
	s := icv.Schedule{Kind: icv.StaticSched, Chunk: 5}
	a := staticDrain(s, 137, 4)
	for tid := 0; tid < 4; tid++ {
		for c := len(a[tid]) - 1; c >= 0; c-- {
			got, ok := StaticChunk(s, 137, 4, tid, int64(c))
			if !ok || got != a[tid][c] {
				t.Fatalf("tid %d chunk %d: reverse lookup %+v/%v, sequential %+v", tid, c, got, ok, a[tid][c])
			}
		}
	}
}

func TestDynamicChunkSizes(t *testing.T) {
	s := New(icv.Schedule{Kind: icv.DynamicSched, Chunk: 10}, 35, 2)
	var lens []int64
	for {
		c, ok := s.Next(0)
		if !ok {
			break
		}
		lens = append(lens, c.Len())
	}
	want := []int64{10, 10, 10, 5}
	if len(lens) != len(want) {
		t.Fatalf("chunk lengths %v, want %v", lens, want)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("chunk lengths %v, want %v", lens, want)
		}
	}
}

func TestDynamicDefaultChunkIsOne(t *testing.T) {
	s := New(icv.Schedule{Kind: icv.DynamicSched}, 5, 4)
	c, ok := s.Next(0)
	if !ok || c.Len() != 1 {
		t.Errorf("default dynamic chunk = %+v", c)
	}
}

func TestGuidedChunksDecrease(t *testing.T) {
	s := New(icv.Schedule{Kind: icv.GuidedSched}, 10000, 4)
	var prev int64 = 1 << 62
	count := 0
	for {
		c, ok := s.Next(0)
		if !ok {
			break
		}
		if c.Len() > prev {
			t.Errorf("guided chunk grew: %d after %d", c.Len(), prev)
		}
		prev = c.Len()
		count++
	}
	if count < 10 {
		t.Errorf("guided produced only %d chunks for 10000 iterations", count)
	}
	// First chunk should be remaining/nthreads = 2500.
	s2 := New(icv.Schedule{Kind: icv.GuidedSched}, 10000, 4)
	c, _ := s2.Next(0)
	if c.Len() != 2500 {
		t.Errorf("first guided chunk = %d, want 2500", c.Len())
	}
}

func TestGuidedRespectsMinChunk(t *testing.T) {
	s := New(icv.Schedule{Kind: icv.GuidedSched, Chunk: 64}, 1000, 4)
	for {
		c, ok := s.Next(0)
		if !ok {
			break
		}
		remainingAfter := int64(1000) - c.End
		if c.Len() < 64 && remainingAfter > 0 {
			t.Errorf("guided violated min chunk: %+v", c)
		}
	}
}

func TestResolveRuntime(t *testing.T) {
	icvs := icv.Default()
	icvs.RunSched = icv.Schedule{Kind: icv.GuidedSched, Chunk: 9}
	got := Resolve(icv.Schedule{Kind: icv.RuntimeSched}, icvs.RunSched)
	if got != icvs.RunSched {
		t.Errorf("Resolve(runtime) = %+v", got)
	}
	static := icv.Schedule{Kind: icv.StaticSched, Chunk: 2}
	if Resolve(static, icvs.RunSched) != static {
		t.Error("Resolve must not touch non-runtime schedules")
	}
	// Pathological: run-sched-var itself says runtime; fall back to static.
	icvs.RunSched = icv.Schedule{Kind: icv.RuntimeSched}
	if got := Resolve(icv.Schedule{Kind: icv.RuntimeSched}, icvs.RunSched); got.Kind != icv.StaticSched {
		t.Errorf("self-referential runtime schedule should fall back to static, got %+v", got)
	}
}

func TestLoopTripCount(t *testing.T) {
	cases := []struct {
		loop Loop
		want int64
	}{
		{Loop{0, 10, 1}, 10},
		{Loop{0, 10, 3}, 4},
		{Loop{0, 0, 1}, 0},
		{Loop{5, 3, 1}, 0},
		{Loop{10, 0, -1}, 10},
		{Loop{10, 0, -3}, 4},
		{Loop{0, 10, -1}, 0},
		{Loop{-5, 5, 2}, 5},
	}
	for _, c := range cases {
		if got := c.loop.TripCount(); got != c.want {
			t.Errorf("TripCount(%+v) = %d, want %d", c.loop, got, c.want)
		}
	}
}

func TestLoopIterationMapping(t *testing.T) {
	l := Loop{Begin: 10, End: 0, Step: -3} // 10, 7, 4, 1
	want := []int64{10, 7, 4, 1}
	if l.TripCount() != int64(len(want)) {
		t.Fatalf("trip = %d", l.TripCount())
	}
	for k, w := range want {
		if got := l.Iteration(int64(k)); got != w {
			t.Errorf("Iteration(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestLoopTripCountProperty(t *testing.T) {
	// Property: TripCount agrees with actually running the loop.
	f := func(begin, end int8, stepRaw int8) bool {
		step := int64(stepRaw)
		if step == 0 {
			return true
		}
		l := Loop{int64(begin), int64(end), step}
		var n int64
		if step > 0 {
			for i := l.Begin; i < l.End; i += step {
				n++
			}
		} else {
			for i := l.Begin; i > l.End; i += step {
				n++
			}
		}
		return l.TripCount() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestResetReconfiguresInPlace: after Reset, every scheduler must cover a
// new iteration space exactly as a freshly built one would — the property
// the worksharing ring relies on to keep long regions allocation-free.
func TestResetReconfiguresInPlace(t *testing.T) {
	for _, s := range dispenserCases() {
		sc := New(s, 64, 4)
		drainConcurrent(sc, 4) // exhaust the first loop
		for _, shape := range []struct {
			trip int64
			n    int
		}{{100, 4}, {7, 2}, {100, 8}, {0, 3}} {
			if !sc.Reset(shape.trip, shape.n) {
				t.Fatalf("%v: Reset(%d, %d) refused", s, shape.trip, shape.n)
			}
			chunks := drainConcurrent(sc, shape.n)
			var total int64
			for _, cs := range chunks {
				for _, c := range cs {
					total += c.Len()
				}
			}
			if total != shape.trip {
				t.Errorf("%v after Reset(%d, %d): covered %d iterations",
					s, shape.trip, shape.n, total)
				continue
			}
			checkPartition(t, chunks, shape.trip)
		}
	}
}

// TestResetMatchesFresh: a reset scheduler must hand out the same chunks as
// a new scheduler of identical shape (determinism across reuse).
func TestResetMatchesFresh(t *testing.T) {
	for _, s := range dispenserCases() {
		reused := New(s, 33, 3)
		drainConcurrent(reused, 3)
		if !reused.Reset(50, 2) {
			t.Fatalf("%v: Reset refused", s)
		}
		fresh := New(s, 50, 2)
		// Drain single-threaded through tid 0 then tid 1 so the hand-out
		// order is deterministic for both schedulers.
		for tid := 0; tid < 2; tid++ {
			for {
				got, okGot := reused.Next(tid)
				want, okWant := fresh.Next(tid)
				if okGot != okWant || got != want {
					t.Fatalf("%v tid %d: reused gave %+v/%v, fresh %+v/%v",
						s, tid, got, okGot, want, okWant)
				}
				if !okGot {
					break
				}
			}
		}
	}
}

func TestZeroTripLoops(t *testing.T) {
	for _, s := range append(staticCases(), dispenserCases()...) {
		for tid, cs := range chunksFor(s, 0, 4) {
			t.Errorf("%v: zero-trip loop gave tid %d chunks %+v", s, tid, cs)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(icv.Schedule{Kind: icv.StaticSched}, 10, 0) },
		func() { New(icv.Schedule{Kind: icv.RuntimeSched}, 10, 2) },
		// Static schedules are computed by StaticChunk, never dispensed.
		func() { New(icv.Schedule{Kind: icv.StaticSched}, 10, 2) },
		func() { New(icv.Schedule{Kind: icv.AutoSched, Chunk: 4}, 10, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
