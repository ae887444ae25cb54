package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/icv"
	"repro/internal/reduction"
)

// serving is a closed loop of tenant goroutines on one runtime. Each
// tenant fires parallel-for-reduction regions back to back, with team size
// nproc and a trip count drawn from its seeded stream, under
// thread-limit-var = nproc and dyn-var off (the spec default). With nproc
// tenants the forks contend for the thread budget, the hot-team shards and
// the workers. Half of the measured time runs one tenant alone on the same
// runtime, where no fork contends: speedup is the nproc-tenant throughput
// over that single-tenant throughput.
//
// The traffic is the repository's own: trip counts are uniform over 16..64
// as in the multi-tenant storm test (internal/core/storm_test.go), and each
// tenant runs servingWarmup untimed regions first, the warm-up count of
// cmd/servebench.

const (
	servingMinTrip, servingMaxTrip = 16, 64
	servingWarmup                  = 50 // untimed regions per tenant in set-up
	servingRounds                  = 4  // alternations of the nproc-tenant and one-tenant phases
)

// tenant is one client: its trip-count stream and latency histogram.
type tenant struct {
	rng        *rand.Rand
	lat        *hist
	regions    int64 // every region fired, warm-up included
	mismatches int64 // regions whose sum was wrong
}

// region is one request: a worksharing loop summing 0..trip-1.
func region(rt *core.Runtime, trip int) int64 {
	var out int64
	rt.Parallel(func(t *core.Thread) {
		s := core.ReduceFor(t, trip, reduction.Sum, func(j int, acc int64) int64 { return acc + int64(j) })
		if t.Num() == 0 {
			out = s
		}
	})
	return out
}

// serve runs every tenant until stop is set, or until it has fired limit
// regions when limit > 0. Each region's latency goes into the tenant's
// histogram when record is set; every region is checked against the
// arithmetic sum.
func serve(rt *core.Runtime, tenants []*tenant, fault, record bool, stop *atomic.Bool, limit int) {
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			for i := 0; !stop.Load() && (limit <= 0 || i < limit); i++ {
				trip := servingMinTrip + tn.rng.Intn(servingMaxTrip-servingMinTrip+1)
				want := int64(trip) * int64(trip-1) / 2
				if fault {
					want++
				}
				t := time.Now()
				got := region(rt, trip)
				d := time.Since(t)
				tn.regions++
				if got != want {
					tn.mismatches++
				}
				if record {
					tn.lat.add(d)
				}
			}
		}(tn)
	}
	wg.Wait()
}

// serveFor runs the tenants for d and returns how many regions they fired
// and the wall time they took.
func serveFor(rt *core.Runtime, tenants []*tenant, fault, record bool, d time.Duration) (int64, time.Duration) {
	var fired int64
	for _, tn := range tenants {
		fired -= tn.regions
	}
	var stop atomic.Bool
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	wall := timed(func() { serve(rt, tenants, fault, record, &stop, 0) })
	for _, tn := range tenants {
		fired += tn.regions
	}
	return fired, wall
}

func runServing(r *run) error {
	n := r.cfg.nproc

	t0 := time.Now()
	s := icv.Default()
	s.NumThreads = []int{n}
	s.ThreadLimit = n
	s.Dynamic = false
	rt := core.NewRuntime(s)
	tenants := make([]*tenant, n)
	for i := range tenants {
		tenants[i] = &tenant{rng: rand.New(rand.NewSource(r.cfg.seed*1000 + int64(i))), lat: newHist()}
	}
	// Untimed warm-up regions populate the shard table and the workers.
	var never atomic.Bool
	serve(rt, tenants, false, false, &never, servingWarmup)
	if r.setupDone(time.Since(t0)) {
		rt.Pool().Shutdown()
		return nil
	}
	fault := r.cfg.faultOracle

	r.startTimed()
	budget := r.budget()
	phase := budget / 2 / servingRounds
	var regionsN, regions1 int64
	var wallN, wall1 time.Duration
	for round := 0; round < servingRounds; round++ {
		k, w := serveFor(rt, tenants, fault, true, phase)
		regionsN, wallN = regionsN+k, wallN+w
		k, w = serveFor(rt, tenants[:1], fault, false, phase)
		regions1, wall1 = regions1+k, wall1+w
	}
	hN := newHist()
	for _, tn := range tenants {
		hN.merge(tn.lat)
	}
	p50 := hN.quantile(0.5)
	rateN := float64(regionsN) / wallN.Seconds()
	r.m["solve_s"] = p50 / 1e9
	r.m["speedup"] = rateN / (float64(regions1) / wall1.Seconds())

	if r.cfg.trace {
		r.m["serving.regions_per_s"] = rateN
		r.m["serving.p50_us"] = p50 / 1e3
		r.m["serving.p90_us"] = hN.quantile(0.9) / 1e3
		r.m["serving.p99_us"] = hN.quantile(0.99) / 1e3
		r.m["serving.p999_us"] = hN.quantile(0.999) / 1e3

		// Traced window: the tenants run with the handler installed until
		// the budget is spent or a buffer is half full.
		w := newWindow(n, rt)
		hT := newHist()
		for _, tn := range tenants {
			tn.lat = newHist()
		}
		var stop atomic.Bool
		deadline := time.Now().Add(budget)
		w.c.start()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serve(rt, tenants, fault, true, &stop, 0)
		}()
		for time.Now().Before(deadline) && w.c.fill() < 0.5 {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
		<-done
		w.c.stop(rt.Quiesce)
		for _, tn := range tenants {
			hT.merge(tn.lat)
		}
		w.ops = int64(hT.n)
		w.finish(r)
		r.m["trace.overhead_frac"] = hT.quantile(0.5) / p50
	}
	r.endTimed()

	var regions, mismatches int64
	for _, tn := range tenants {
		regions += tn.regions
		mismatches += tn.mismatches
	}
	r.checkBatch(regions, mismatches, "regions whose reduction differs from the arithmetic sum")

	rt.Quiesce()
	r.require(rt.Pool().ThreadBudgetUsed() == 0, "thread budget leaked: %d threads still charged", rt.Pool().ThreadBudgetUsed())
	rt.Pool().Shutdown()
	r.require(rt.Pool().LiveWorkers() == 0, "%d workers still live after shutdown", rt.Pool().LiveWorkers())
	return nil
}
