package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/icv"
	"repro/internal/mandelbrot"
	"repro/internal/npb"
	"repro/internal/wavefront"
)

// table1 runs the paper's kernels, called directly: CG and IS at NPB
// class W, EP at class S, Mandelbrot and Wavefront at 1024². Each pass
// runs every kernel as GoMP at nproc threads, GoMP at one thread and the
// hand-written Reference at nproc threads, in that order. Inputs are
// fixed by the NPB specification; the seed only stamps the run.

// kernel is one Table 1 row: the three variants of one solve, each
// returning whether its output matched the oracle. reps is the number of
// calls per variant per pass, so that the short kernels (IS, Wavefront)
// weigh a few hundred milliseconds too. prep, when set, restores the
// input before a call, outside the timed span.
type kernel struct {
	name   string
	reps   int
	prep   func()
	omp    func(rt *core.Runtime) bool
	ref    func(workers int) bool
	ompN   samples
	omp1   samples
	refN   samples
	ratios []float64 // per pass: median(ompN)/median(refN)
}

// call times reps calls of f, checking each result.
func (k *kernel) call(r *run, s *samples, f func() bool) {
	for i := 0; i < k.reps; i++ {
		if k.prep != nil {
			k.prep()
		}
		var ok bool
		s.add(measure(func() { ok = f() }))
		r.check(ok, "%s result differs from its oracle", k.name)
	}
}

// newRuntime builds a runtime whose default team is n threads and forks
// its first region, so worker start-up is paid in set-up.
func newRuntime(n int) *core.Runtime {
	s := icv.Default()
	s.NumThreads = []int{n}
	rt := core.NewRuntime(s)
	rt.Parallel(func(*core.Thread) {})
	return rt
}

func runTable1(r *run) error {
	cls, epCls, size, shortReps := npb.ClassW, npb.ClassS, 1024, 10
	if r.cfg.tiny {
		cls, size, shortReps = npb.ClassS, 64, 2
	}
	n := r.cfg.nproc

	t0 := time.Now()
	cg := npb.BuildCG(cls)
	is := npb.BuildIS(cls)
	mspec := mandelbrot.DefaultSpec(size)
	wspec := wavefront.DefaultSpec(size)
	pristine := wavefront.NewGrid(wspec)
	grid := make([]float64, len(pristine))
	rtN, rt1 := newRuntime(n), newRuntime(1)
	if r.setupDone(time.Since(t0)) {
		return nil
	}
	defer rtN.Pool().Shutdown()
	defer rt1.Pool().Shutdown()

	// Oracles: NPB's verification words, plus the serial twins' outputs
	// computed outside every timed span.
	zeta := cg.ZetaV
	epWant := npb.VerifySuccess
	isSum := is.RunSerial().Checksum
	mWant := mandelbrot.Serial(mspec)
	copy(grid, pristine)
	wavefront.Serial(wspec, grid)
	wWant := wavefront.Checksum(grid)
	if r.cfg.faultOracle {
		zeta++
		epWant = npb.VerifyFailure
		isSum ^= 1
		mWant.TotalIters++
		wWant++
	}
	cgOK := func(res npb.CGResult) bool { return math.Abs(res.Zeta-zeta) <= 1e-10 }
	isOK := func(res npb.ISResult) bool { return res.Status == npb.VerifySuccess && res.Checksum == isSum }
	wfOK := func() bool { return wavefront.Checksum(grid) == wWant }

	kernels := []*kernel{
		{name: "npb.cg", reps: 1,
			omp: func(rt *core.Runtime) bool { return cgOK(cg.RunOMP(rt)) },
			ref: func(w int) bool { return cgOK(cg.RunRef(w)) }},
		{name: "npb.ep", reps: 1,
			omp: func(rt *core.Runtime) bool { return npb.EPOMP(rt, epCls).Status == epWant },
			ref: func(w int) bool { return npb.EPRef(epCls, w).Status == epWant }},
		{name: "npb.is", reps: shortReps,
			omp: func(rt *core.Runtime) bool { return isOK(is.RunOMP(rt)) },
			ref: func(w int) bool { return isOK(is.RunRef(w)) }},
		{name: "mandelbrot", reps: 1,
			omp: func(rt *core.Runtime) bool { return mandelbrot.OMP(rt, mspec) == mWant },
			ref: func(w int) bool { return mandelbrot.Ref(mspec, w) == mWant }},
		{name: "wavefront", reps: shortReps, prep: func() { copy(grid, pristine) },
			omp: func(rt *core.Runtime) bool { wavefront.OMP(rt, wspec, grid); return wfOK() },
			ref: func(w int) bool { wavefront.Ref(wspec, grid, w); return wfOK() }},
	}

	r.startTimed()
	repeatFor(r.budget(), func() {
		for _, k := range kernels {
			from := len(k.ompN)
			k.call(r, &k.ompN, func() bool { return k.omp(rtN) })
			k.call(r, &k.omp1, func() bool { return k.omp(rt1) })
			k.call(r, &k.refN, func() bool { return k.ref(n) })
			k.ratios = append(k.ratios, k.ompN[from:].median()/k.refN[from:].median())
		}
	})
	var solve, speed, ratio []float64
	for _, k := range kernels {
		solve = append(solve, k.ompN.median())
		speed = append(speed, k.omp1.median()/k.ompN.median())
		ratio = append(ratio, median(k.ratios))
	}
	r.m["solve_s"] = geomean(solve)
	r.m["speedup"] = geomean(speed)
	if !r.cfg.trace {
		r.endTimed()
		return nil
	}
	for _, k := range kernels {
		r.m[k.name+".omp_s"] = k.ompN.median()
		r.m[k.name+".t1_s"] = k.omp1.median()
		r.m[k.name+".ref_s"] = k.refN.median()
	}
	r.m["table1.ratio_vs_ref"] = geomean(ratio)
	r.cgBytes = cgBytes(cg)

	// Traced window: passes of one nproc-thread GoMP call per kernel, the
	// handler installed only around those calls.
	w := newWindow(n, rtN)
	traced := make([]samples, len(kernels))
	w.run(r.budget(), func() int64 {
		for i, k := range kernels {
			if k.prep != nil {
				k.prep()
			}
			w.c.start()
			var ok bool
			d := measure(func() { ok = k.omp(rtN) })
			w.c.stop(rtN.Quiesce)
			traced[i].add(d)
			r.check(ok, "%s traced result differs from its oracle", k.name)
		}
		return 1
	})
	r.endTimed()
	var tsolve []float64
	for i := range traced {
		tsolve = append(tsolve, traced[i].median())
	}
	w.finish(r)
	r.m["trace.overhead_frac"] = geomean(tsolve) / r.m["solve_s"]
	return nil
}

// cgBytes is the computed memory traffic of one CG solve: every sweep
// over the CSR matrix reads 8+4 bytes per nonzero plus the row starts,
// and the vector kernels of one inner iteration stream 13 vectors of NA
// doubles (spmv 2, p·q 2, z/r update 6, p update 3); gathers of p are
// counted as cache hits. Misses beyond that are not modelled.
func cgBytes(d *npb.CGData) float64 {
	n, nnz := float64(d.NA), float64(d.NNZ())
	spmv := 12*nnz + 4*(n+1)
	conjGrad := 25*(spmv+13*8*n) + spmv + 8*8*n // + residual and start vectors
	normalize := 2 * 8 * n
	return float64(d.Niter+1) * (conjGrad + normalize)
}
