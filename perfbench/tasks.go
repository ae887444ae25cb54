package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/taskbench"
)

// tasks runs the BOTS shapes of internal/taskbench: fib, nqueens and the
// unbalanced tree. Each pass runs every kernel as GoMP at nproc threads,
// GoMP at one thread and its serial twin. Sizes are fixed so one solve
// takes tens to hundreds of milliseconds; the seed only stamps the run.
// Set-up ends after the first solve of every kernel on both runtimes.

type taskKernel struct {
	name   string
	omp    func(rt *core.Runtime) int64
	serial func() int64
	want   int64
	ompN   samples
	omp1   samples
	ser    samples
}

func runTasks(r *run) error {
	fibN, fibCut := 35, 20
	nqN, nqCut := 12, 3
	treeKids, treeDepth, treeBelow := 64, 22, 9
	if r.cfg.tiny {
		fibN, fibCut, nqN, nqCut = 20, 10, 8, 2
		treeKids, treeDepth, treeBelow = 16, 10, 4
	}
	n := r.cfg.nproc

	kernels := []*taskKernel{
		{name: "taskbench.fib",
			omp:    func(rt *core.Runtime) int64 { return taskbench.Fib(rt, fibN, fibCut) },
			serial: func() int64 { return taskbench.FibSerial(fibN) }},
		{name: "taskbench.nqueens",
			omp:    func(rt *core.Runtime) int64 { return taskbench.NQueens(rt, nqN, nqCut) },
			serial: func() int64 { return taskbench.NQueensSerial(nqN) }},
		{name: "taskbench.tree",
			omp:    func(rt *core.Runtime) int64 { return taskbench.Tree(rt, treeKids, treeDepth, treeBelow) },
			serial: func() int64 { return taskbench.TreeSerial(treeKids, treeDepth) }},
	}
	// The serial twins are the oracles; their first answer is the
	// expected value of every later call, serial ones included.
	for _, k := range kernels {
		k.want = k.serial()
		if r.cfg.faultOracle {
			k.want++
		}
	}

	// Set-up builds both runtimes and solves every kernel once on each,
	// which starts the workers and fills the task free lists.
	t0 := time.Now()
	rtN, rt1 := newRuntime(n), newRuntime(1)
	defer rtN.Pool().Shutdown()
	defer rt1.Pool().Shutdown()
	for _, k := range kernels {
		for _, rt := range []*core.Runtime{rtN, rt1} {
			got := k.omp(rt)
			r.check(got == k.want, "%s first solve = %d, want %d", k.name, got, k.want)
		}
	}
	if r.setupDone(time.Since(t0)) {
		return nil
	}
	call := func(k *taskKernel, s *samples, f func() int64) {
		var got int64
		s.add(measure(func() { got = f() }))
		r.check(got == k.want, "%s = %d, want %d", k.name, got, k.want)
	}

	r.startTimed()
	repeatFor(r.budget(), func() {
		for _, k := range kernels {
			call(k, &k.ompN, func() int64 { return k.omp(rtN) })
			call(k, &k.omp1, func() int64 { return k.omp(rt1) })
			call(k, &k.ser, k.serial)
		}
	})
	var solve, speed []float64
	for _, k := range kernels {
		solve = append(solve, k.ompN.median())
		speed = append(speed, k.omp1.median()/k.ompN.median())
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
		r.m[k.name+".serial_s"] = k.ser.median()
	}

	w := newWindow(n, rtN)
	traced := make([]samples, len(kernels))
	w.run(r.budget(), func() int64 {
		for i, k := range kernels {
			w.c.start()
			var got int64
			d := measure(func() { got = k.omp(rtN) })
			w.c.stop(rtN.Quiesce)
			traced[i].add(d)
			r.check(got == k.want, "%s traced = %d, want %d", k.name, got, k.want)
		}
		return 1
	})
	r.endTimed()
	w.finish(r)
	var tsolve []float64
	var serialCost float64
	for i, k := range kernels {
		tsolve = append(tsolve, traced[i].median())
		serialCost += k.omp1.median() - k.ser.median()
	}
	r.m["trace.overhead_frac"] = geomean(tsolve) / r.m["solve_s"]
	// Computed, not traced: the 1-thread run's extra time over the serial
	// twin, spread over the tasks one pass creates (a pass is one solve of
	// each kernel, and task counts do not depend on the team size).
	if created := r.m["task.created"]; created > 0 {
		r.m["task.overhead_ns"] = serialCost / created * 1e9
	}
	return nil
}
