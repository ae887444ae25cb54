// Benchmarks regenerating the paper's evaluation artifacts (see DESIGN.md's
// per-experiment index):
//
//   - BenchmarkTable1_*: Table 1 — kernel runtimes, Reference (goroutines)
//     vs GoMP (OpenMP runtime), one pair per kernel.
//   - BenchmarkSpeedup_*: the §3.1 speedup metric — each kernel at
//     increasing thread counts (relative speedup = t1/tN across sub-runs).
//   - BenchmarkAblation_*: A2 schedule choice on the imbalanced Mandelbrot
//     rows, A3 reduction strategies, A4 hot-team fork-join reuse, and the
//     E5 interop call overhead. (A1, the barrier-algorithm ablation, ended
//     with a single barrier; see DESIGN.md "Barrier algorithm".)
//
// Problem sizes are class S / small grids so the full suite runs in
// minutes; cmd/table1 -class A reproduces the table at benchmark scale.
package gomp_test

import (
	"runtime"
	"sync"
	"testing"

	gomp "repro"
	"repro/internal/harness"
	"repro/internal/icv"
	"repro/internal/kmp"
	"repro/internal/mandelbrot"
	"repro/internal/npb"
	"repro/internal/reduction"
	"repro/internal/taskbench"
)

func benchRuntime(n int) *gomp.Runtime {
	s := icv.Default()
	s.NumThreads = []int{n}
	return gomp.NewRuntime(s)
}

func maxThreads() int { return runtime.GOMAXPROCS(0) }

// --- Table 1 (E1) ---

func benchKernel(b *testing.B, idx int, v harness.Variant) {
	b.Helper()
	ks := harness.Kernels(npb.ClassS, npb.ClassS, npb.ClassS, 512)
	k := ks[idx]
	k.Prepare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status := k.Run(v, maxThreads()); status == "UNSUCCESSFUL" {
			b.Fatalf("%s %v failed verification", k.Name, v)
		}
	}
}

func BenchmarkTable1_CG_Reference(b *testing.B)         { benchKernel(b, 0, harness.Reference) }
func BenchmarkTable1_CG_GoMP(b *testing.B)              { benchKernel(b, 0, harness.GoMP) }
func BenchmarkTable1_EP_Reference(b *testing.B)         { benchKernel(b, 1, harness.Reference) }
func BenchmarkTable1_EP_GoMP(b *testing.B)              { benchKernel(b, 1, harness.GoMP) }
func BenchmarkTable1_IS_Reference(b *testing.B)         { benchKernel(b, 2, harness.Reference) }
func BenchmarkTable1_IS_GoMP(b *testing.B)              { benchKernel(b, 2, harness.GoMP) }
func BenchmarkTable1_Mandelbrot_Reference(b *testing.B) { benchKernel(b, 3, harness.Reference) }
func BenchmarkTable1_Mandelbrot_GoMP(b *testing.B)      { benchKernel(b, 3, harness.GoMP) }

// --- Speedup curves (E2) ---

func benchSpeedup(b *testing.B, idx int) {
	b.Helper()
	ks := harness.Kernels(npb.ClassS, npb.ClassS, npb.ClassS, 512)
	k := ks[idx]
	k.Prepare()
	for _, n := range speedupThreadCounts() {
		b.Run(threadLabel(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Run(harness.GoMP, n)
			}
		})
	}
}

func speedupThreadCounts() []int {
	max := maxThreads()
	counts := []int{1}
	for n := 2; n <= max; n *= 2 {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != max {
		counts = append(counts, max)
	}
	return counts
}

func threadLabel(n int) string {
	return "threads-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkSpeedup_CG(b *testing.B)         { benchSpeedup(b, 0) }
func BenchmarkSpeedup_EP(b *testing.B)         { benchSpeedup(b, 1) }
func BenchmarkSpeedup_IS(b *testing.B)         { benchSpeedup(b, 2) }
func BenchmarkSpeedup_Mandelbrot(b *testing.B) { benchSpeedup(b, 3) }

// --- A2: schedule ablation on the imbalanced Mandelbrot rows ---

func benchSchedule(b *testing.B, s icv.Schedule) {
	rt := benchRuntime(maxThreads())
	spec := mandelbrot.DefaultSpec(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mandelbrot.OMPSchedule(rt, spec, s)
	}
}

func BenchmarkAblation_Schedule_StaticBlock(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.StaticSched})
}
func BenchmarkAblation_Schedule_StaticCyclic1(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.StaticSched, Chunk: 1})
}
func BenchmarkAblation_Schedule_Dynamic1(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.DynamicSched, Chunk: 1})
}
func BenchmarkAblation_Schedule_Guided(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.GuidedSched})
}
func BenchmarkAblation_Schedule_Steal(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.StealSched})
}

// BenchmarkAblation_Schedule_CollapsedSteal renders through the flattened
// collapse(2) pixel space fed to the work-stealing scheduler — pixel-granular
// balance without a shared cursor.
func BenchmarkAblation_Schedule_CollapsedSteal(b *testing.B) {
	rt := benchRuntime(maxThreads())
	spec := mandelbrot.DefaultSpec(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mandelbrot.OMPCollapsed(rt, spec, icv.Schedule{Kind: icv.StealSched})
	}
}

// --- A3: reduction strategy ablation ---

func benchReduction(b *testing.B, strat reduction.Strategy) {
	rt := benchRuntime(maxThreads())
	const n = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := reduction.NewSharedFloat64(strat, reduction.Sum, rt.MaxThreads())
		rt.Parallel(func(t *gomp.Thread) {
			t.For(n, func(j int) {
				sink.Contribute(t.Num(), 1.0)
			})
		})
		if sink.Result() != n {
			b.Fatal("reduction lost updates")
		}
	}
}

func BenchmarkAblation_Reduction_Partials(b *testing.B) {
	benchReduction(b, reduction.StrategyPartials)
}
func BenchmarkAblation_Reduction_Atomic(b *testing.B) { benchReduction(b, reduction.StrategyAtomic) }
func BenchmarkAblation_Reduction_Critical(b *testing.B) {
	benchReduction(b, reduction.StrategyCritical)
}

// --- A4: fork-join overhead, hot team vs fresh workers vs raw goroutines ---

func BenchmarkAblation_ForkJoin_HotTeam(b *testing.B) {
	pool := kmp.NewPool(nil)
	n := maxThreads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Fork(kmp.ForkSpec{NumThreads: n}, func(tm *kmp.Team, tid int) {})
	}
}

func BenchmarkAblation_ForkJoin_FreshPool(b *testing.B) {
	n := maxThreads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := kmp.NewPool(nil)
		pool.Fork(kmp.ForkSpec{NumThreads: n}, func(tm *kmp.Team, tid int) {})
		b.StopTimer()
		pool.Shutdown()
		b.StartTimer()
	}
}

func BenchmarkAblation_ForkJoin_RawGoroutines(b *testing.B) {
	n := maxThreads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for t := 0; t < n; t++ {
			wg.Add(1)
			go func() { defer wg.Done() }()
		}
		wg.Wait()
	}
}

// --- E5: interop call overhead ---

func BenchmarkInterop_RegistryCall(b *testing.B) {
	proc, err := npb.FortranObjects.Resolve("norms_")
	if err != nil {
		b.Fatal(err)
	}
	nw := [2]int{64, 1}
	x := make([]float64, 64)
	z := make([]float64, 64)
	var xz, zz float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.MustCall(&nw, x, z, &xz, &zz)
	}
}

func BenchmarkInterop_DirectCall(b *testing.B) {
	// The same computation without the registry/reflection layer, to
	// price the interop path.
	nw := [2]int{64, 1}
	x := make([]float64, 64)
	z := make([]float64, 64)
	var xz, zz float64
	direct := func(nw *[2]int, x, z []float64, xz, zz *float64) {
		a, c := 0.0, 0.0
		for j := 0; j < nw[0]; j++ {
			a += x[j] * z[j]
			c += z[j] * z[j]
		}
		*xz, *zz = a, c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct(&nw, x, z, &xz, &zz)
	}
}

// --- per-iteration vs chunk-granular worksharing (ForChunks rationale) ---

func BenchmarkAblation_Granularity_PerIteration(b *testing.B) {
	rt := benchRuntime(maxThreads())
	data := make([]float64, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(t *gomp.Thread) {
			t.For(len(data), func(j int) { data[j] = float64(j) * 0.5 })
		})
	}
}

func BenchmarkAblation_Granularity_PerChunk(b *testing.B) {
	rt := benchRuntime(maxThreads())
	data := make([]float64, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(t *gomp.Thread) {
			t.ForChunks(len(data), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					data[j] = float64(j) * 0.5
				}
			})
		})
	}
}

// --- EPCC syncbench-style construct overhead benchmarks ---
//
// These isolate the runtime's per-construct cost with empty bodies, the
// methodology of the EPCC OpenMP microbenchmark suite (syncbench): Fork is a
// bare parallel region, For a bare worksharing loop inside one long-lived
// region, Barrier a bare team barrier, Reduction a one-value-per-thread
// combine. They run at team size GOMAXPROCS; README's "Measured
// performance" section quotes them with that stamp.

func BenchmarkOverhead_Fork(b *testing.B) {
	s := icv.Default()
	s.NumThreads = []int{maxThreads()}
	pool := kmp.NewPool(s)
	micro := func(tm *kmp.Team, tid int) {}
	pool.Fork(kmp.ForkSpec{}, micro) // warm the hot team
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Fork(kmp.ForkSpec{}, micro)
	}
}

func BenchmarkOverhead_For(b *testing.B) {
	rt := benchRuntime(maxThreads())
	body := func(lo, hi int) {}
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			t.ForChunks(1024, body)
		}
	})
}

func BenchmarkOverhead_Barrier(b *testing.B) {
	rt := benchRuntime(maxThreads())
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier()
		}
	})
}

func BenchmarkOverhead_Reduction(b *testing.B) {
	rt := benchRuntime(maxThreads())
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			gomp.Reduce(t, gomp.OpSum, 1.0)
		}
	})
}

// --- public API micro-benchmarks ---

func BenchmarkParallelFor(b *testing.B) {
	rt := benchRuntime(maxThreads())
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(t *gomp.Thread) {
			t.For(len(data), func(j int) { data[j] = float64(j) })
		})
	}
}

func BenchmarkReduceFor(b *testing.B) {
	rt := benchRuntime(maxThreads())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		rt.Parallel(func(t *gomp.Thread) {
			s := gomp.ReduceFor(t, 1<<16, gomp.OpSum, func(j int, acc float64) float64 {
				return acc + float64(j)
			})
			t.Master(func() { sum = s })
		})
		_ = sum
	}
}

func BenchmarkTable1_Wavefront_Reference(b *testing.B) { benchKernel(b, 4, harness.Reference) }
func BenchmarkTable1_Wavefront_GoMP(b *testing.B)      { benchKernel(b, 4, harness.GoMP) }
func BenchmarkSpeedup_Wavefront(b *testing.B)          { benchSpeedup(b, 4) }

// BenchmarkOverhead_Task prices a bare empty task: the master generates
// tasks while the other members drain them from the region-end barrier
// (EPCC taskbench's parallel task generation shape).
func BenchmarkOverhead_Task(b *testing.B) {
	rt := benchRuntime(maxThreads())
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		if t.Num() != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.Task(func(*gomp.Thread) {})
		}
		t.Taskwait()
	})
}

// BenchmarkOverhead_TaskDepend prices a task carrying one inout dependence:
// the serialised chain through the dephash (registration + release), the
// worst case for the dependency engine.
func BenchmarkOverhead_TaskDepend(b *testing.B) {
	rt := benchRuntime(maxThreads())
	var x int
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		if t.Num() != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.Task(func(*gomp.Thread) {}, gomp.DependInOut(&x))
		}
		t.Taskwait()
	})
}

// BenchmarkOverhead_Taskloop prices a whole trip-64 grainsize-16 taskloop
// (implicit taskgroup included): the loop-form spawn path where chunk bounds
// ride in the recycled Unit and every chunk shares one func(int) body.
func BenchmarkOverhead_Taskloop(b *testing.B) {
	rt := benchRuntime(maxThreads())
	body := func(i int) {}
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		if t.Num() != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.Taskloop(64, 16, body)
		}
	})
}

// --- EPCC taskbench / BOTS task microbenchmarks ---
//
// Oracle-checked task-tree workloads; perfbench's tasks workload runs the
// same kernels at larger sizes. Here they run at GOMAXPROCS threads so
// `-bench BenchmarkTasks -benchtime=1x` doubles as a correctness smoke of
// the work-stealing spawn tree.

func BenchmarkTasks_Fib(b *testing.B) {
	rt := benchRuntime(maxThreads())
	want := taskbench.FibSerial(26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := taskbench.Fib(rt, 26, 14); got != want {
			b.Fatalf("fib(26) = %d, want %d", got, want)
		}
	}
}

func BenchmarkTasks_NQueens(b *testing.B) {
	rt := benchRuntime(maxThreads())
	want := taskbench.NQueensSerial(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := taskbench.NQueens(rt, 9, 3); got != want {
			b.Fatalf("nqueens(9) = %d, want %d", got, want)
		}
	}
}

func BenchmarkTasks_Tree(b *testing.B) {
	rt := benchRuntime(maxThreads())
	want := taskbench.TreeSerial(32, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := taskbench.Tree(rt, 32, 12, 5); got != want {
			b.Fatalf("tree(32,12) = %d, want %d", got, want)
		}
	}
}

// BenchmarkOverhead_Doacross prices the doacross flag protocol at its worst
// case: a fully serialised trip-1024 chain (every iteration sinks on its
// predecessor), one whole loop per op — sink linearization + flag wait +
// post per iteration, plus the per-construct flag-vector reset.
func BenchmarkOverhead_Doacross(b *testing.B) {
	rt := benchRuntime(maxThreads())
	loops := []gomp.Loop{{Begin: 0, End: 1024, Step: 1}}
	body := func(ix []int64, d *gomp.DoacrossCtx) {
		d.Wait(ix[0] - 1)
		d.Post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			t.ForDoacross(loops, body)
		}
	})
}

// BenchmarkOverhead_DoacrossPost prices the sink-free floor of the same
// loop: flag-vector reset plus one post per iteration, no waits — the
// doacross tax on iterations that only produce.
func BenchmarkOverhead_DoacrossPost(b *testing.B) {
	rt := benchRuntime(maxThreads())
	loops := []gomp.Loop{{Begin: 0, End: 1024, Step: 1}}
	body := func(ix []int64, d *gomp.DoacrossCtx) { d.Post() }
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			t.ForDoacross(loops, body)
		}
	})
}

// BenchmarkOverhead_TargetHost prices a bare target region on the host
// device: device resolution, one map(tofrom:) present-table round trip and
// an empty closure-kernel launch — the constant the offload layer adds on
// top of the kernel's own work.
func BenchmarkOverhead_TargetHost(b *testing.B) {
	x := make([]float64, 16)
	kernel := func(rt *gomp.Runtime, cfg gomp.Launch, env *gomp.TargetEnv) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gomp.TargetRegion(0, gomp.Launch{}, kernel, gomp.MapToFrom("x", x)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverhead_TargetData prices an empty structured device data
// environment on the host: enter + exit of one map(tofrom:) item, no
// kernel.
func BenchmarkOverhead_TargetData(b *testing.B) {
	x := make([]float64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gomp.TargetData(0, nil, gomp.MapToFrom("x", x)); err != nil {
			b.Fatal(err)
		}
	}
}
