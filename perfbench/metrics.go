package main

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's output contract; BENCHMARK.json at the repository
// root lists the same names and units, and a self-test holds them equal.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (--trace 0) prints, on every workload.
// Each metric is defined for all four workloads (see README.md):
//
//	solve_s  median time per verified unit of work at nproc threads,
//	         geometric mean over the workload's kinds of work
//	speedup  median 1-thread time over median nproc time of the same
//	         work, geometric mean over the same kinds (§3.1's definition);
//	         on serving, nproc-tenant over one-tenant throughput
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"solve_s", "s"},
	{"speedup", "x"},
}

// perLayer is what a traced run (--trace 1) prints, on every workload. A
// layer the workload does not exercise reads 0. Counts from the trace are
// per verified operation of the traced window (see README.md).
var perLayer = []metricDef{
	// kernels: internal/npb, internal/mandelbrot, internal/wavefront
	{"npb.cg.omp_s", "s"}, {"npb.cg.t1_s", "s"}, {"npb.cg.ref_s", "s"},
	{"npb.ep.omp_s", "s"}, {"npb.ep.t1_s", "s"}, {"npb.ep.ref_s", "s"},
	{"npb.is.omp_s", "s"}, {"npb.is.t1_s", "s"}, {"npb.is.ref_s", "s"},
	{"mandelbrot.omp_s", "s"}, {"mandelbrot.t1_s", "s"}, {"mandelbrot.ref_s", "s"},
	{"wavefront.omp_s", "s"}, {"wavefront.t1_s", "s"}, {"wavefront.ref_s", "s"},
	{"npb.cg.bw_frac", "frac"},
	{"table1.ratio_vs_ref", "x"},
	// task kernels: internal/taskbench
	{"taskbench.fib.omp_s", "s"}, {"taskbench.fib.t1_s", "s"}, {"taskbench.fib.serial_s", "s"},
	{"taskbench.nqueens.omp_s", "s"}, {"taskbench.nqueens.t1_s", "s"}, {"taskbench.nqueens.serial_s", "s"},
	{"taskbench.tree.omp_s", "s"}, {"taskbench.tree.t1_s", "s"}, {"taskbench.tree.serial_s", "s"},
	// fork/join, arbiter and shard table: internal/kmp
	{"kmp.forks", "count/op"},
	{"kmp.fork_join_us", "us"},
	{"kmp.admit_shrunk", "per_1k"},
	{"kmp.admit_serialized", "per_1k"},
	{"kmp.shard_steals", "per_1k"},
	// internal/barrier
	{"barrier.waits", "count/op"},
	{"barrier.wait_us", "us"},
	{"barrier.wait_share", "frac"},
	// internal/sched
	{"sched.chunks", "count/op"},
	{"sched.chunk_len", "iters"},
	// internal/task
	{"task.created", "count/op"},
	{"task.migrated_frac", "frac"},
	{"task.overhead_ns", "ns"},
	// serving, as tenants of internal/core see it
	{"serving.regions_per_s", "1/s"},
	{"serving.p50_us", "us"},
	{"serving.p90_us", "us"},
	{"serving.p99_us", "us"},
	{"serving.p999_us", "us"},
	// internal/directive, internal/sema, internal/transform
	{"directive.parse_us", "us"},
	{"sema.check_ms", "ms"},
	{"sema.units", "count"},
	{"transform.file_us", "us"},
	{"transform.busy_s", "s"},
	// internal/modpipe and its cache
	{"modpipe.discover_ms", "ms"},
	{"modpipe.diag_only_s", "s"},
	{"modpipe.cache_write_s", "s"},
	{"modpipe.mirror_s", "s"},
	{"modpipe.noop_s", "s"},
	{"modpipe.rebuild.transformed", "count"},
	{"modpipe.rebuild.sema_checked", "count"},
	{"modpipe.rebuild.hit_frac", "frac"},
	{"gompcc.cold_files_per_s", "1/s"},
	{"gompcc.rebuild_s", "s"},
	// benchmark side
	{"host.probe_speedup", "x"},
	{"host.cpu_per_wall", "x"},
	{"host.triad_gbs", "GB/s"},
	{"trace.overhead_frac", "x"},
	{"failed_frac", "frac"},
}
