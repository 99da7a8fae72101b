package main

import "sophie/internal/problem"

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root declares the same names, units and directions (and the
// end-to-end bounds); TestBenchmarkJSONMatchesDeclarations keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// layerDef is a per-layer metric plus the end-to-end metric it should
// move and the workloads it should move it on, written down before any
// change is measured, so a claimed gain can be checked against it.
type layerDef struct {
	metricDef
	moves     string
	workloads []string
}

const (
	wDense   = "dense-g1"
	wTemper  = "sparse-g22-temper"
	wColored = "sparse-rr100k-colored"
	wMixed   = "service-mixed"
	wTiny    = "service-tiny"
)

var (
	solverWorkloads  = []string{wDense, wTemper, wColored}
	serviceWorkloads = []string{wMixed, wTiny}
	allWorkloads     = []string{wDense, wTemper, wColored, wMixed, wTiny}
)

// endToEnd lists the metrics an untraced run reports, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cut_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// problemTypes are the spec types service-mixed rotates over.
var problemTypes = problem.SpecTypes()

// perLayer lists the metrics a traced run reports. A metric of a layer a
// workload does not exercise reads 0 on that workload.
var perLayer = func() []layerDef {
	l := func(name, unit, better, moves string, ws ...string) layerDef {
		return layerDef{metricDef{name, unit, better}, moves, ws}
	}
	defs := []layerDef{
		// Solver core, from a trace recorder with phase timing and an
		// event counter installed through WithRuntime.
		l("core.init_s", "s", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.local_s", "s", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.local_frac", "ratio", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.global_s", "s", "lower", "latency_p50_ms", wTemper),
		l("core.global_frac", "ratio", "lower", "latency_p50_ms", wTemper),
		l("core.busy_frac", "ratio", "higher", "latency_p50_ms", wTemper, wDense),
		l("core.global_iters", "count", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.local_batches", "count", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.sync_pairs", "count", "lower", "latency_p50_ms", wTemper),
		l("core.energy_evals", "count", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.flips", "count", "lower", "latency_p50_ms", solverWorkloads...),
		l("core.flips_per_local_s", "1/s", "higher", "latency_p50_ms", wColored),
		l("core.exchange_accept_frac", "ratio", "higher", "cut_ratio", wTemper),
		// PRIS transform and the dense tile engine (dense-g1 only).
		l("pris.transform_s", "s", "lower", "setup_s", wDense),
		l("tiling.mul_calls", "count", "lower", "latency_p50_ms", wDense),
		l("tiling.mul_s", "s", "lower", "latency_p50_ms", wDense),
		l("tiling.mulbinary_calls", "count", "lower", "latency_p50_ms", wDense),
		l("tiling.mulbinary_s", "s", "lower", "latency_p50_ms", wDense),
		l("tiling.muldelta_calls", "count", "lower", "latency_p50_ms", wDense),
		l("tiling.muldelta_s", "s", "lower", "latency_p50_ms", wDense),
		l("tiling.delta_frac", "ratio", "higher", "latency_p50_ms", wDense),
		l("tiling.engine_frac_of_local", "ratio", "lower", "latency_p50_ms", wDense),
		// Solution quality of the solver workloads and the paper's
		// modelled hardware time.
		l("bench.hit_frac", "ratio", "higher", "cut_ratio", solverWorkloads...),
		l("bench.time_per_hit_s", "s", "lower", "latency_p50_ms", solverWorkloads...),
		l("arch.sim_tts_us", "us", "lower", "cut_ratio", wDense, wTemper),
	}
	for _, t := range problemTypes {
		defs = append(defs, l("problem.compile_ms."+t, "ms", "lower", "latency_p50_ms", wMixed))
	}
	defs = append(defs,
		// Service path: client timestamps plus the job's own timestamps.
		// The five means below add up to the mean latency.
		l("bench.gen_lag_ms", "ms", "lower", "latency_p50_ms", serviceWorkloads...),
		l("service.admit_ms", "ms", "lower", "latency_p50_ms", wTiny),
		l("service.queue_ms", "ms", "lower", "latency_p50_ms", wMixed),
		l("service.exec_ms", "ms", "lower", "latency_p50_ms", wMixed),
		l("service.deliver_ms", "ms", "lower", "latency_p50_ms", wTiny),
		l("service.queue_ms_p99", "ms", "lower", "throughput_per_s", wMixed),
		l("service.exec_ms_p99", "ms", "lower", "latency_p50_ms", wMixed),
		l("service.submit_ms_p50", "ms", "lower", "latency_p50_ms", wTiny),
		l("service.submit_ms_p99", "ms", "lower", "latency_p50_ms", wTiny),
		l("service.result_bytes_mean", "bytes", "lower", "latency_p50_ms", wTiny),
		l("service.cache_hit_frac", "ratio", "higher", "latency_p50_ms", wMixed),
		l("service.cache_builds", "count", "lower", "latency_p50_ms", wMixed),
		l("service.queue_depth_max", "count", "lower", "throughput_per_s", wMixed),
		l("service.rejected", "count", "lower", "throughput_per_s", wMixed),
		// Write-ahead log, through a service.Journal decorator.
		l("wal.submitted_ms_p50", "ms", "lower", "latency_p50_ms", wTiny),
		l("wal.submitted_ms_p99", "ms", "lower", "latency_p50_ms", wTiny),
		l("wal.buffered_ms_mean", "ms", "lower", "latency_p50_ms", wTiny),
		l("wal.appends", "count", "lower", "latency_p50_ms", wTiny),
		// The untraced latency tail (too noisy on a shared 2-core host to
		// gate end to end; a growing tail precedes a growing backlog), the
		// load generator and the tracing itself.
		l("bench.latency_p95_ms", "ms", "lower", "throughput_per_s", allWorkloads...),
		l("bench.latency_p99_ms", "ms", "lower", "throughput_per_s", serviceWorkloads...),
		l("bench.gen_lag_ms_p99", "ms", "lower", "latency_p50_ms", serviceWorkloads...),
		l("bench.gen_lag_ms_max", "ms", "lower", "latency_p50_ms", serviceWorkloads...),
		l("bench.attribution_gap_frac", "ratio", "lower", "latency_p50_ms", serviceWorkloads...),
		l("bench.trace_overhead_frac", "ratio", "lower", "latency_p50_ms", allWorkloads...),
	)
	return defs
}()
