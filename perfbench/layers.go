package main

// metricDef names one reported metric. target says which end-to-end
// metric, on which workload, the layer metric should move, written down
// before any change is measured against it.
type metricDef struct {
	name, unit, better, target string
}

// endToEnd are the metrics a user of misd or beepmis.Solve sees, each
// measured on every workload with tracing off. fail_frac is printed
// beside them but gated through the result line's attempted and failed
// counts: it reads 0 on a correct run, so a share of its median is no
// bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "process start to first timed op, warm-up included; median of the run's set-ups"},
	{"ops_per_s", "1/s", "higher", "closed-loop throughput"},
	{"op_p50_ms", "ms", "lower", "median op latency"},
	{"op_p95_ms", "ms", "lower", "95th-percentile op latency, at least 10 ops beyond"},
	{"cpu_ms_per_op", "ms", "lower", "program user+sys CPU over the timed phase per op"},
	{"rss_mb", "MB", "lower", "program resident set while serving: median of VmRSS samples every 20 ms of the timed phase"},
}

// perLayer are the traced run's metrics. A workload that never enters a
// layer or class reports 0 for it: that layer did no work there.
var perLayer = []metricDef{
	{"service.submit_ms", "ms", "lower", "op_p50_ms @ svc-hit"},
	{"service.fetch_ms", "ms", "lower", "op_p50_ms @ svc-hit"},
	{"service.wait_ms", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"service.queue_ms", "ms", "lower", "op_p50_ms @ svc-miss (about 0 at one connection)"},
	{"service.run_ms.tiny", "ms", "lower", "ops_per_s, op_p50_ms @ svc-miss"},
	{"service.run_ms.sweep", "ms", "lower", "ops_per_s, op_p95_ms @ svc-miss"},
	{"service.run_ms.noisy", "ms", "lower", "ops_per_s @ svc-miss"},
	{"service.run_ms.file", "ms", "lower", "setup_s @ svc-hit"},
	{"service.run_ms.crash", "ms", "lower", "setup_s @ svc-hit"},
	{"service.run_ms.quick", "ms", "lower", "setup_s @ svc-hit"},
	{"service.overhead_ms", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"service.hit_ratio", "ratio", "higher", "ops_per_s @ svc-hit (reads 1 there, 0 on svc-miss)"},
	{"service.executions", "count", "lower", "cpu_ms_per_op @ svc-miss (equals the misses)"},
	{"service.result_kb", "kB", "lower", "service.fetch_ms, then op_p50_ms @ svc-hit"},
	{"scenario.compile_us.tiny", "us", "lower", "op_p50_ms @ svc-miss"},
	{"scenario.compile_us.sweep", "us", "lower", "op_p95_ms @ svc-miss"},
	{"scenario.compile_us.noisy", "us", "lower", "op_p50_ms @ svc-hit"},
	{"scenario.compile_us.file", "us", "lower", "op_p95_ms @ svc-hit"},
	{"scenario.compile_us.crash", "us", "lower", "op_p50_ms @ svc-hit"},
	{"scenario.compile_us.quick", "us", "lower", "op_p50_ms @ svc-hit"},
	{"scenario.run_ms.tiny", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"scenario.run_ms.sweep", "ms", "lower", "op_p95_ms @ svc-miss"},
	{"scenario.run_ms.noisy", "ms", "lower", "ops_per_s @ svc-miss"},
	{"scenario.run_ms.file", "ms", "lower", "setup_s @ svc-hit"},
	{"scenario.run_ms.crash", "ms", "lower", "setup_s @ svc-hit"},
	{"scenario.run_ms.quick", "ms", "lower", "setup_s @ svc-hit"},
	{"scenario.encode_ms", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"scenario.coverage.tiny", "ratio", "higher", "none: share of a one-worker job the stage spans explain"},
	{"scenario.coverage.sweep", "ratio", "higher", "none: share of a one-worker job the stage spans explain"},
	{"scenario.coverage.noisy", "ratio", "higher", "none: share of a one-worker job the stage spans explain"},
	{"scenario.coverage.file", "ratio", "higher", "none: share of a one-worker job the stage spans explain"},
	{"scenario.coverage.crash", "ratio", "higher", "none: share of a one-worker job the stage spans explain"},
	{"scenario.coverage.quick", "ratio", "higher", "none: share of a one-worker job the stage spans explain"},
	{"graph.build_ms.tiny", "ms", "lower", "op_p50_ms @ svc-miss (sparse regime)"},
	{"graph.build_ms.sweep", "ms", "lower", "op_p95_ms @ svc-miss (dense regime)"},
	{"graph.build_ms.noisy", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"graph.build_ms.file", "ms", "lower", "setup_s @ svc-hit"},
	{"graph.build_ms.crash", "ms", "lower", "setup_s @ svc-hit"},
	{"graph.build_ms.quick", "ms", "lower", "setup_s @ svc-hit"},
	{"graph.build_ms.sparse", "ms", "lower", "setup_s @ solve-sparse"},
	{"graph.edges_per_s", "1/s", "higher", "as graph.build_ms"},
	{"graph.matrix_ms", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"graph.csr_ms", "ms", "lower", "setup_s @ solve-sparse"},
	{"graph.file_hash_us", "us", "lower", "op_p95_ms @ svc-hit"},
	{"graph.verify_ms", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"fault.verifier_ms", "ms", "lower", "op_p50_ms @ svc-miss"},
	{"fault.violations", "count", "lower", "none: 0 on clean specs"},
	{"sim.run_ms", "ms", "lower", "op_p50_ms @ solve-sparse; little @ svc-miss"},
	{"sim.rounds_per_op", "count", "lower", "none unless results change"},
	{"sim.ns_per_node_round", "ns", "lower", "op_p50_ms, ops_per_s @ solve-sparse"},
	{"sim.faults_ms", "ms", "lower", "op_p50_ms @ solve-sparse"},
	{"sim.eligible_draw_ms", "ms", "lower", "op_p50_ms @ solve-sparse"},
	{"sim.beep_tally_ms", "ms", "lower", "op_p50_ms @ solve-sparse"},
	{"sim.propagate_ms", "ms", "lower", "op_p50_ms @ solve-sparse"},
	{"sim.join_ms", "ms", "lower", "op_p50_ms @ solve-sparse"},
	{"sim.observe_ms", "ms", "lower", "op_p50_ms @ solve-sparse"},
	{"gc.alloc_mb_per_op", "MB", "lower", "cpu_ms_per_op @ every workload"},
	{"gc.cycles_per_op", "count", "lower", "cpu_ms_per_op, op_p95_ms @ every workload"},
	{"client.cpu_ms_per_op", "ms", "lower", "explains ops_per_s @ svc-hit, where the client shares the cores"},
	{"trace.overhead_frac", "ratio", "lower", "none: traced over untraced op_p50_ms, minus 1"},
}
