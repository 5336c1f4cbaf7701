package main

// The metric tables. BENCHMARK.json at the repo root lists the same names
// (benchmark_test.go keeps the two in step): endToEnd is its end_to_end
// list, ungated followed by perLayer is its per_layer list.

// metricDef declares one metric: its unit, which direction is better, and
// the share of the baseline median by which it may worsen before a change
// counts as a regression. Exact metrics are simulated quantities or counts
// that must repeat bit for bit between two runs of the same code.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	bound  float64
	exact  bool
	// pooled, when non-zero, makes the metric that quantile of the raw
	// latency samples pooled over every repetition of the run, instead of
	// the median of one value per repetition.
	pooled float64
	// best makes the metric the best sample's value instead of the median.
	// The reference host alternates, for seconds to minutes at a
	// time, between a quiet state and one where neighbours' memory traffic
	// slows these cache-hungry campaigns by 30–50 % (a register-only loop
	// does not slow at all). A run is too short to average that out, but
	// the interference only ever adds time, so the best of a run's
	// repetitions estimates the code's own cost and is what stays put
	// between runs: over the same eight runs of dse-cold the medians'
	// interquartile spread was 25 %, the minima's 12 %. Set-up is assembly
	// and input generation, allocation-heavy and hit the same way (twelve
	// fabric-loopback set-ups in a row: 61–248 ms), so it is reported the
	// same way.
	best bool
}

// endToEnd is what the driver gates: every workload reports each of these
// with tracing off, never zero, which is why speedup_x is taken from
// whichever SimPoint flow the workload ran.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, best: true},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, best: true},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25, best: true},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.03},
	{name: "allocs_k", unit: "k", better: "lower", bound: 0.03},
	{name: "speedup_x", unit: "x", better: "higher", bound: 0.01, exact: true},
}

// ungated are end-to-end numbers too — measured with tracing off, printed
// beside the table above and compared by -aa against the bounds given here —
// but they sit in BENCHMARK.json's per_layer list, which the driver records
// without gating. detailed_minst_per_s is the campaign's delivered
// detailed-model instructions (from cache on sweep-warm) over wall_s: an
// exact count over a gated time, so gating it as well would only double the
// exposure to host noise. The rest only one workload can produce (a warm
// rerun latency needs a warm cache, a CPI error needs a full detailed run),
// and the driver's end_to_end list admits no metric a workload cannot report.
var ungated = []metricDef{
	{name: "detailed_minst_per_s", unit: "Minst/s", better: "higher", bound: 0.25, best: true},
	// sweep-warm: p75 is the highest percentile with ten samples beyond it
	// once three repetitions are pooled.
	{name: "rerun_ms_p50", unit: "ms", better: "lower", bound: 0.10, pooled: 0.50},
	{name: "rerun_ms_p75", unit: "ms", better: "lower", bound: 0.10, pooled: 0.75},
	// fabric-loopback
	{name: "resubmit_ms_p50", unit: "ms", better: "lower", bound: 0.25, pooled: 0.50},
	// full-detailed
	{name: "cpi_err_pct.legacy", unit: "%", better: "lower", exact: true},
	{name: "cpi_err_pct.recommended", unit: "%", better: "lower", exact: true},
}

// perLayer comes from the -trace pass: host-time spans the benchmark wraps
// around each layer's public calls, and counts the packages already
// publish. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "asm.assemble_ms", unit: "ms", better: "lower"},

	{name: "sim.step_ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "sim.insts", unit: "count", better: "lower", exact: true},

	{name: "bbv.observe_ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "bbv.vectors", unit: "count", better: "lower", exact: true},
	{name: "mav.observe_ns_per_inst", unit: "ns/inst", better: "lower"},

	{name: "simpoint.choose_ms", unit: "ms", better: "lower"},
	{name: "simpoint.kmeans_iters", unit: "count", better: "lower", exact: true},
	{name: "simpoint.points", unit: "count", better: "lower", exact: true},

	{name: "ckpt.capture_ms", unit: "ms", better: "lower"},
	{name: "ckpt.encode_ms", unit: "ms", better: "lower"},
	{name: "ckpt.bytes", unit: "count", better: "lower", exact: true},
	{name: "ckpt.restore_us", unit: "us", better: "lower"},
	{name: "ckpt.decode_ms", unit: "ms", better: "lower"},

	{name: "boom.new_us", unit: "us", better: "lower"},
	{name: "boom.allocs_per_run", unit: "count", better: "lower"},
	{name: "boom.ns_per_cycle.hi_ipc", unit: "ns/cycle", better: "lower"},
	{name: "boom.ns_per_cycle.lo_ipc", unit: "ns/cycle", better: "lower"},
	{name: "boom.ns_per_inst.MediumBOOM", unit: "ns/inst", better: "lower"},
	{name: "boom.ns_per_inst.LargeBOOM", unit: "ns/inst", better: "lower"},
	{name: "boom.ns_per_inst.MegaBOOM", unit: "ns/inst", better: "lower"},
	{name: "boom.cycles", unit: "count", better: "lower", exact: true},
	{name: "boom.retired", unit: "count", better: "lower", exact: true},
	{name: "boom.ipc_geomean.MediumBOOM", unit: "ipc", better: "higher", exact: true},
	{name: "boom.ipc_geomean.LargeBOOM", unit: "ipc", better: "higher", exact: true},
	{name: "boom.ipc_geomean.MegaBOOM", unit: "ipc", better: "higher", exact: true},
	{name: "boom.branch_mpki", unit: "mpki", better: "lower", exact: true},
	{name: "boom.dcache_mpki", unit: "mpki", better: "lower", exact: true},

	{name: "power.estimate_ns", unit: "ns", better: "lower"},
	{name: "power.tile_mw_geomean", unit: "mW", better: "lower", exact: true},

	{name: "core.profile_s", unit: "s", better: "lower"},
	{name: "core.run_s", unit: "s", better: "lower"},
	{name: "core.run_self_pct", unit: "%", better: "lower"},
	{name: "core.sweep_self_pct", unit: "%", better: "lower"},
	{name: "core.par_util", unit: "ratio", better: "higher"},
	{name: "core.allocs_per_cell", unit: "count", better: "lower"},
	{name: "core.alloc_kb_per_cell", unit: "kB", better: "lower"},
	{name: "core.retries", unit: "count", better: "lower", exact: true},

	{name: "artifact.put_ms.bbv", unit: "ms", better: "lower"},
	{name: "artifact.put_ms.select", unit: "ms", better: "lower"},
	{name: "artifact.put_ms.checkpoint", unit: "ms", better: "lower"},
	{name: "artifact.put_ms.measure", unit: "ms", better: "lower"},
	{name: "artifact.bytes.bbv", unit: "count", better: "lower", exact: true},
	{name: "artifact.bytes.select", unit: "count", better: "lower", exact: true},
	{name: "artifact.bytes.checkpoint", unit: "count", better: "lower", exact: true},
	{name: "artifact.bytes.measure", unit: "count", better: "lower", exact: true},
	{name: "artifact.get_ms.bbv", unit: "ms", better: "lower"},
	{name: "artifact.get_ms.select", unit: "ms", better: "lower"},
	{name: "artifact.get_ms.checkpoint", unit: "ms", better: "lower"},
	{name: "artifact.get_ms.measure", unit: "ms", better: "lower"},
	{name: "artifact.hits", unit: "count", better: "higher", exact: true},
	{name: "artifact.misses", unit: "count", better: "lower", exact: true},
	{name: "artifact.evictions", unit: "count", better: "lower", exact: true},
	{name: "artifact.remote_get_ms", unit: "ms", better: "lower"},
	{name: "artifact.remote_put_ms", unit: "ms", better: "lower"},

	{name: "serve.submit_ms", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.encode_sweep_ms", unit: "ms", better: "lower"},
	{name: "serve.result_bytes", unit: "count", better: "lower", exact: true},

	{name: "fabric.cells", unit: "count", better: "lower", exact: true},
	{name: "fabric.cells_stolen", unit: "count", better: "lower", exact: true},
	{name: "fabric.cell_retries", unit: "count", better: "lower", exact: true},
	{name: "fabric.rpcs", unit: "count", better: "lower"},
	{name: "fabric.idle_polls", unit: "count", better: "lower"},
	{name: "fabric.worker_busy_pct", unit: "%", better: "higher"},
	{name: "fabric.overhead_pct", unit: "%", better: "lower"},

	{name: "dse.expand_ms", unit: "ms", better: "lower"},
	{name: "dse.frontier_ms", unit: "ms", better: "lower"},
	{name: "dse.points", unit: "count", better: "lower", exact: true},
	{name: "report.render_ms", unit: "ms", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// tracedDefs is what a -trace run reports, in BENCHMARK.json per_layer order.
func tracedDefs() []metricDef {
	return append(append([]metricDef{}, ungated...), perLayer...)
}
