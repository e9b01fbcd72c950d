package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists the
// same names; layers_test.go keeps the two in step.
type metricDef struct {
	name  string
	unit  string
	layer bool // per-layer (traced run) rather than end-to-end
}

// endToEnd metrics are reported on every workload. The unit of work is a
// line on the paced workloads, a root on wc-dist and a scheduling round on
// sched-scale (where lat_* are decide_p50/p99/mean_ms): see LAYERS.md.
var endToEnd = []metricDef{
	{name: "lat_mean_ms", unit: "ms"},
	{name: "lat_p50_ms", unit: "ms"},
	{name: "lat_p99_ms", unit: "ms"},
	{name: "capacity_lps", unit: "1/s"},
	{name: "inter_node_frac", unit: "ratio"},
	{name: "nodes_used", unit: "count"},
	{name: "heap_peak_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// bolts whose executor metrics the live layer reports, across the two
// paced topologies.
var bolts = []string{"split", "count", "mongo", "rules", "indexer", "counter", "mongo-index", "mongo-count"}

// fieldsBolts are the fields-grouped bolts whose input skew is reported.
var fieldsBolts = []string{"count", "counter"}

var perLayer = func() []metricDef {
	l := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{name: n, unit: unit, layer: true}
		}
		return out
	}
	var defs []metricDef
	add := func(d []metricDef) { defs = append(defs, d...) }
	add(l("ms", "source.pop_wait_ms.p50", "source.pop_wait_ms.p99"))
	add(l("count", "source.backlog_max"))
	add(l("ms", "source.gen_lag_ms.p99"))
	for _, b := range bolts {
		add(l("ms", "live.exec_ms."+b+".p50"))
		add(l("ratio", "live.busy_frac."+b))
		add(l("count", "live.queue_len_max."+b))
	}
	add(l("ratio", "live.transfers_per_root"))
	for _, b := range fieldsBolts {
		add(l("ratio", "live.edge_skew."+b))
	}
	add(l("ratio", "live.inter_node_frac"))
	add(l("count", "live.nodes_used"))
	add(l("ratio", "live.pool_hit_frac"))
	add(l("B", "runtime.alloc_b_per_root"))
	add(l("ratio", "runtime.gc_cpu_frac"))
	add(l("ms", "acker.complete_ms.p50", "acker.complete_ms.p99"))
	add(l("ratio", "acker.combined_per_root"))
	add(l("ns", "codec.encode_ns", "codec.decode_ns"))
	add(l("B", "codec.bytes_per_tuple"))
	add(l("ratio", "dist.inter_process_frac"))
	add(l("ms", "dist.totals_rpc_ms"))
	add(l("s", "dist.spawn_s"))
	add(l("count", "dist.restarts"))
	add(l("ms", "monitor.sample_ms", "loaddb.apply_window_ms", "loaddb.snapshot_ms"))
	add(l("ms", "scheduler.new_input_ms", "scheduler.schedule_ms.p50", "scheduler.schedule_ms.p99"))
	add(l("count", "scheduler.relaxations", "scheduler.moved"))
	add(l("ratio", "scheduler.inter_node_frac"))
	add(l("count", "scheduler.nodes_used"))
	add(l("ms", "generator.round_ms"))
	add(l("ms", "live.apply_ms"))
	add(l("count", "live.migrations"))
	add(l("ms", "live.resched_recovery_ms"))
	add(l("ms", "trace.wait_ms.local", "trace.wait_ms.inter_slot", "trace.wait_ms.inter_process",
		"trace.wait_ms.inter_node", "trace.exec_ms", "trace.ack_ms"))
	add(l("count", "trace.trees", "trace.evicted", "trace.spans"))
	add(l("ratio", "trace.overhead_frac.lat", "trace.overhead_frac.capacity"))
	return defs
}()
