package main

import "encoding/json"

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root carries the same declarations (TestBenchmarkJSONInSync
// keeps them equal); `-describe` prints them in that file's form.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, so each is defined per workload (README, "What each
// metric means on each workload"): an operation is a snapshot, a view, a
// unit or a step, and its warm and cold classes are the workload's two
// kinds of operation. The timing bounds are as wide as the contract allows
// because this host's speed wanders by 10-15% from minute to minute (README,
// "Repeatability"); allocation repeats almost exactly and is held to 10%.
// The latency tails are per-layer metrics, reported but not gated: their
// run-to-run spread sits too close to any bound that could be set. Failures
// are not a metric because they must be zero: they are the result line's
// failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"warm_ms_p50", "ms", "lower", 0.25},
	{"cold_ms_p50", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, printed by the traced run.
// Walk-derived ones price a layer per unit of work and are the same
// procedure on every workload; workload-derived ones are read from the
// layers' exported Stats after the traced workload and are zero where the
// workload does not use the layer.
var perLayer = []metricDef{
	// Layer walk.
	{Name: "shdf.open_us_per_file", Unit: "us", Better: "lower"},
	{Name: "shdf.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "shdf.mapped_read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "shdf.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "genx.read_block_us", Unit: "us", Better: "lower"},
	{Name: "genx.read_block_self_us", Unit: "us", Better: "lower"},
	{Name: "core.commit_us_per_record", Unit: "us", Better: "lower"},
	{Name: "core.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.unit_cycle_us", Unit: "us", Better: "lower"},
	{Name: "remote.ping_us", Unit: "us", Better: "lower"},
	{Name: "remote.fetch_ms_per_unit_cold", Unit: "ms", Better: "lower"},
	{Name: "remote.fetch_ms_per_unit_hot", Unit: "ms", Better: "lower"},
	{Name: "remote.ingest_ms_per_file", Unit: "ms", Better: "lower"},
	{Name: "remote.fetch_after_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "push.publish_us", Unit: "us", Better: "lower"},
	{Name: "push.delivery_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vis.surface_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "vis.iso_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "vis.slice_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "vis.cut_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "vis.cell_to_point_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "vis.magnitude_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "render.draw_ns_per_tri", Unit: "ns", Better: "lower"},
	{Name: "render.png_ms_per_image", Unit: "ms", Better: "lower"},
	// The O/G/TG build triple.
	{Name: "rocketeer.compute_ms_per_snapshot.o", Unit: "ms", Better: "lower"},
	{Name: "rocketeer.compute_ms_per_snapshot.g", Unit: "ms", Better: "lower"},
	{Name: "rocketeer.compute_ms_per_snapshot.tg", Unit: "ms", Better: "lower"},
	{Name: "rocketeer.visible_io_ms_per_snapshot.o", Unit: "ms", Better: "lower"},
	{Name: "rocketeer.visible_io_ms_per_snapshot.g", Unit: "ms", Better: "lower"},
	{Name: "rocketeer.visible_io_ms_per_snapshot.tg", Unit: "ms", Better: "lower"},
	// The traced workload itself: the latency tails (highest percentile
	// with ten samples beyond it; the report in out/ says which).
	{Name: "workload.warm_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "workload.cold_ms_tail", Unit: "ms", Better: "lower"},
	// The traced workload's own layers.
	{Name: "core.bytes_loaded_per_unit", Unit: "bytes", Better: "lower"},
	{Name: "core.read_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "core.visible_wait_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "core.units_prefetched_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.units_evicted", Unit: "count", Better: "lower"},
	{Name: "core.peak_mb", Unit: "MB", Better: "lower"},
	{Name: "core.read_share_of_miss_pct", Unit: "%", Better: "lower"},
	{Name: "remote.rtt_ms_avg", Unit: "ms", Better: "lower"},
	{Name: "remote.rpcs_per_unit", Unit: "count", Better: "lower"},
	{Name: "remote.bytes_in_per_unit", Unit: "bytes", Better: "lower"},
	{Name: "remote.client_bytes_copied_per_unit", Unit: "bytes", Better: "lower"},
	{Name: "remote.server_bytes_copied_per_unit", Unit: "bytes", Better: "lower"},
	{Name: "remote.payload_cache_hit_ratio_cold", Unit: "ratio", Better: "higher"},
	{Name: "remote.payload_cache_hit_ratio_hot", Unit: "ratio", Better: "higher"},
	{Name: "remote.payload_cache_evictions", Unit: "count", Better: "lower"},
	{Name: "remote.reader_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "remote.retries", Unit: "count", Better: "lower"},
	{Name: "remote.errors", Unit: "count", Better: "lower"},
	{Name: "push.delivered", Unit: "count", Better: "higher"},
	{Name: "push.dropped", Unit: "count", Better: "lower"},
	{Name: "generator_lag_ms_p99", Unit: "ms", Better: "lower"},
	// Self time by layer over the traced workload's spans, as a share of
	// its wall time (background reads overlap, so shares can pass 100).
	{Name: "trace.self_pct.rocketeer", Unit: "%", Better: "lower"},
	{Name: "trace.self_pct.core", Unit: "%", Better: "lower"},
	{Name: "trace.self_pct.remote", Unit: "%", Better: "lower"},
	{Name: "trace.self_pct.bench", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// benchmarkJSON renders the declarations as BENCHMARK.json.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}
