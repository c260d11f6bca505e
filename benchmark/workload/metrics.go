package workload

// Def describes one reported metric: the shape BENCHMARK.json records.
type Def struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// EndToEndDefs are the four metrics a user of the system sees, the same
// on every workload. BENCHMARK.json holds one list of bounds for all
// five workloads, so a bound is set by the workload on which the metric
// repeats worst: three times the largest quartile distance ten seeds
// showed on the 2-core VM this was sized on (README.md, "Steadiness"),
// capped at the contract's 0.25, which every column reaches. ISSUE 12
// asked for 0.10; the builder's contract wants every spread below a
// third of its bound, and at 0.10 that holds for one cell of twenty.
var EndToEndDefs = []Def{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// LayerDefs are the per-layer metrics of the traced run. The client.*,
// proc.*, obs.*, frames.*, segment.*, agg.*_per_batch|maxops_avg|flush_age_frac
// and svc.*_frac ones are measured in every workload's traced run, off
// its own window and mesh; each probe only in the traced run of the
// workload it explains (probeGroups) and reported as 0 in the others.
// None is gated. README.md says which end-to-end number each should move.
var LayerDefs = []Def{
	{Name: "svc.handler_stub_put_us", Unit: "us", Better: "lower"},
	{Name: "svc.handler_stub_get_us", Unit: "us", Better: "lower"},
	{Name: "svc.http_stub_rtt_us", Unit: "us", Better: "lower"},
	{Name: "svc.store_put_us", Unit: "us", Better: "lower"},
	{Name: "svc.store_get_us", Unit: "us", Better: "lower"},
	{Name: "svc.batch64_us_per_key", Unit: "us", Better: "lower"},
	{Name: "svc.rejected_frac", Unit: "frac", Better: "lower"},
	{Name: "svc.errs_5xx_frac", Unit: "frac", Better: "lower"},

	{Name: "dht.proc_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "dht.proc_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "dht.wire_insert_us", Unit: "us", Better: "lower"},
	{Name: "dht.wire_lookup_us", Unit: "us", Better: "lower"},
	{Name: "dht.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "dht.repairs_per_kop", Unit: "count", Better: "lower"},

	{Name: "core.task_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "core.finish_drain_frac", Unit: "frac", Better: "lower"},
	{Name: "core.finish_local_ns", Unit: "ns", Better: "lower"},
	{Name: "core.future_then_ns", Unit: "ns", Better: "lower"},
	{Name: "core.rpc_rtt_us", Unit: "us", Better: "lower"},

	{Name: "rpc.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.frames_per_rpc", Unit: "count", Better: "lower"},
	{Name: "rpc.allocs_per_rpc", Unit: "count", Better: "lower"},

	{Name: "agg.append_ns", Unit: "ns", Better: "lower"},
	{Name: "agg.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "agg.maxops_avg", Unit: "count", Better: "higher"},
	{Name: "agg.flush_age_frac", Unit: "frac", Better: "lower"},

	{Name: "gasnet.wire_put8_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.wire_get8_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.wire_xor64_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.wire_put32k_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.wire_get32k_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.wire_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "gasnet.hier_barrier_2x2_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.hier_allgather_2x2_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.hier_barrier_4x1_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.wire_barrier4_us", Unit: "us", Better: "lower"},
	{Name: "gasnet.shm_put8_ns", Unit: "ns", Better: "lower"},
	{Name: "gasnet.shm_msgs_per_coll", Unit: "count", Better: "lower"},
	{Name: "gasnet.wire_frames_per_coll", Unit: "count", Better: "lower"},

	{Name: "transport.loopback_rtt8_us", Unit: "us", Better: "lower"},
	{Name: "transport.loopback_rtt32k_us", Unit: "us", Better: "lower"},
	{Name: "transport.send_ns", Unit: "ns", Better: "lower"},

	{Name: "frames.getput_ns", Unit: "ns", Better: "lower"},
	{Name: "frames.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "frames.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "segment.alloc_free_ns", Unit: "ns", Better: "lower"},

	{Name: "client.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.window_spread", Unit: "frac", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "budget.gate_unexplained_frac", Unit: "frac", Better: "lower"},
	{Name: "budget.small_unexplained_frac", Unit: "frac", Better: "lower"},
}
