package main

// metricDef names one reported quantity. The tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names,
// units, directions and bounds (bench_test.go holds the two equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening
}

// endToEnd are the user-visible metrics, reported by every workload of
// an untraced run. A bound has to hold on every workload, so each is
// set by the least steady one — catchup_repair for most: two to three
// times the interquartile spread seen there (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_record", "us", "lower", 0.25},
	{"allocs_per_record", "count", "lower", 0.25},
	{"wire_bytes_per_record", "B", "lower", 0.25},
	{"heap_bytes_per_record", "B", "lower", 0.20},
	{"t_vis_p50_ms", "ms", "lower", 0.25},
	{"t_vis_p95_ms", "ms", "lower", 0.20},
	{"t_vis_p99_ms", "ms", "lower", 0.20},
	{"stale_fraction", "ratio", "lower", 0.15},
}

// perLayer are the single-layer metrics of a traced run, named
// <module>.<metric>. They carry no bound: they explain a move in an
// end-to-end metric, they do not gate one.
var perLayer = []metricDef{
	{Name: "protocol.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "protocol.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "protocol.encode_b1_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "protocol.decode_b1_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "protocol.encode_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "protocol.decode_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "protocol.framing_bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "table.put_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "table.put_parallel_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "table.update_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "table.apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "table.sweep_idle_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "table.put_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "table.heap_bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "namespace.put_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "namespace.root_1dirty_ns", Unit: "ns", Better: "lower"},
	{Name: "namespace.root_alldirty_ns", Unit: "ns", Better: "lower"},
	{Name: "namespace.children_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "namespace.diff_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "namespace.put_allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "sched.pick_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "congestion.allow_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "netio.write_ns_per_datagram_b1", Unit: "ns", Better: "lower"},
	{Name: "netio.write_ns_per_datagram_b16", Unit: "ns", Better: "lower"},
	{Name: "netio.read_ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "netio.allocs_per_datagram", Unit: "count", Better: "lower"},

	{Name: "transport.mem_ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "transport.mem_allocs_per_datagram", Unit: "count", Better: "lower"},
	{Name: "transport.udp_ns_per_datagram", Unit: "ns", Better: "lower"},
	{Name: "transport.data_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.control_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.lost_datagrams", Unit: "count", Better: "lower"},

	{Name: "sstp.publish_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sstp.publish_p99_us", Unit: "us", Better: "lower"},
	{Name: "sstp.records_per_datagram", Unit: "count", Better: "higher"},
	{Name: "sstp.fresh_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sstp.nacks_per_record", Unit: "count", Better: "lower"},
	{Name: "sstp.queries_per_record", Unit: "count", Better: "lower"},
	{Name: "sstp.nack_suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sstp.send_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sstp.send_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "sstp.dispatch_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "sstp.dispatch_lag_p99_us", Unit: "us", Better: "lower"},

	{Name: "relay.hop_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "relay.hop_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "relay.local_repair_ratio", Unit: "ratio", Better: "higher"},
	{Name: "relay.forwarded", Unit: "count", Better: "lower"},

	{Name: "fabric.fq_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "fabric.datagrams_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fabric.share_error", Unit: "ratio", Better: "lower"},
	{Name: "fabric.demux_drops", Unit: "count", Better: "lower"},
	{Name: "fabric.starved_tenants", Unit: "count", Better: "lower"},

	{Name: "gossip.bytes_per_delivery", Unit: "B", Better: "lower"},
	{Name: "gossip.divergence_ratio", Unit: "ratio", Better: "lower"},
	{Name: "gossip.served_per_applied", Unit: "ratio", Better: "lower"},
	{Name: "gossip.rate_dropped", Unit: "count", Better: "lower"},
	{Name: "gossip.evict_ms", Unit: "ms", Better: "lower"},
	{Name: "gossip.rejoin_ms", Unit: "ms", Better: "lower"},

	{Name: "staleness.observe_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "staleness.consistency_error", Unit: "ratio", Better: "lower"},
	{Name: "staleness.tvis_p50_error", Unit: "ratio", Better: "lower"},

	{Name: "obs.observe_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "bench.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.failed_fraction", Unit: "ratio", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_fraction", Unit: "ratio", Better: "lower"},
	{Name: "bench.layer_cpu_coverage", Unit: "ratio", Better: "higher"},
}

// workloadDef names one workload and says why it exists; README.md has
// the long form.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env) (*outcome, error)
}
