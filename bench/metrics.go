package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the base's median by which an end-to-end
	// metric may get worse before -compare calls it worse; Floor is an
	// absolute change that must also be exceeded, for metrics whose base
	// can be tiny. Per-layer metrics have neither.
	Bound float64 `json:"bound,omitempty"`
	Floor float64 `json:"floor,omitempty"`
	// Moves says which end-to-end metric, on which workload, a change to
	// this per-layer metric should move.
	Moves string `json:"moves,omitempty"`
}

// endToEnd are the metrics a user of the library would see, defined on
// every workload. What "op" is on each workload is in its alias table.
// The times among them are speed-adjusted (rig.go, reference): scaled to
// what they would read with the machine at its usual speed. The raw
// readings are per-layer metrics of the same name without "adj".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "op_p50_adj_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_adj_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_adj_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10, Floor: 0.5},
}

// perLayer are the metrics of single layers, prefixed with the module.
// A metric that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s, op_p50_us on write_tcp; not *_inproc"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s, op_p50_us on write_tcp; not *_inproc"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower", Moves: "allocs_per_op on *_tcp"},

	{Name: "transport.inproc_hop_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on write_inproc, contend_inproc"},
	{Name: "transport.tcp_hop_us", Unit: "us", Better: "lower", Moves: "op_p50_us on write_tcp; lock_rtt_p50_us on section_tcp"},
	{Name: "transport.tcp_stream_frames_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on write_tcp"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower", Moves: "cpu_us_per_op everywhere"},
	{Name: "transport.bytes_per_op", Unit: "count", Better: "lower", Moves: "cpu_us_per_op everywhere"},
	{Name: "transport.frames_per_writev", Unit: "count", Better: "higher", Moves: "ops_per_s on write_tcp only"},
	{Name: "transport.send_call_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s (time on the caller's goroutine)"},
	{Name: "transport.send_drops", Unit: "count", Better: "lower", Moves: "must be 0, else failed operations"},
	{Name: "transport.decode_errors", Unit: "count", Better: "lower", Moves: "must be 0, else failed operations"},
	{Name: "transport.conn_resets", Unit: "count", Better: "lower", Moves: "must be 0, else failed operations"},

	{Name: "gwc.store_us", Unit: "us", Better: "lower", Moves: "op_p50_us on write_*"},
	{Name: "transport.up_us", Unit: "us", Better: "lower", Moves: "op_p50_us on write_*"},
	{Name: "gwc.root_seq_us", Unit: "us", Better: "lower", Moves: "op_p50_us on write_*; the rung a node-lock or seqRing change must move on write_inproc"},
	{Name: "transport.down_us", Unit: "us", Better: "lower", Moves: "op_p50_us on write_*"},
	{Name: "gwc.apply_us", Unit: "us", Better: "lower", Moves: "op_p50_us on write_*; the rung a node-lock change must move on write_inproc"},

	{Name: "gwc.lock_req_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us on section_tcp"},
	{Name: "transport.lock_up_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us on section_tcp"},
	{Name: "gwc.root_grant_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us on section_tcp"},
	{Name: "transport.lock_down_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us on section_tcp"},
	{Name: "gwc.grant_wake_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us on section_tcp"},
	{Name: "gwc.release_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us on section_tcp"},

	{Name: "gwc.read_ns", Unit: "ns", Better: "lower", Moves: "local_read_ns"},
	{Name: "gwc.root_local_lock_rtt_us", Unit: "us", Better: "lower", Moves: "lock_rtt_p50_us minus the member-root hops"},
	{Name: "gwc.lock_frames_per_section", Unit: "count", Better: "lower", Moves: "lock_rtt_p50_us, ops_per_s on the section workloads (3 uncontended)"},
	{Name: "gwc.suppressed_per_section", Unit: "count", Better: "lower", Moves: "ops_per_s on contend_inproc"},
	{Name: "gwc.gaps", Unit: "count", Better: "lower", Moves: "0 without faults; else explains op_p99_us"},
	{Name: "gwc.nacks", Unit: "count", Better: "lower", Moves: "0 without faults; else explains op_p99_us"},
	{Name: "gwc.retransmits", Unit: "count", Better: "lower", Moves: "0 without faults; else explains op_p99_us"},
	{Name: "gwc.duplicates", Unit: "count", Better: "lower", Moves: "0 without faults; else explains op_p99_us"},

	{Name: "core.spec_entry_us", Unit: "us", Better: "lower", Moves: "op_p50_us on section_tcp"},
	{Name: "core.commit_wait_us", Unit: "us", Better: "lower", Moves: "op_p50_us on section_tcp: the latency that was not hidden"},
	{Name: "core.engine_overhead_us", Unit: "us", Better: "lower", Moves: "op_p50_us on section_tcp, contend_inproc"},
	{Name: "core.rollback_share", Unit: "share", Better: "lower", Moves: "ops_per_s, op_p99_us on contend_inproc; 0 on section_tcp"},
	{Name: "core.regular_share", Unit: "share", Better: "lower", Moves: "ops_per_s on contend_inproc"},
	{Name: "core.rollback_p50_us", Unit: "us", Better: "lower", Moves: "op_p99_us on contend_inproc (obs histogram: 2x buckets)"},
	{Name: "core.opt_speedup", Unit: "ratio", Better: "higher", Moves: "the paper's headline, section_regular_p50_us / op_p50_us on section_tcp; reported, never gated"},

	{Name: "optsync.facade_ns", Unit: "ns", Better: "lower", Moves: "local_read_ns"},

	{Name: "proc.mutex_wait_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s, local_read_ns: node-lock contention seen from outside"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower", Moves: "cpu_us_per_op, allocs_per_op"},
	{Name: "proc.bytes_per_op", Unit: "count", Better: "lower", Moves: "cpu_us_per_op, allocs_per_op"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "cpu_us_per_op, allocs_per_op"},
	{Name: "proc.sched_lat_p99_us", Unit: "us", Better: "lower", Moves: "the rig's own noise; above 1000 the run is marked noisy"},

	{Name: "rig.ref_ns", Unit: "ns", Better: "lower", Moves: "nothing of the program's: the rig's own lock-and-map operation, timed every millisecond beside the workload; 20 at this rig's usual speed, and what the adjusted metrics are scaled by"},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_adj_us before speed adjustment: microseconds as they passed"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Moves: "ops_adj_per_s before speed adjustment"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Moves: "cpu_adj_us_per_op before speed adjustment"},

	// End-to-end candidates that are not gated (README.md, "Demoted"):
	// the first two did not repeat within a 25 % bound on this box, the
	// others exist on one or two workloads only and the driver wants
	// every end-to-end metric on every workload. Not speed-adjusted.
	{Name: "op_p99_us", Unit: "us", Better: "lower", Moves: "the tail of op_p50_us's operation, same workloads"},
	{Name: "local_read_ns", Unit: "ns", Better: "lower", Moves: "write_*: a Handle.Read at member 2 beside the write traffic; shows a write-path gain bought with read-path cost"},
	{Name: "lock_rtt_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on section_tcp"},
	{Name: "lock_rtt_p99_us", Unit: "us", Better: "lower", Moves: "ops_per_s on section_tcp"},
	{Name: "section_regular_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on section_tcp; numerator of core.opt_speedup"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "traced against untraced op_p50_us: what the spans cost"},
	{Name: "trace.write_sum_err", Unit: "share", Better: "lower", Moves: "how far the five write stages are from adding up to the traced whole"},
	{Name: "trace.lock_sum_err", Unit: "share", Better: "lower", Moves: "how far the six lock stages are from adding up to the traced whole"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower", Moves: "must be 0"},
}
