package main

// The benchmark's declared surface: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root states the same lists for the driver; bench_test.go
// fails when the two disagree.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"frame_dynamic", "1 master + 3 slaves, Q frames, all dynamic: every request crosses admission, RSRC placement, booking, E-frame dispatch and slave exec; the HTTP edge is bypassed"},
	{"http_static", "same cluster, HTTP/1.1 keep-alive GET /req, all static: accept/parse/response-write dominate; placement, dispatch and slaves are bypassed"},
	{"sharded_mix", "2 masters x 2 shards + 6 slaves, Q frames, KSU mix (29 % dynamic): static and dynamic interleave with shard-local placement, gossip and membership live"},
	{"sim_fig4_cells", "simulator, request-event dominated: UCB/KSU/ADL x {ms, flat} cells at p=32, rho=0.65, 1/r=40; control-plane code does almost none of the work"},
	{"sim_sharded_autoscale", "simulator, control-plane dominated: p=512, 16 shards, diurnal KSU traces, online Theorem-1 autoscaler with slave power-off and an SLO"},
}

// End-to-end metrics are defined on all five workloads, because the
// driver asks every run for every one of them. On the live workloads
// they are wall-clock quantities seen by the client; on the simulator
// workloads req_per_s is simulated requests completed per host second
// and the latencies are host time per simulated request of a pass's
// median and slowest cell (see README.md).
var endToEnd = []metricSpec{
	{"req_per_s", "req/s", "higher", 0.2},
	{"latency_p50_us", "us", "lower", 0.2},
	{"latency_p99_us", "us", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics, name = <module>.<metric>. Probe timings are
// measured in every traced run. Counters of the live plane read 0 on
// the simulator workloads and the other way round; no time-valued
// metric is ever a placeholder.
var perLayer = []metricSpec{
	// Probes around exported calls (harness-side timing).
	{"trace.generate_ns_per_req", "ns", "lower", 0},
	{"core.sample_w_ns_per_req", "ns", "lower", 0},
	{"core.place_ns", "ns", "lower", 0},
	{"core.place_allocs", "count", "lower", 0},
	{"core.loadwire_parse_ns", "ns", "lower", 0},
	{"core.shardsummary_build_ns", "ns", "lower", 0},
	{"core.shardsummary_parse_ns", "ns", "lower", 0},
	{"queuemodel.optimal_plan_ns", "ns", "lower", 0},
	{"sim.schedule_fire_ns", "ns", "lower", 0},
	{"sim.schedule_fire_allocs", "count", "lower", 0},
	{"simos.job_ns", "ns", "lower", 0},
	{"simos.job_allocs", "count", "lower", 0},
	{"experiments.fig4_quick_s", "s", "lower", 0},
	{"experiments.grid_speedup", "ratio", "higher", 0},
	{"httpcluster.master.req_static_ns", "ns", "lower", 0},
	{"httpcluster.master.req_static_allocs", "count", "lower", 0},
	{"httpcluster.master.req_dynamic_local_ns", "ns", "lower", 0},
	{"httpcluster.master.req_dynamic_local_allocs", "count", "lower", 0},
	{"httpcluster.node.exec_ns", "ns", "lower", 0},
	{"httpcluster.node.exec_allocs", "count", "lower", 0},
	{"httpcluster.frame.q_roundtrip_ns", "ns", "lower", 0},
	{"httpcluster.frame.q_dynamic_roundtrip_ns", "ns", "lower", 0},
	{"httpcluster.http.req_roundtrip_ns", "ns", "lower", 0},
	{"httpcluster.resource.use_fast_ns", "ns", "lower", 0},
	{"obs.histogram_observe_ns", "ns", "lower", 0},
	// Residuals derived from the probes above.
	{"httpcluster.edge.frame_residual_ns", "ns", "lower", 0},
	{"httpcluster.edge.http_residual_ns", "ns", "lower", 0},
	{"httpcluster.dispatch.hop_residual_ns", "ns", "lower", 0},
	// Simulator workload counters (0 on the live workloads).
	{"sim_stretch_factor", "ratio", "lower", 0},
	{"sim_slo_attainment", "ratio", "higher", 0},
	{"sim_node_hours", "node-h", "lower", 0},
	{"cluster.events_per_req", "count", "lower", 0},
	{"cluster.events_per_s", "1/s", "higher", 0},
	{"cluster.allocs_per_req", "count", "lower", 0},
	{"cluster.shard.polled_per_tick", "count", "lower", 0},
	{"cluster.shard.summary_age_gossips", "ratio", "lower", 0},
	{"cluster.shard.spilled", "count", "lower", 0},
	{"cluster.autoscale.promotions", "count", "lower", 0},
	{"cluster.autoscale.demotions", "count", "lower", 0},
	{"cluster.remote_dynamic_share", "ratio", "higher", 0},
	// Live workload counters (0 on the simulator workloads).
	{"httpcluster.master.accepted", "count", "higher", 0},
	{"httpcluster.master.served", "count", "higher", 0},
	{"httpcluster.master.shed", "count", "lower", 0},
	{"httpcluster.master.exhausted", "count", "lower", 0},
	{"httpcluster.master.retries", "count", "lower", 0},
	{"httpcluster.master.hedges", "count", "lower", 0},
	{"httpcluster.master.failovers", "count", "lower", 0},
	{"httpcluster.master.remote_share", "ratio", "higher", 0},
	{"httpcluster.node.executed_cv", "ratio", "lower", 0},
	{"httpcluster.master.piggyback_per_req", "ratio", "higher", 0},
	{"httpcluster.master.poll_skipped_share", "ratio", "higher", 0},
	{"httpcluster.master.view_staleness_refreshes", "ratio", "lower", 0},
	{"httpcluster.master.frame_dials", "count", "lower", 0},
	{"httpcluster.master.placement_local", "count", "higher", 0},
	{"httpcluster.master.placement_spilled", "count", "lower", 0},
	{"httpcluster.master.shard_summaries", "count", "higher", 0},
	{"httpcluster.master.shard_summary_age_gossips", "ratio", "lower", 0},
	{"httpcluster.master.epoch", "count", "lower", 0},
	{"httpcluster.master.response_share", "ratio", "lower", 0},
	{"httpcluster.node.cpu_busy_fraction", "ratio", "lower", 0},
	// Process and harness.
	{"fail_share", "ratio", "lower", 0},
	{"proc.cpu_s_per_kreq", "s", "lower", 0},
	{"proc.cpu_util", "ratio", "higher", 0},
	{"proc.allocs_per_req", "count", "lower", 0},
	{"proc.gc_pause_share", "ratio", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"trace_overhead_share", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}
