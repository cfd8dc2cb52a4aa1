package httpcluster

import (
	"io"
	"net/http"
	"strconv"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
)

// Prometheus-text /metrics exporters. Every node serves its own
// counters, queue gauges and a log-scale service-time histogram; masters
// additionally publish the scheduler's adaptive state — the θ₂
// reservation cap, the measured arrival ratio a and service ratio r, and
// the per-node RSRC cost of the latest load view — so a scrape shows
// exactly what the placement decisions are being made from.
//
// Reads never disturb the scheduler: busy fractions come from
// Resource.BusyFraction (no rstat-window reset) and the view is read
// from the master's immutable snapshot — a scrape takes no lock the
// request path contends on (only the narrow histogram/policy shard).

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

func (n *Node) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", promContentType)
	n.writeMetrics(rw)
}

// writeMetrics emits the node-level families shared by slaves and
// masters.
func (n *Node) writeMetrics(w io.Writer) {
	label := `node="` + strconv.Itoa(n.ID) + `"`
	now := time.Since(n.origin).Seconds()

	executed, cgi := n.executed.Load(), n.cgiServed.Load()
	n.statsMu.Lock()
	rate := n.reqRate.Rate(now)
	hist := *n.svcHist // fixed-size value copy; safe outside the lock
	n.statsMu.Unlock()

	p := obs.NewPromWriter(w)
	p.Header("msweb_node_executed_total", "Requests executed by this node.", "counter")
	p.Value("msweb_node_executed_total", label, float64(executed))
	p.Header("msweb_node_cgi_served_total", "Forked (dynamic) requests executed by this node.", "counter")
	p.Value("msweb_node_cgi_served_total", label, float64(cgi))
	p.Header("msweb_node_cpu_queue", "Jobs queued or running on the virtual CPU.", "gauge")
	p.Value("msweb_node_cpu_queue", label, float64(n.res.CPU.QueueLength()))
	p.Header("msweb_node_disk_queue", "Jobs queued or running on the virtual disk.", "gauge")
	p.Value("msweb_node_disk_queue", label, float64(n.res.Disk.QueueLength()))
	p.Header("msweb_node_cpu_busy_fraction", "Lifetime CPU busy fraction.", "gauge")
	p.Value("msweb_node_cpu_busy_fraction", label, n.res.CPU.BusyFraction())
	p.Header("msweb_node_disk_busy_fraction", "Lifetime disk busy fraction.", "gauge")
	p.Value("msweb_node_disk_busy_fraction", label, n.res.Disk.BusyFraction())
	p.Header("msweb_node_request_rate", "Executed requests per second over the trailing 10s window.", "gauge")
	p.Value("msweb_node_request_rate", label, rate)
	p.Header("msweb_node_shed_total", "Work refused with 503 before queueing (MaxQueue admission).", "counter")
	p.Value("msweb_node_shed_total", label, float64(n.execShed.Load()))
	p.Header("msweb_node_deadline_expired_total", "Work refused with 504: its propagated deadline had already passed.", "counter")
	p.Value("msweb_node_deadline_expired_total", label, float64(n.deadlineExpired.Load()))
	p.Header("msweb_node_frames_served_total", "Binary exec frames answered over persistent connections.", "counter")
	p.Value("msweb_node_frames_served_total", label, float64(n.framesServed.Load()))
	p.Header("msweb_node_listener_shards", "SO_REUSEPORT accept sockets bound to this node's port.", "gauge")
	p.Value("msweb_node_listener_shards", label, float64(len(n.lis)))
	p.Header("msweb_node_frame_conns", "Live persistent frame connections tracked by this node.", "gauge")
	p.Value("msweb_node_frame_conns", label, float64(n.FrameConns()))
	p.Header("msweb_node_edge_conns", "Live connections served by the node's own edge loop (frame connections included; handed-off ones not).", "gauge")
	p.Value("msweb_node_edge_conns", label, float64(n.EdgeConns()))
	p.Header("msweb_node_edge_handoffs_total", "Connections the edge handed to net/http (any head it does not serve natively).", "counter")
	p.Value("msweb_node_edge_handoffs_total", label, float64(n.edgeHandoffs.Load()))
	p.Histogram("msweb_node_service_seconds", "Per-request service time at this node (unscaled seconds).", label, &hist)
}

func (m *Master) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", promContentType)
	m.Node.writeMetrics(rw)

	label := `node="` + strconv.Itoa(m.ID) + `"`
	loads := m.snap.Load().view.Load // immutable snapshot; no copy needed
	failovers := m.failovers.Load()
	m.placeMu.Lock()
	hist := *m.respHist
	backoffs := *m.backoffHist
	var theta, a, r float64
	stats, hasStats := m.policy.(core.AdaptiveStats)
	if hasStats {
		theta, a, r = stats.ThetaLimit(), stats.ArrivalRatio(), stats.ServiceRatio()
	}
	m.placeMu.Unlock()

	p := obs.NewPromWriter(rw)
	p.Header("msweb_scheduler_policy_info", "Scheduling policy identity: constant 1, labeled with the pipeline's stage names.", "gauge")
	if pl, ok := m.policy.(*core.Pipeline); ok {
		p.Value("msweb_scheduler_policy_info",
			label+`,policy="`+pl.Name()+`",admission="`+pl.AdmissionName()+`",routing="`+pl.RoutingName()+`",scheduling="`+m.discipline+`"`, 1)
	} else {
		p.Value("msweb_scheduler_policy_info", label+`,policy="`+m.policy.Name()+`"`, 1)
	}
	if hasStats {
		p.Header("msweb_scheduler_theta2", "Reservation cap: max fraction of dynamics admitted at masters.", "gauge")
		p.Value("msweb_scheduler_theta2", label, theta)
		p.Header("msweb_scheduler_arrival_ratio", "Measured arrival-rate ratio a.", "gauge")
		p.Value("msweb_scheduler_arrival_ratio", label, a)
		p.Header("msweb_scheduler_service_ratio", "Measured service-rate ratio r.", "gauge")
		p.Value("msweb_scheduler_service_ratio", label, r)
	}
	p.Header("msweb_scheduler_rsrc", "RSRC cost of each node in this master's latest load view (w=0.5).", "gauge")
	for id, l := range loads {
		p.Value("msweb_scheduler_rsrc", `node="`+strconv.Itoa(id)+`"`, core.RSRC(core.DefaultW, l.CPUIdle, l.DiskAvail))
	}
	p.Header("msweb_master_failovers_total", "Dynamic requests re-placed after a remote execution failure.", "counter")
	p.Value("msweb_master_failovers_total", label, float64(failovers))
	p.Header("msweb_master_accepted_total", "Requests admitted past parameter validation at this master.", "counter")
	p.Value("msweb_master_accepted_total", label, float64(m.accepted.Load()))
	p.Header("msweb_master_shed_total", "Requests refused with 503 + Retry-After by overload protection.", "counter")
	if m.sharded {
		// Sharded masters split sheds by cause: steady-state overload vs
		// a shard-handoff window after an epoch move. Unsharded masters
		// keep the single unlabeled series (there is no rebalancing to
		// attribute to, and the exposition stays byte-identical).
		shedReb := m.shedRebalance.Load()
		p.Value("msweb_master_shed_total", label+`,reason="overload"`, float64(m.shedCount.Load()-shedReb))
		p.Value("msweb_master_shed_total", label+`,reason="rebalancing"`, float64(shedReb))
	} else {
		p.Value("msweb_master_shed_total", label, float64(m.shedCount.Load()))
	}
	p.Header("msweb_master_exhausted_total", "Dynamics dropped with 502 after the retry budget or deadline ran out.", "counter")
	p.Value("msweb_master_exhausted_total", label, float64(m.exhausted.Load()))
	p.Header("msweb_master_retries_total", "Placement attempts beyond each request's first.", "counter")
	p.Value("msweb_master_retries_total", label, float64(m.retryCount.Load()))
	p.Header("msweb_master_hedges_total", "Tail-hedge dispatches launched.", "counter")
	p.Value("msweb_master_hedges_total", label, float64(m.hedgeCount.Load()))
	p.Header("msweb_master_breaker_state", "Per-node circuit state seen by this master (0 closed, 1 half-open, 2 open).", "gauge")
	for id := range loads {
		p.Value("msweb_master_breaker_state", `node="`+strconv.Itoa(id)+`"`, float64(m.brk.State(id)))
	}
	p.Header("msweb_master_breaker_opens_total", "Per-node circuit open transitions at this master.", "counter")
	for id := range loads {
		p.Value("msweb_master_breaker_opens_total", `node="`+strconv.Itoa(id)+`"`, float64(m.brk.Opens(id)))
	}
	p.Header("msweb_master_piggyback_total", "Piggybacked load reports received on responses (all transports).", "counter")
	p.Value("msweb_master_piggyback_total", label, float64(m.piggyTotal.Load()))
	p.Header("msweb_master_poll_skipped_total", "Poll rounds skipped per node because a piggybacked report was younger than the poll interval.", "counter")
	p.Value("msweb_master_poll_skipped_total", label, float64(m.pollSkipped.Load()))
	p.Header("msweb_master_frame_dials_total", "Persistent binary-frame connections dialed and upgraded.", "counter")
	p.Value("msweb_master_frame_dials_total", label, float64(m.frameDials.Load()))
	p.Header("msweb_master_view_staleness_seconds", "Age of this master's freshest load information per node (-1 = never updated).", "gauge")
	nowNs := time.Now().UnixNano()
	for id := range loads {
		p.Value("msweb_master_view_staleness_seconds", `node="`+strconv.Itoa(id)+`"`, m.fresh.AgeSeconds(id, nowNs))
	}
	p.Histogram("msweb_master_retry_backoff_seconds", "Retry backoff sleeps actually taken before re-placement.", label, &backoffs)
	p.Histogram("msweb_master_response_seconds", "Client-visible /req response time at this master (unscaled seconds).", label, &hist)

	if m.sharded {
		ms := m.mem.Load()
		p.Header("msweb_master_placement_local_total", "Requests served on this master's own shard.", "counter")
		p.Value("msweb_master_placement_local_total", label, float64(m.quality.Local.Load()))
		p.Header("msweb_master_placement_spilled_total", "Shed dynamics successfully spilled to a remote shard.", "counter")
		p.Value("msweb_master_placement_spilled_total", label, float64(m.quality.Spilled.Load()))
		p.Header("msweb_master_placement_spill_failures_total", "Failed spill dispatch attempts (each retried or shed).", "counter")
		p.Value("msweb_master_placement_spill_failures_total", label, float64(m.quality.SpillFailed.Load()))
		p.Header("msweb_master_shard_summaries_total", "Remote shard summaries folded in (gossip pulls + piggybacked).", "counter")
		p.Value("msweb_master_shard_summaries_total", label, float64(m.gossipRx.Load()))
		p.Header("msweb_master_shard_summary_age_seconds", "Age of the freshest summary held per remote shard (-1 = never heard).", "gauge")
		for s := 0; s < ms.sm.NumShards(); s++ {
			if s == ms.shard {
				continue
			}
			p.Value("msweb_master_shard_summary_age_seconds", `shard="`+strconv.Itoa(s)+`"`, m.shardFresh.AgeSeconds(s, nowNs))
		}
		p.Header("msweb_master_epoch", "Shard-map epoch this master currently operates under.", "gauge")
		p.Value("msweb_master_epoch", label, float64(ms.sm.Epoch()))
		p.Header("msweb_master_membership_applies_total", "Membership generations adopted by this master (newest-wins).", "counter")
		p.Value("msweb_master_membership_applies_total", label, float64(m.memberApplies.Load()))
	}
}
