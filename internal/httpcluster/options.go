package httpcluster

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
)

// Default resilience values. They reproduce the pre-resilience
// constants: a 120 s dispatch bound (the old fixed http.Client timeout),
// three placement attempts (the old failover loop) and immediate
// retries.
const (
	DefaultDispatchTimeout = 120 * time.Second
	DefaultRetryBudget     = 3
)

// pollDeadlineFloor floors the shared /load fan-out deadline (and the
// control plane's other per-round deadlines) so very fast polling
// periods do not misclassify briefly-slow nodes as failed.
const pollDeadlineFloor = 100 * time.Millisecond

// retryBackoffCap bounds the retry backoff at this multiple of
// Resilience.RetryBackoff.
const retryBackoffCap = 16

// Resilience bundles the live data plane's failure-handling knobs:
// request deadlines, the retry budget with backoff, tail hedging,
// per-node circuit breakers, and overload shedding. The zero value
// resolves to defaults matching the old hard-coded behavior (plus
// reservation-gated shedding when every slave is circuit-open — see
// DisableShedding).
type Resilience struct {
	// Breaker tunes the per-node circuit breakers that replace the old
	// fixed failHoldDown (see BreakerConfig; Breaker.OpenFor is the
	// configurable successor of that constant).
	Breaker BreakerConfig
	// DispatchTimeout is the default per-request deadline when the
	// client sends no X-Msweb-Timeout-Ms header, and the bound on every
	// master→slave frame exchange.
	DispatchTimeout time.Duration
	// RetryBudget is the maximum number of placement attempts for one
	// dynamic request, across distinct nodes where possible.
	RetryBudget int
	// RetryBackoff is the base of the capped-exponential-full-jitter
	// backoff between attempts: attempt k sleeps uniform[0, min(
	// RetryBackoff·2^(k−1), 16·RetryBackoff)]. 0 retries immediately
	// (the old behavior).
	RetryBackoff time.Duration
	// HedgeAfter launches a second attempt for an idempotent dynamic
	// request whose first dispatch is still in flight after this long;
	// the first success wins. 0 disables hedging.
	HedgeAfter time.Duration
	// MaxInflight bounds concurrently admitted /req requests; above it
	// requests are shed with 503 + Retry-After. 0 = unbounded.
	MaxInflight int
	// MaxQueue sheds exec work with 503 *before* it queues when the
	// node's combined CPU+disk queue population is at least MaxQueue.
	// 0 = unbounded.
	MaxQueue int
	// ShedRSRC additionally sheds dynamics when every slave is
	// circuit-open and this master's own RSRC cost is at least ShedRSRC
	// (its resources are too busy to absorb CGI work without starving
	// statics). 0 disables the RSRC rule; the reservation rule below
	// still applies.
	ShedRSRC float64
	// DisableShedding turns off dynamic-request shedding entirely,
	// restoring the old unconditional local-fallback behavior. With
	// shedding on (the default), a dynamic request is shed with 503 +
	// Retry-After when every slave is circuit-open AND the θ₂
	// reservation denies master admission — the paper's reservation
	// feedback loop extended into admission control.
	DisableShedding bool
}

// withDefaults fills zero fields.
func (r Resilience) withDefaults() Resilience {
	r.Breaker = r.Breaker.withDefaults()
	if r.DispatchTimeout <= 0 {
		r.DispatchTimeout = DefaultDispatchTimeout
	}
	if r.RetryBudget <= 0 {
		r.RetryBudget = DefaultRetryBudget
	}
	return r
}

// NodeOptions configures one live node or master. It replaces the
// positional-argument Start* constructors: the redesigned entry points
// LaunchNode and LaunchMaster validate an options struct, so adding a
// knob no longer changes every call site and mixed-up arguments fail
// loudly instead of silently swapping periods.
type NodeOptions struct {
	// ID is the node's cluster-wide id (index into NodeURLs).
	ID int
	// Origin is the cluster's common epoch for virtual-time accounting.
	// The zero value means "now".
	Origin time.Time
	// TimeScale multiplies every service duration; 0 means real time (1).
	TimeScale float64
	// Uncalibrated switches the node's virtual resources to fast mode:
	// service demand is charged to a virtual clock instead of being slept
	// off, so exec completes at CPU speed while load reports (and thus
	// RSRC placement) still reflect the offered demand. This uncaps the
	// data plane for throughput work; calibrated mode (the default)
	// remains the paper-faithful configuration.
	Uncalibrated bool
	// Discipline selects the node's CPU scheduling discipline:
	// core.DisciplineMLFQ / DisciplineRR (both the default 10 ms
	// round-robin slicing — the live plane has no priority decay, so
	// MLFQ degenerates to RR) or DisciplineFCFS (run-to-completion:
	// the quantum is stretched past any realistic service demand).
	Discipline string
	// ListenerShards is how many SO_REUSEPORT accept sockets the node
	// binds to its one loopback port, each with its own accept loop, so
	// connection setup and the persistent-frame read paths spread across
	// cores instead of serializing on one listener goroutine (see
	// listener.go). 0 or 1 keeps the single pre-sharding listener; on
	// platforms without SO_REUSEPORT the option quietly degrades to 1
	// (Node.ListenerShards reports the effective count).
	ListenerShards int
	// Resilience tunes deadlines, retries, breakers and shedding. Nodes
	// consult only Resilience.MaxQueue; masters use all of it.
	Resilience Resilience
	// Tracer receives request lifecycle events (arrival, retry, shed,
	// exhausted, complete) from a master's /req path. nil disables
	// tracing. A live master emits from concurrent handlers, so the
	// tracer must be safe for concurrent use (unlike the simulator's
	// single-threaded JSONL tracer).
	Tracer obs.Tracer

	// The remaining fields configure masters only and are ignored by
	// LaunchNode.

	// Masters and Slaves list the node ids of each tier.
	Masters, Slaves []int
	// NodeURLs maps every node id to its base URL. The master's own slot
	// may be empty — it is filled with the launched server's URL.
	NodeURLs []string
	// Policy is the scheduling policy this master runs.
	Policy core.Policy
	// LoadRefresh is the /load polling period; PolicyTick the policy
	// adaptation period.
	LoadRefresh, PolicyTick time.Duration
	// Shards partitions the slave fleet across the master tier: master i
	// of Masters owns shard i, polls only its members, and spills shed
	// dynamics to remote shards via gossiped summaries (see shard.go).
	// 0 or 1 keeps the unsharded single-view master, byte-identical to
	// the pre-sharding behavior. Values > 1 must equal len(Masters).
	Shards int
	// ShardMapMode picks the partition function: core.ShardHash
	// (consistent-hash ring, the default) or core.ShardStatic
	// (position-modulo).
	ShardMapMode string
	// GossipEvery is the master↔master /shard pull period (default
	// 4×LoadRefresh — deliberately slow; piggybacked summaries are the
	// fast path).
	GossipEvery time.Duration
	// AutoscaleMasters > 0 enables the live master-tier autoscaler on
	// sharded masters: every period, the lowest-id master re-runs the
	// Theorem 1 optimal-m computation against its measured per-class
	// load and announces promote/demote membership changes (see
	// membership.go). Only the initial Masters can be promoted — a plain
	// LaunchNode slave has no /req pipeline — so promotions re-admit
	// previously demoted masters. 0 keeps the tier fixed.
	AutoscaleMasters time.Duration
}

// Validate reports option errors. Master-only fields are checked only
// when master is true.
func (o NodeOptions) Validate(master bool) error {
	switch {
	case o.ID < 0:
		return fmt.Errorf("httpcluster: negative node id %d", o.ID)
	case o.TimeScale < 0:
		return fmt.Errorf("httpcluster: negative time scale %v", o.TimeScale)
	case o.Resilience.MaxInflight < 0 || o.Resilience.MaxQueue < 0:
		return fmt.Errorf("httpcluster: negative admission bounds %+v", o.Resilience)
	case o.ListenerShards < 0 || o.ListenerShards > 256:
		return fmt.Errorf("httpcluster: listener shards %d outside [0, 256]", o.ListenerShards)
	}
	switch o.Discipline {
	case "", core.DisciplineMLFQ, core.DisciplineRR, core.DisciplineFCFS:
	default:
		return fmt.Errorf("httpcluster: unknown scheduling discipline %q", o.Discipline)
	}
	if !master {
		return nil
	}
	switch {
	case o.Policy == nil:
		return fmt.Errorf("httpcluster: master %d needs a policy", o.ID)
	case o.LoadRefresh <= 0 || o.PolicyTick <= 0:
		return fmt.Errorf("httpcluster: master %d needs positive polling periods", o.ID)
	case o.ID >= len(o.NodeURLs):
		return fmt.Errorf("httpcluster: master id %d outside NodeURLs (len %d)", o.ID, len(o.NodeURLs))
	}
	for _, ids := range [][]int{o.Masters, o.Slaves} {
		for _, id := range ids {
			if id < 0 || id >= len(o.NodeURLs) {
				return fmt.Errorf("httpcluster: tier lists node %d outside NodeURLs (len %d)", id, len(o.NodeURLs))
			}
		}
	}
	if o.Shards > 1 {
		if o.Shards != len(o.Masters) {
			return fmt.Errorf("httpcluster: %d shards need exactly that many masters (have %d)", o.Shards, len(o.Masters))
		}
		switch o.ShardMapMode {
		case "", core.ShardHash, core.ShardStatic:
		default:
			return fmt.Errorf("httpcluster: unknown shard map mode %q", o.ShardMapMode)
		}
	}
	if o.GossipEvery < 0 {
		return fmt.Errorf("httpcluster: negative gossip period %v", o.GossipEvery)
	}
	if o.AutoscaleMasters < 0 {
		return fmt.Errorf("httpcluster: negative autoscale period %v", o.AutoscaleMasters)
	}
	if o.AutoscaleMasters > 0 && o.Shards <= 1 {
		return fmt.Errorf("httpcluster: master autoscaling requires a sharded master tier (Shards > 1)")
	}
	return nil
}

// withDefaults fills the zero values.
func (o NodeOptions) withDefaults() NodeOptions {
	if o.Origin.IsZero() {
		o.Origin = time.Now()
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	o.Resilience = o.Resilience.withDefaults()
	return o
}

// LaunchNode starts a slave node server on a loopback ephemeral port.
// Only ID, Origin, TimeScale, ListenerShards, Uncalibrated, Discipline
// and Resilience.MaxQueue are consulted.
func LaunchNode(o NodeOptions) (*Node, error) {
	if err := o.Validate(false); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n, err := newNode(o)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/exec", n.handleExec)
	mux.HandleFunc("/load", n.handleLoad)
	mux.HandleFunc("/metrics", n.handleMetrics)
	n.serve(mux)
	return n, nil
}

// LaunchMaster starts a master node server on a loopback ephemeral port.
func LaunchMaster(o NodeOptions) (*Master, error) {
	if err := o.Validate(true); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n, err := newNode(o)
	if err != nil {
		return nil, err
	}
	// A pipeline policy owns the whole master-absorption decision: hand
	// it the RSRC shed ceiling so its gate and the legacy inline rule
	// cannot disagree.
	if pl, ok := o.Policy.(*core.Pipeline); ok {
		pl.SetShedRSRC(o.Resilience.ShedRSRC)
	}
	m := &Master{
		Node:   n,
		policy: o.Policy,
		// The control plane's client: load polls, gossip pulls and
		// membership announces. No global timeout — each call carries its
		// own context deadline — and net/http's default pool sizes: these
		// calls are a few per peer per period.
		client:      &http.Client{Transport: &http.Transport{}},
		stop:        make(chan struct{}),
		self:        [1]int{o.ID},
		rs:          o.Resilience,
		tracer:      o.Tracer,
		urls:        make([]atomic.Pointer[string], len(o.NodeURLs)),
		brk:         newBreakerSet(len(o.NodeURLs), o.Resilience.Breaker),
		respHist:    obs.NewHistogram(),
		backoffHist: obs.NewHistogram(),
		// Piggybacked load reports are always on (nodes that never answer
		// a frame simply never fill their slot).
		piggy:          make([]piggySlot, len(o.NodeURLs)),
		piggyAppliedAt: make([]int64, len(o.NodeURLs)),
		fresh:          obs.NewFreshness(len(o.NodeURLs)),
	}
	m.frames = newFrameDialer(m, len(o.NodeURLs))
	for id, u := range o.NodeURLs {
		if u != "" {
			m.SetNodeURL(id, u)
		}
	}
	m.SetNodeURL(o.ID, m.URL)

	// The scheduling view: the whole cluster when unsharded, this
	// master's own shard (itself plus its shard's slaves) when sharded —
	// the tier lists are shared by every snapshot generation, so they
	// bound the placement, breaker-filter and shed scans to O(shard).
	// Both shapes live in a memState: the unsharded one is immutable,
	// the sharded one is the epoch-0 generation of the membership the
	// tier gossips and rebalances from (see membership.go).
	var ms *memState
	if o.Shards > 1 {
		m.sharded = true
		mb := core.Membership{
			Mode:    o.ShardMapMode,
			Masters: append([]int(nil), o.Masters...),
			Slaves:  append([]int(nil), o.Slaves...),
		}
		mb.Normalize()
		sm, err := mb.ShardMap()
		if err != nil {
			return nil, err
		}
		ms = newMemState(o.ID, mb, sm)
		m.gossipEvery = o.GossipEvery
		if m.gossipEvery <= 0 {
			m.gossipEvery = 4 * o.LoadRefresh
		}
		m.summaryTTL = 3 * m.gossipEvery
		// Per-shard state is sized to the cluster, not the initial shard
		// count: promotions can grow the tier up to one shard per node.
		m.shardSums = make([]shardSumSlot, len(o.NodeURLs))
		m.shardFresh = obs.NewFreshness(len(o.NodeURLs))
		m.gossipMiss = make([]int, len(o.NodeURLs))
		m.asEvery = o.AutoscaleMasters
		m.masterCapable = make([]bool, len(o.NodeURLs))
		for _, id := range o.Masters {
			m.masterCapable[id] = true
		}
	} else {
		viewMasters := append([]int(nil), o.Masters...)
		viewSlaves := append([]int(nil), o.Slaves...)
		ms = &memState{shard: -1, masters: viewMasters, slaves: viewSlaves}
		ms.pollSet = append(append([]int(nil), viewMasters...), viewSlaves...)
	}
	m.mem.Store(ms)

	initial := core.View{
		Masters: ms.masters,
		Slaves:  ms.slaves,
		Load:    make([]core.Load, len(o.NodeURLs)),
	}
	for i := range initial.Load {
		initial.Load[i] = core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	}
	// Prime the policy once so adaptive state (θ₂ in particular) reflects
	// the configured topology before the first ticker fires — and so a
	// /metrics scrape of a fresh master reports the topology-derived cap
	// rather than a placeholder. Sharded masters prime against their own
	// shard: the reservation becomes a per-shard control loop.
	m.policy.Tick(0, &initial)
	// Publish generation 1; the zero workEpoch forces the first placement
	// to seed its working copy from this snapshot.
	m.snap.Store(&loadSnapshot{
		epoch:  1,
		at:     time.Now().UnixNano(),
		atNode: make([]int64, len(o.NodeURLs)),
		view:   initial,
	})
	if m.sharded {
		// Publish the first own-shard stamp immediately so /shard and the
		// response piggyback are live before the first poll round.
		m.rebuildShardStamp(ms, m.snap.Load())
	}
	m.serveClientFrames = m.runFrameReqs
	m.serveClientReq = m.serveReq

	mux := http.NewServeMux()
	mux.HandleFunc("/req", m.handleRequest)
	mux.HandleFunc("/exec", m.handleExec)
	mux.HandleFunc("/load", m.handleLoad)
	mux.HandleFunc("/shard", m.handleShard)
	mux.HandleFunc(MembershipPath, m.handleMembership)
	mux.HandleFunc("/metrics", m.handleMetrics)
	m.serve(mux)

	m.wg.Add(2)
	go m.pollLoop(o.LoadRefresh)
	go m.tickLoop(o.PolicyTick)
	if m.sharded {
		m.wg.Add(1)
		go m.gossipLoop(m.gossipEvery)
		if m.asEvery > 0 {
			m.wg.Add(1)
			go m.autoscaleLoop(m.asEvery)
		}
	}
	return m, nil
}
