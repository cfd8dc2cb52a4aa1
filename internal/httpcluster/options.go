package httpcluster

import (
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
)

// The live data plane's failure handling has no knobs; breakerPolls,
// core.RetryBudget and core.DispatchTimeout are its whole
// configuration. A request's deadline is the client's budget
// (TimeoutHeader, or a 'Q' entry's timeoutMs) capped at
// core.DispatchTimeout. A dynamic gets core.RetryBudget placement
// attempts, each re-placed at once on a node not yet tried, then runs
// locally while the deadline stands (see runDynamic). A breaker that
// opened re-admits its node for one probe after breakerPolls poll
// periods.
const breakerPolls = 20

// pollDeadlineFloor floors the shared /load fan-out deadline (and the
// control plane's other per-round deadlines) so very fast polling
// periods do not misclassify briefly-slow nodes as failed.
const pollDeadlineFloor = 100 * time.Millisecond

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
	case !validTimeScale(o.TimeScale):
		return fmt.Errorf("httpcluster: time scale %v must be non-negative and finite", o.TimeScale)
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
	if o.Shards > 1 && o.Shards != len(o.Masters) {
		return fmt.Errorf("httpcluster: %d shards need exactly that many masters (have %d)", o.Shards, len(o.Masters))
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

// validTimeScale reports whether s can scale a service duration: 0
// (real time) or a positive finite factor. A NaN would pass a plain
// "s < 0" check and make every quantum and demand a non-finite
// duration.
func validTimeScale(s float64) bool { return s >= 0 && !math.IsInf(s, 1) }

// withDefaults fills the zero values.
func (o NodeOptions) withDefaults() NodeOptions {
	if o.Origin.IsZero() {
		o.Origin = time.Now()
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	return o
}

// LaunchNode starts a slave node server on a loopback ephemeral port.
// Only ID, Origin, TimeScale and Uncalibrated are consulted.
func LaunchNode(o NodeOptions) (*Node, error) {
	n, err := newSlave(o)
	if err != nil {
		return nil, err
	}
	n.serve()
	return n, nil
}

// newSlave builds a slave node with its listener bound and its mux set
// but no goroutine running: LaunchNode serves it, and the allocation
// pins measure its handlers with nothing else in the process allocating.
func newSlave(o NodeOptions) (*Node, error) {
	if err := o.Validate(false); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n, err := newNode(o)
	if err != nil {
		return nil, err
	}
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("/exec", n.handleExec)
	n.mux.HandleFunc("/load", n.handleLoad)
	n.mux.HandleFunc("/metrics", n.handleMetrics)
	return n, nil
}

// LaunchMaster starts a master node server on a loopback ephemeral port.
func LaunchMaster(o NodeOptions) (*Master, error) {
	m, err := newMaster(o)
	if err != nil {
		return nil, err
	}
	m.serve()
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

// newMaster builds a master — listener bound, view primed, mux set —
// without starting its server, poller, policy ticker or gossip: the
// goroutines LaunchMaster starts.
func newMaster(o NodeOptions) (*Master, error) {
	if err := o.Validate(true); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n, err := newNode(o)
	if err != nil {
		return nil, err
	}
	m := &Master{
		Node:   n,
		policy: o.Policy,
		// The control plane's client: /load polls, /shard gossip pulls,
		// and membership probes and announces. No global timeout — each
		// call carries its own context deadline — and net/http's default
		// pool sizes: these calls are a few per peer per period.
		client:   &http.Client{Transport: &http.Transport{}},
		stop:     make(chan struct{}),
		self:     [1]int{o.ID},
		tracer:   o.Tracer,
		urls:     make([]atomic.Pointer[string], len(o.NodeURLs)),
		brk:      newBreakerSet(len(o.NodeURLs), breakerPolls*o.LoadRefresh),
		respHist: obs.NewHistogram(),
		// Piggybacked load reports are always on (nodes that never answer
		// a frame simply never reach the table that way).
		reports:   make([]reportSlot, len(o.NodeURLs)),
		appliedAt: make([]int64, len(o.NodeURLs)),
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
	// the memState's tier lists and poll set bound the placement,
	// overlay, breaker-filter and shed scans to O(shard).
	// Both shapes live in a memState: the unsharded one is immutable,
	// the sharded one is the epoch-0 generation of the membership the
	// tier gossips and rebalances from (see membership.go).
	var ms *memState
	if o.Shards > 1 {
		m.sharded = true
		// The initial masters are the promotion candidate set.
		mb := core.Membership{Masters: o.Masters, Slaves: o.Slaves}
		tier, err := core.NewTier(o.ID, len(o.NodeURLs), mb, o.Masters)
		if err != nil {
			return nil, err
		}
		m.tier = tier
		ms = newMemState(o.ID, tier.Membership(), tier.ShardMap())
		m.gossipEvery = o.GossipEvery
		if m.gossipEvery <= 0 {
			m.gossipEvery = 4 * o.LoadRefresh
		}
		m.summaryTTL = 3 * m.gossipEvery
		// Per-shard state is sized to the cluster, not the initial shard
		// count: promotions can grow the tier up to one shard per node.
		m.shardSums = make([]shardSumSlot, len(o.NodeURLs))
		m.ownLoads = make([]core.Load, len(o.NodeURLs))
		m.asEvery = o.AutoscaleMasters
	} else {
		viewMasters := append([]int(nil), o.Masters...)
		viewSlaves := append([]int(nil), o.Slaves...)
		ms = &memState{shard: -1, masters: viewMasters, slaves: viewSlaves}
		ms.pollSet = append(append([]int(nil), viewMasters...), viewSlaves...)
	}
	m.mem.Store(ms)

	// Every node starts idle in the report table (stamp 0: never heard
	// from) and in the working view.
	m.workView.Load = make([]core.Load, len(o.NodeURLs))
	for i := range m.reports {
		m.reports[i].load = core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
		m.workView.Load[i] = m.reports[i].load
	}
	// Prime the policy once so adaptive state (θ₂ in particular) reflects
	// the configured topology before the first ticker fires — and so a
	// /metrics scrape of a fresh master reports the topology-derived cap
	// rather than a placeholder. Sharded masters prime against their own
	// shard: the reservation becomes a per-shard control loop.
	m.policy.Tick(0, &core.View{Masters: ms.masters, Slaves: ms.slaves, Load: m.workView.Load})
	if m.sharded {
		// Publish the first own-shard stamp immediately so /shard and the
		// response piggyback are live before the first poll round.
		m.rebuildShardStamp(ms)
	}
	m.serveClientFrames = m.runFrameReqs
	m.serveClientReq = m.serveReq

	m.mux = http.NewServeMux()
	m.mux.HandleFunc("/req", m.handleRequest)
	m.mux.HandleFunc("/exec", m.handleExec)
	m.mux.HandleFunc("/load", m.handleLoad)
	m.mux.HandleFunc("/shard", m.handleShard)
	m.mux.HandleFunc(MembershipPath, m.handleMembership)
	m.mux.HandleFunc("/metrics", m.handleMetrics)
	return m, nil
}
