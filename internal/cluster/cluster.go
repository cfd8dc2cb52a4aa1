// Package cluster assembles the trace-driven cluster simulation: p
// simos.Node machines, a front end that spreads incoming requests
// uniformly over the master tier (DNS rotation / switch behaviour), a
// core.Policy that picks the execution node, periodically refreshed
// rstat()-style load information, and the 1 ms remote-CGI dispatch
// latency of the paper's prototype.
//
// A Run replays a trace.Trace to completion and reports the stretch
// factor and per-class statistics the paper's experiments compare.
package cluster

import (
	"fmt"
	"math"

	"msweb/internal/core"
	"msweb/internal/metrics"
	"msweb/internal/obs"
	"msweb/internal/rng"
	"msweb/internal/sim"
	"msweb/internal/simos"
	"msweb/internal/trace"
)

// Config describes one simulated cluster.
type Config struct {
	// Nodes is the cluster size p.
	Nodes int
	// Masters is the initial master-tier size m; masters are nodes
	// 0..m−1. Use Nodes for an all-master (flat / M/S-1) topology.
	Masters int
	// OS configures every node.
	OS simos.Config
	// EnableShedding lets the cluster shed requests the way the live
	// master does: when no slaves are in view and the policy's
	// MasterAdmission denies local execution, a dynamic request
	// completes immediately as shed instead of queueing (statics are
	// never shed). Off by default — the paper's replays run open-loop
	// without shedding.
	EnableShedding bool
	// LoadRefresh is the load-information period (rstat polling).
	LoadRefresh float64
	// WarmupFraction drops samples of requests arriving in the first
	// fraction of the trace span from the reported statistics, so
	// steady-state stretch is not diluted by the empty-system start.
	WarmupFraction float64
	// Autoscale enables the online autoscaler: Theorem 1 re-planning of
	// m plus powering slaves on and off against the measured load, in
	// node-id order and with exponential hold-epoch hysteresis (see
	// Autoscale).
	Autoscale *Autoscale
	// SLOResponse, when positive, counts every sampled request against a
	// response-time SLO: Result.SLOAttainment reports the fraction of
	// counted samples at or under this many (virtual) seconds.
	SLOResponse float64
	// Events is an optional availability schedule: node crashes,
	// recoveries and dynamic recruitment (see AvailabilityEvent).
	Events []AvailabilityEvent
	// InitiallyDown lists nodes that start outside the cluster
	// (non-dedicated machines recruited later by an Up event).
	InitiallyDown []int
	// Tracer, when non-nil, receives the lifecycle events of every
	// request: arrival, placement decision (with RSRC annotation when
	// the policy explains itself), dispatch, per-burst CPU/disk phases
	// and completion. Nil disables tracing at a nil-check per event.
	Tracer obs.Tracer
	// Seed drives the front end's random master selection.
	Seed int64
	// Shards > 1 partitions the slave tier across the master tier
	// (master i owns shard i; must equal the initial Masters): each
	// master's policy sees and books against only its own shard,
	// refreshed at O(shard) per tick, with shed requests spilling
	// cross-shard via gossiped summaries. The shard map is
	// epoch-versioned: availability events, recruitment and the
	// autoscaler rebalance it live (consistent-hash ring, so only ~1/m of
	// the slaves move per master change). 0 or 1 keeps the global shared
	// view.
	Shards int
	// GossipEvery is the cross-shard summary exchange period in seconds
	// (default 4×LoadRefresh).
	GossipEvery float64
}

// Fixed timings, the paper's where it gives one.
const (
	// policyTick is the reservation-recompute period.
	policyTick = 0.500
	// remoteLatency is the remote CGI dispatch latency (paper: 1 ms, the
	// TCP connection time; fork is charged separately by the node).
	remoteLatency = 0.001
	// retryDelay is the failover-detection delay before requests lost to
	// a node failure are restarted elsewhere (paper: switches give
	// "sub-second failure detection").
	retryDelay = 0.100
)

// DefaultConfig returns a cluster configured with the paper's constants.
func DefaultConfig(nodes, masters int) Config {
	return Config{
		Nodes:       nodes,
		Masters:     masters,
		OS:          simos.DefaultConfig(),
		LoadRefresh: 0.200,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: need at least one node")
	case c.Masters < 1 || c.Masters > c.Nodes:
		return fmt.Errorf("cluster: masters %d outside [1, %d]", c.Masters, c.Nodes)
	case !finite(c.LoadRefresh) || c.LoadRefresh <= 0:
		return fmt.Errorf("cluster: load refresh period %v must be positive and finite", c.LoadRefresh)
	case !finite(c.WarmupFraction) || c.WarmupFraction < 0 || c.WarmupFraction >= 1:
		return fmt.Errorf("cluster: warmup fraction %v outside [0, 1)", c.WarmupFraction)
	case c.Shards > 1 && c.Shards != c.Masters:
		return fmt.Errorf("cluster: shards %d must equal masters %d", c.Shards, c.Masters)
	case !finite(c.GossipEvery) || c.GossipEvery < 0:
		return fmt.Errorf("cluster: gossip period %v must be non-negative and finite", c.GossipEvery)
	case !finite(c.SLOResponse) || c.SLOResponse < 0:
		return fmt.Errorf("cluster: SLO response bound %v must be non-negative and finite", c.SLOResponse)
	case c.Autoscale != nil && (!finite(c.Autoscale.Period) || c.Autoscale.Period <= 0):
		return fmt.Errorf("cluster: autoscale period %v must be positive and finite", c.Autoscale.Period)
	}
	if err := validateEvents(c.Events, c.InitiallyDown, c.Nodes); err != nil {
		return err
	}
	return c.OS.Validate()
}

// finite reports whether x is neither NaN nor infinite. Validate needs
// it because a NaN compares false with everything, so it slips past each
// range check, and an infinite period schedules an event at a
// non-finite time.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Result summarizes one simulation run.
type Result struct {
	Policy  string
	Summary metrics.Summary
	// StretchFactor is the headline metric (== Summary.StretchFactor).
	StretchFactor float64
	// TotalDynamics counts dynamic requests; MasterDynamics those
	// executed at masters; RemoteDynamics those dispatched off the
	// receiving master.
	TotalDynamics  int64
	MasterDynamics int64
	RemoteDynamics int64
	// FinalMasters is the master count at the end (≠ initial when the
	// autoscaler re-planned it).
	FinalMasters int
	// Failovers counts requests restarted after a node failure.
	Failovers int64
	// Shed counts dynamic requests refused by MasterAdmission (only
	// with Config.EnableShedding).
	Shed int64
	// SLOAttainment is the fraction of counted samples whose response
	// met Config.SLOResponse (0 when the SLO is unset); SLOCount is the
	// sample population behind it.
	SLOAttainment float64
	SLOCount      int64
	// NodeHours integrates the powered node population over the run's
	// virtual time — the operating-cost metric the autoscaler trades
	// against the SLO. Every node counts as powered except while the
	// autoscaler has switched it off.
	NodeHours float64
	// Autoscale reports online-autoscaler activity (nil when disabled).
	Autoscale *AutoscaleStats
	// Shards reports sharded control-plane accounting (nil when the run
	// used the global shared view).
	Shards *ShardStats
	// NodeStats carries per-node OS counters.
	NodeStats []simos.Stats
	// NodeUtilization carries per-node lifetime CPU and disk busy
	// fractions, for load-balance inspection.
	NodeUtilization []ResourceUtilization
	// SimulatedSeconds is the virtual time at which the run drained.
	SimulatedSeconds float64
	// Events is the number of simulation events fired.
	Events uint64
}

// ResourceUtilization is one node's lifetime busy fractions.
type ResourceUtilization struct {
	CPU  float64
	Disk float64
}

// Cluster is a configured simulation instance.
type Cluster struct {
	cfg    Config
	eng    *sim.Engine
	nodes  []*simos.Node
	policy core.Policy
	view   core.View
	front  *rng.Stream

	collector *metrics.Collector
	completed int
	total     int

	totalDyn  int64
	masterDyn int64
	remoteDyn int64

	roleMasters int
	available   []bool
	// powered is the autoscaler's graceful on/off state, distinct from
	// available (crash semantics): a powered-off node leaves the view but
	// finishes its queued work and is never drained.
	powered []bool
	// inflight is the set of requests dispatched and not yet complete,
	// in no particular order; pendingRequest.slot indexes it.
	inflight  []*pendingRequest
	nextReqID int64
	failovers int64
	shed      int64

	// SLO accounting (Config.SLOResponse > 0).
	sloOK, sloN int64
	// Node-hours integration: poweredCount nodes since lastPowerAt.
	poweredCount int
	lastPowerAt  float64
	nodeSeconds  float64

	// Online autoscaler state (Config.Autoscale != nil); see autoscale.go.
	as      core.Planner
	asStats *AutoscaleStats

	// trace and warmupUntil back the typed arrival events: the engine's
	// feed delivers each arrival as an index into trace.Requests.
	trace       *trace.Trace
	warmupUntil float64
	// freePending recycles pendingRequest structs; with it, the
	// dispatch→submit→complete path of a request allocates nothing.
	freePending []*pendingRequest

	// Typed-event handlers bound once at construction (see sim.CallFunc).
	arrivalC  sim.CallFunc
	submitC   sim.CallFunc
	completeC func(arg any, now float64)

	// explainer is the policy's PlacementExplainer side, resolved once
	// at construction so tracing skips the per-request type assertion.
	explainer core.PlacementExplainer
	// admission is the policy's MasterAdmission side (pipeline
	// policies), consulted by the optional shedding path.
	admission core.MasterAdmission

	win     core.Window // the autoscaler's measurement window
	tickers []*sim.Ticker

	// sharded control plane (nil/zero when Config.Shards ≤ 1); see
	// shard.go for the per-master views, summaries and accounting. The
	// map is epoch-versioned and rebalanced by reshard() on every
	// topology change; shard i belongs to the master at view.Masters[i].
	shardMap     *core.ShardMap
	shardViews   []core.View
	shardSums    []core.ShardSummary
	remoteSums   []core.ShardSummary // shard → its last gossiped summary
	remoteAt     []float64           // shard → when it was gossiped, −1 before
	pollWork     int64
	pollSamples  int64
	ageSum       float64
	ageN         int64
	spilled      int64
	spillShed    int64
	epochChanges int64
	shardMoved   int64
}

// New builds a cluster around an existing engine.
func New(eng *sim.Engine, cfg Config, policy core.Policy) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		eng:       eng,
		policy:    policy,
		front:     rng.New(cfg.Seed),
		collector: metrics.NewCollector(),
		nextReqID: 1, // 0 means "untraced" to the node OS
	}
	c.explainer, _ = policy.(core.PlacementExplainer)
	c.admission, _ = policy.(core.MasterAdmission)
	c.arrivalC = c.arrival
	c.submitC = c.submitCall
	c.completeC = c.complete
	c.available = make([]bool, cfg.Nodes)
	c.powered = make([]bool, cfg.Nodes)
	for i := range c.available {
		c.available[i] = true
		c.powered[i] = true
	}
	for _, id := range cfg.InitiallyDown {
		c.available[id] = false
	}
	c.poweredCount = cfg.Nodes
	if cfg.Autoscale != nil {
		c.asStats = &AutoscaleStats{}
		c.as = core.Planner{MinM: cfg.Autoscale.MinM, MaxM: cfg.Autoscale.MaxM}
	}
	c.nodes = make([]*simos.Node, cfg.Nodes)
	for i := range c.nodes {
		n, err := simos.NewNode(eng, i, cfg.OS)
		if err != nil {
			return nil, err
		}
		if cfg.Tracer != nil {
			n.SetTracer(cfg.Tracer)
		}
		c.nodes[i] = n
	}
	c.view = core.View{Load: make([]core.Load, cfg.Nodes)}
	for i := range c.view.Load {
		c.view.Load[i] = core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	}
	c.roleMasters = cfg.Masters
	c.recomputeView()
	if cfg.Shards > 1 {
		if err := c.setupShards(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Masters returns the current master count.
func (c *Cluster) Masters() int { return len(c.view.Masters) }

// refreshLoad polls every node's load counters into the shared view.
func (c *Cluster) refreshLoad() {
	c.view.Now = c.eng.Now()
	for i, n := range c.nodes {
		cpuQ, diskQ := n.QueueLengths()
		c.view.Load[i].CPUIdle = n.CPUIdleRatio()
		c.view.Load[i].DiskAvail = n.DiskAvailRatio()
		c.view.Load[i].CPUQueue = cpuQ
		c.view.Load[i].DiskQueue = diskQ
	}
	if c.shardMap != nil {
		for s := range c.shardViews {
			c.shardViews[s].Now = c.view.Now
		}
		c.refreshShardSummaries()
	}
}

// dispatch routes one trace request at its arrival time.
func (c *Cluster) dispatch(req trace.Request, countSample bool) {
	c.dispatchAt(req, countSample, c.eng.Now())
}

// dispatchAt routes a request whose logical arrival time may lie in the
// past (failover restarts keep the original arrival so the lost time
// counts against the response).
func (c *Cluster) dispatchAt(req trace.Request, countSample bool, arrival float64) {
	if len(c.view.Masters) == 0 {
		// Whole cluster down: retry once capacity returns.
		c.eng.After(retryDelay, func() { c.dispatchAt(req, countSample, arrival) })
		return
	}
	pick := c.front.Intn(len(c.view.Masters))
	master := c.view.Masters[pick]
	view := &c.view
	shard := -1
	if c.shardMap != nil {
		// Sharded: this master places within its own shard only — the
		// shard at its position in the master list (node ids and shard
		// indices coincide only in the initial layout).
		shard = pick
		view = &c.shardViews[shard]
	}

	// Optional live-parity shedding: with no slaves in view and the
	// policy's reservation refusing local execution, the master
	// refuses a dynamic request outright (the sim analogue of the 503
	// path; statics always run at the master). A sharded master first
	// tries to spill onto the least-loaded fresh remote digest, the way
	// the live master does after shouldShed.
	spillTarget := -1
	if c.cfg.EnableShedding && req.Class == trace.Dynamic && c.admission != nil &&
		len(view.Slaves) == 0 && !c.admission.AdmitsAtMaster() {
		if shard >= 0 {
			spillTarget = c.pickSimSpill(shard)
		}
		if spillTarget < 0 {
			if c.shardMap != nil {
				c.spillShed++
			}
			c.shed++
			c.completed++
			if countSample && c.cfg.SLOResponse > 0 {
				c.sloN++ // a shed counted request is an SLO miss
			}
			return
		}
	}

	reqID := c.nextReqID
	c.nextReqID++
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Kind: obs.KindArrival, Req: reqID, Time: arrival,
			Class: req.Class.String(), Value: req.Demand,
		})
	}

	var target int
	if spillTarget >= 0 {
		target = spillTarget
		c.spilled++
	} else {
		target = c.policy.Place(core.Request{Class: req.Class, Script: req.Script}, master, view)
	}
	if c.cfg.Tracer != nil {
		ev := obs.Event{Kind: obs.KindDecision, Req: reqID, Time: c.eng.Now(), Node: target}
		if c.explainer != nil && spillTarget < 0 {
			pl := c.explainer.LastPlacement()
			ev.Value = pl.RSRC
			ev.Admit = pl.MasterAdmitted
		}
		c.cfg.Tracer.Emit(ev)
	}

	c.win.Arrive(req.Class)
	if req.Class == trace.Dynamic {
		c.totalDyn++
		if isMaster(target, c.view.Masters) {
			c.masterDyn++
		}
	}

	latency := 0.0
	if target != master && req.Class == trace.Dynamic {
		latency = remoteLatency
		c.remoteDyn++
	}
	if spillTarget >= 0 {
		// Spills relay through the remote shard's owner: two hops.
		latency = 2 * remoteLatency
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Kind: obs.KindDispatch, Req: reqID, Time: c.eng.Now(),
			Node: target, Remote: latency > 0,
		})
	}

	pr := c.newPending()
	pr.id = reqID
	pr.req = req
	pr.node = target
	pr.arrival = arrival
	pr.count = countSample
	c.own(pr)

	if latency > 0 {
		c.eng.AfterCall(latency, c.submitC, pr, 0)
	} else {
		c.submitNow(pr)
	}
}

// newPending pops a recycled pendingRequest (zeroed) or allocates one.
func (c *Cluster) newPending() *pendingRequest {
	if k := len(c.freePending); k > 0 {
		pr := c.freePending[k-1]
		c.freePending[k-1] = nil
		c.freePending = c.freePending[:k-1]
		return pr
	}
	return &pendingRequest{}
}

// releasePending zeroes pr and returns it to the pool. The caller must
// hold the last live reference; see the ownership rules on submitNow and
// applyAvailability.
func (c *Cluster) releasePending(pr *pendingRequest) {
	*pr = pendingRequest{slot: -1}
	c.freePending = append(c.freePending, pr)
}

// own adds pr to the in-flight set.
func (c *Cluster) own(pr *pendingRequest) {
	pr.slot = len(c.inflight)
	c.inflight = append(c.inflight, pr)
}

// disown removes pr from the in-flight set in O(1): the last member
// moves into pr's slot.
func (c *Cluster) disown(pr *pendingRequest) {
	last := len(c.inflight) - 1
	moved := c.inflight[last]
	c.inflight[pr.slot] = moved
	moved.slot = pr.slot
	c.inflight[last] = nil
	c.inflight = c.inflight[:last]
	pr.slot = -1
}

// arrival is the typed-event handler replaying trace request f64 (its
// index in c.trace.Requests, exact for any realistic trace length).
func (c *Cluster) arrival(_ any, f64 float64) {
	req := c.trace.Requests[int(f64)]
	c.dispatch(req, req.Arrival >= c.warmupUntil)
}

// submitCall unpacks the dispatch-latency event.
func (c *Cluster) submitCall(arg any, _ float64) { c.submitNow(arg.(*pendingRequest)) }

// submitNow hands pr's job to its target node. Ownership: pr may have
// been disowned while the dispatch-latency event was in flight. A
// disowned struct is not recycled before this event releases it, so its
// slot < 0 cannot belong to a newer request.
func (c *Cluster) submitNow(pr *pendingRequest) {
	if pr.slot < 0 {
		// A node-failure handler already took ownership of this
		// request (it was in the dispatch-latency window when its
		// target crashed) and restarted it; submitting now would
		// duplicate the work and corrupt completion accounting. This
		// event held the last reference to the orphaned struct.
		c.releasePending(pr)
		return
	}
	if !c.available[pr.node] {
		// The target failed inside the dispatch latency window;
		// the failure handler has not seen this request, so
		// re-place it ourselves.
		c.disown(pr)
		c.failovers++
		req, count, arrival := pr.req, pr.count, pr.arrival
		c.releasePending(pr)
		c.eng.After(retryDelay, func() { c.dispatchAt(req, count, arrival) })
		return
	}
	pr.submitted = true
	traceID := int64(0)
	if c.cfg.Tracer != nil {
		traceID = pr.id
	}
	req := &pr.req
	c.nodes[pr.node].Submit(simos.Job{
		CPUTime:  req.Demand * req.CPUWeight,
		IOTime:   req.Demand * (1 - req.CPUWeight),
		MemPages: int(req.MemPages),
		Fork:     req.Class == trace.Dynamic,
		TraceID:  traceID,
		DoneCall: c.completeC,
		DoneArg:  pr,
	})
}

// complete is the typed completion handler for every dispatched request:
// accounting, sample collection, and recycling of the pendingRequest.
func (c *Cluster) complete(arg any, now float64) {
	pr := arg.(*pendingRequest)
	c.disown(pr)
	req := &pr.req
	response := now - pr.arrival
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Kind: obs.KindComplete, Req: pr.id, Time: now,
			Node: pr.node, Value: response,
		})
	}
	c.policy.ObserveCompletion(req.Class, response, req.Demand)
	c.win.Done(req.Class, req.Demand)
	if pr.count {
		c.observeSLO(response)
		c.collector.Add(metrics.Sample{
			Demand:   req.Demand,
			Response: response,
			Class:    req.Class.String(),
		})
	}
	c.completed++
	c.releasePending(pr)
}

func isMaster(id int, masters []int) bool {
	for _, m := range masters {
		if m == id {
			return true
		}
	}
	return false
}

// Run replays the trace to completion and returns the result summary.
func (c *Cluster) Run(tr *trace.Trace) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	c.total = len(tr.Requests)
	c.completed = 0

	c.warmupUntil = 0
	if c.cfg.WarmupFraction > 0 && len(tr.Requests) > 0 {
		start := tr.Requests[0].Arrival
		c.warmupUntil = start + c.cfg.WarmupFraction*tr.Duration()
	}

	// The arrivals are the engine's feed (Validate checked they are in
	// time order): each fires as a typed event carrying its trace index
	// without ever entering the event heap.
	c.trace = tr
	c.collector.Reserve(len(tr.Requests))
	c.eng.Feed(len(tr.Requests), func(i int) sim.Time { return tr.Requests[i].Arrival }, c.arrivalC, nil)
	for _, e := range c.cfg.Events {
		e := e
		c.eng.Schedule(e.At, func() { c.applyAvailability(e) })
	}

	c.startTickers()
	// Prime the policy so θ starts from the configured topology rather
	// than the controller's placeholder.
	c.policy.Tick(c.eng.Now(), &c.view)

	for c.completed < c.total {
		if !c.eng.Step() {
			return nil, fmt.Errorf("cluster: simulation drained with %d/%d requests outstanding", c.total-c.completed, c.total)
		}
	}
	c.stopTickers()
	return c.buildResult(), nil
}

// startTickers arms the periodic activities: load polling, policy
// adaptation, gossip, autoscaling.
func (c *Cluster) startTickers() {
	c.tickers = append(c.tickers, c.eng.Every(c.cfg.LoadRefresh, c.refreshLoad))
	c.tickers = append(c.tickers, c.eng.Every(policyTick, func() {
		c.policy.Tick(c.eng.Now(), &c.view)
		if c.shardMap != nil {
			c.sampleSummaryAge()
		}
	}))
	if c.shardMap != nil {
		c.tickers = append(c.tickers, c.eng.Every(c.gossipPeriod(), c.gossipShards))
	}
	if c.cfg.Autoscale != nil {
		c.tickers = append(c.tickers, c.eng.Every(c.cfg.Autoscale.Period, c.autoscaleTick))
	}
}

// stopTickers cancels the periodic activities so the engine can drain.
func (c *Cluster) stopTickers() {
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = nil
}

// buildResult snapshots the run's statistics.
func (c *Cluster) buildResult() *Result {
	res := &Result{
		Policy:           c.policy.Name(),
		Summary:          c.collector.Summarize(),
		TotalDynamics:    c.totalDyn,
		MasterDynamics:   c.masterDyn,
		RemoteDynamics:   c.remoteDyn,
		FinalMasters:     c.Masters(),
		Failovers:        c.failovers,
		Shed:             c.shed,
		SimulatedSeconds: c.eng.Now(),
		Events:           c.eng.Fired(),
	}
	res.Shards = c.shardStats()
	if c.sloN > 0 {
		res.SLOAttainment = float64(c.sloOK) / float64(c.sloN)
		res.SLOCount = c.sloN
	}
	c.accrueNodeSeconds(c.eng.Now())
	res.NodeHours = c.nodeSeconds / 3600
	if c.asStats != nil {
		st := *c.asStats
		st.FinalPowered = c.poweredCount
		res.Autoscale = &st
	}
	res.StretchFactor = res.Summary.StretchFactor
	res.NodeStats = make([]simos.Stats, len(c.nodes))
	res.NodeUtilization = make([]ResourceUtilization, len(c.nodes))
	for i, n := range c.nodes {
		res.NodeStats[i] = n.Stats()
		cpu, disk := n.BusyFractions()
		res.NodeUtilization[i] = ResourceUtilization{CPU: cpu, Disk: disk}
	}
	return res
}

// Simulate is the one-call convenience: build an engine and cluster,
// replay the trace, return the result.
func Simulate(cfg Config, policy core.Policy, tr *trace.Trace) (*Result, error) {
	eng := sim.NewEngine()
	c, err := New(eng, cfg, policy)
	if err != nil {
		return nil, err
	}
	return c.Run(tr)
}
