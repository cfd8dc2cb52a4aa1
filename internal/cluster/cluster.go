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
	"slices"

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
	// never shed). An unsharded cluster with no slave-role node never
	// sheds: like a live master with no slaves, it has no degraded
	// regime to protect. Off by default — the paper's replays run
	// open-loop without shedding.
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
	// retryDelay is how long a request waits to be dispatched while
	// the whole cluster is down.
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
	// TotalDynamics counts accepted dynamic requests, once each (shed
	// and exhausted ones included). MasterDynamics and RemoteDynamics
	// count dispatches, not requests: those placed on a master, and
	// those sent off the placing master. A request re-placed after a
	// crash counts once per dispatch.
	TotalDynamics  int64
	MasterDynamics int64
	RemoteDynamics int64
	// FinalMasters is the master count at the end (≠ initial when the
	// autoscaler re-planned it).
	FinalMasters int
	// Failovers counts dispatches a node failure lost (each is reported
	// to the request's core.Attempts).
	Failovers int64
	// Shed counts dynamic requests refused by MasterAdmission (only
	// with Config.EnableShedding).
	Shed int64
	// Exhausted counts requests their core.Attempts gave up on: the
	// deadline passed, or no master was left that had not failed them.
	// Every request is served, shed or exhausted.
	Exhausted int64
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
	parked    int // requests backing off while the whole cluster is down
	failovers int64
	shed      int64
	exhausted int64

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
	// untriedBuf and untriedView are the scratch a re-dispatch places
	// in: the view without the nodes the request already failed on.
	untriedBuf  []int
	untriedView core.View

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

// accept takes one trace request in at its arrival time and gives it
// its failover rule: idempotent (every trace record is a GET) with a
// deadline core.DispatchTimeout after arrival, as on the live master.
func (c *Cluster) accept(req trace.Request, countSample bool) {
	now := c.eng.Now()
	pr := c.newPending()
	pr.id = c.nextReqID
	c.nextReqID++
	pr.req = req
	pr.arrival = now
	pr.count = countSample
	pr.master = -1
	pr.att = core.NewAttempts(true, pr.deadline())
	// Counted once here, not per dispatch: a re-placement after a crash
	// is no new arrival. As on the live master, λ counts every accepted
	// request, shed and exhausted ones included.
	c.win.Arrive(req.Class)
	if req.Class == trace.Dynamic {
		c.totalDyn++
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Kind: obs.KindArrival, Req: pr.id, Time: now,
			Class: req.Class.String(), Value: req.Demand,
		})
	}
	c.advance(pr, pr.att.Next(simNs(now)))
}

// simNs converts virtual seconds to the unixnano scale core.Attempts
// keeps its deadline in.
func simNs(t float64) int64 { return int64(t * 1e9) }

// advance carries out the step pr's failover rule returned: place it
// on a node not yet tried, run it at its master once the budget is
// spent and the deadline stands, or count it exhausted. pr is not in
// the in-flight set when advance runs.
func (c *Cluster) advance(pr *pendingRequest, step core.Step) {
	switch {
	case step == core.StepDispatch:
		c.dispatch(pr, false)
	case step == core.StepSpent && simNs(c.eng.Now()) < pr.deadline():
		c.dispatch(pr, true)
	default:
		c.exhausted++
		c.drop(pr, obs.KindExhausted, float64(len(pr.att.Tried())))
	}
}

// drop ends pr without serving it (shed or exhausted): it completes
// with no sample, counts as an SLO miss, and recycles.
func (c *Cluster) drop(pr *pendingRequest, kind obs.EventKind, value float64) {
	c.completed++
	if pr.count && c.cfg.SLOResponse > 0 {
		c.sloN++
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{Kind: kind, Req: pr.id, Time: c.eng.Now(), Node: pr.master, Value: value})
	}
	c.releasePending(pr)
}

// dispatch hands pr to its master, which places it on a node outside
// pr.att.Tried() — or, when spent, runs it itself. A request whose
// master is gone goes back to the front end, which picks a master the
// request has not failed on; with none left the request is exhausted.
func (c *Cluster) dispatch(pr *pendingRequest, spent bool) {
	if len(c.view.Masters) == 0 {
		// Whole cluster down: nothing is dispatched; try again once
		// capacity returns (a live client could not even connect).
		c.parked++
		c.eng.After(retryDelay, func() {
			c.parked--
			c.advance(pr, pr.att.Next(simNs(c.eng.Now())))
		})
		return
	}
	tried := pr.att.Tried()
	pick := -1
	if pr.master >= 0 {
		pick = slices.Index(c.view.Masters, pr.master)
	}
	if pick < 0 {
		if pick = c.frontEnd(tried); pick < 0 {
			c.exhausted++
			c.drop(pr, obs.KindExhausted, float64(len(tried)))
			return
		}
		pr.master = c.view.Masters[pick]
	}
	master := pr.master
	view := &c.view
	shard := -1
	if c.shardMap != nil {
		// Sharded: this master places within its own shard only — the
		// shard at its position in the master list (node ids and shard
		// indices coincide only in the initial layout).
		shard = pick
		view = &c.shardViews[shard]
	}
	req := &pr.req

	// Optional live-parity shedding: with no slaves in view and the
	// policy's reservation refusing local execution, the master
	// refuses a dynamic request outright (the sim analogue of the 503
	// path; statics always run at the master). As on the live master, a
	// cluster with no slave tier at all has no degraded regime and
	// never sheds. A sharded master first tries to spill onto the
	// least-loaded fresh remote digest, the way the live master does
	// after shouldShed.
	spillTarget := -1
	if !spent && c.cfg.EnableShedding && req.Class == trace.Dynamic && c.admission != nil &&
		len(view.Slaves) == 0 && (shard >= 0 || c.roleMasters < c.cfg.Nodes) &&
		!c.admission.AdmitsAtMaster() {
		if shard >= 0 {
			spillTarget = c.pickSimSpill(shard, tried)
		}
		if spillTarget < 0 {
			if c.shardMap != nil {
				c.spillShed++
			}
			c.shed++
			c.drop(pr, obs.KindShed, 0)
			return
		}
	}

	target := master
	switch {
	case spent:
	case spillTarget >= 0:
		target = spillTarget
		c.spilled++
	default:
		target = c.policy.Place(core.Request{Class: req.Class, Script: req.Script}, master, c.untried(view, tried))
	}
	if c.cfg.Tracer != nil {
		ev := obs.Event{Kind: obs.KindDecision, Req: pr.id, Time: c.eng.Now(), Node: target}
		if c.explainer != nil && !spent && spillTarget < 0 {
			pl := c.explainer.LastPlacement()
			ev.Value = pl.RSRC
			ev.Admit = pl.MasterAdmitted
		}
		c.cfg.Tracer.Emit(ev)
	}

	if req.Class == trace.Dynamic && slices.Contains(c.view.Masters, target) {
		c.masterDyn++
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
			Kind: obs.KindDispatch, Req: pr.id, Time: c.eng.Now(),
			Node: target, Remote: latency > 0,
		})
	}

	pr.node = target
	pr.submitted = false
	c.own(pr)
	if latency > 0 {
		c.eng.AfterCall(latency, c.submitC, pr, 0)
	} else {
		c.submitNow(pr)
	}
}

// frontEnd picks the master a request goes to — uniformly among the
// masters not in tried — and returns its index in the master list, or
// −1 when every master is in tried.
func (c *Cluster) frontEnd(tried []int) int {
	if len(tried) == 0 {
		return c.front.Intn(len(c.view.Masters))
	}
	ok := core.FilterLive(c.untriedBuf[:0], c.view.Masters, func(id int) bool { return !slices.Contains(tried, id) })
	c.untriedBuf = ok
	if len(ok) == 0 {
		return -1
	}
	return slices.Index(c.view.Masters, ok[c.front.Intn(len(ok))])
}

// untried returns view without the nodes in tried, in a scratch view
// that shares view's load array, so placement books as usual. The
// placing master is never in tried (frontEnd sees to that), so the
// result keeps a master.
func (c *Cluster) untried(view *core.View, tried []int) *core.View {
	if len(tried) == 0 {
		return view
	}
	keep := func(id int) bool { return !slices.Contains(tried, id) }
	buf := core.FilterLive(c.untriedBuf[:0], view.Masters, keep)
	nMasters := len(buf)
	buf = core.FilterLive(buf, view.Slaves, keep)
	c.untriedBuf = buf
	c.untriedView = core.View{Now: view.Now, Masters: buf[:nMasters:nMasters], Slaves: buf[nMasters:], Load: view.Load}
	return &c.untriedView
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
	c.accept(req, req.Arrival >= c.warmupUntil)
}

// submitCall unpacks the dispatch-latency event.
func (c *Cluster) submitCall(arg any, _ float64) { c.submitNow(arg.(*pendingRequest)) }

// submitNow hands pr's job to its target node. Ownership: pr may have
// been disowned while the dispatch-latency event was in flight (its
// target crashed, and the request carries on in a copy; see
// applyAvailability). A disowned struct is not recycled before this
// event releases it, so its slot < 0 cannot belong to a newer request.
func (c *Cluster) submitNow(pr *pendingRequest) {
	if pr.slot < 0 {
		c.releasePending(pr)
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
		if len(c.inflight) == 0 && c.parked == 0 && c.nextReqID-1 == int64(c.total) && c.completed < c.total {
			// Every request arrived and none is dispatched or waiting
			// for capacity, yet some never ended: only the tickers are
			// left, and they would spin forever.
			return nil, fmt.Errorf("cluster: %d/%d requests lost", c.total-c.completed, c.total)
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
		Exhausted:        c.exhausted,
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
