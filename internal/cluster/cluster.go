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

	"msweb/internal/core"
	"msweb/internal/dyncache"
	"msweb/internal/metrics"
	"msweb/internal/obs"
	"msweb/internal/queuemodel"
	"msweb/internal/rng"
	"msweb/internal/sim"
	"msweb/internal/simos"
	"msweb/internal/trace"
)

// CacheConfig sizes the shared dynamic-content cache.
type CacheConfig struct {
	// Capacity is the number of cached responses.
	Capacity int
	// TTL is each entry's freshness lifetime in seconds.
	TTL float64
	// HitDemand is the service demand of answering from the cache — a
	// buffer copy plus protocol work, comparable to a small static
	// fetch (default 1/2400 s, half the mean static demand).
	HitDemand float64
}

// AutoRecruit reacts to load peaks: when the measured arrival rate
// crosses HighRate, the listed non-dedicated spare nodes (which must be
// in InitiallyDown) are brought into the slave tier; when it falls below
// LowRate they are released again — the paper's "dynamically recruit
// idle resources in handling peak load".
type AutoRecruit struct {
	Spares   []int
	Period   float64
	HighRate float64
	LowRate  float64
}

// AdaptiveMasters reconfigures the master-tier size on-line: every
// Period the cluster re-estimates λ, a, μ_h and μ_c from the completed
// window and applies Theorem 1's numeric minimization. Figure 5
// compares this against a fixed configuration.
type AdaptiveMasters struct {
	// Period between reconfigurations in seconds.
	Period float64
	// MinM/MaxM clamp the chosen master count (defaults 1 and p−1).
	MinM, MaxM int
}

// Config describes one simulated cluster.
type Config struct {
	// Nodes is the cluster size p.
	Nodes int
	// Masters is the initial master-tier size m; masters are nodes
	// 0..m−1. Use Nodes for an all-master (flat / M/S-1) topology.
	Masters int
	// OS configures every node (per-node overrides via Speeds).
	OS simos.Config
	// Discipline selects the per-node CPU scheduling discipline:
	// core.DisciplineMLFQ (default), DisciplineRR (single-level
	// round-robin) or DisciplineFCFS (single level, run-to-completion
	// CPU chunks). It adjusts OS before node construction.
	Discipline string
	// EnableShedding lets the cluster shed requests the way the live
	// master does: when no slaves are in view and the policy's
	// MasterAdmission denies local execution, a dynamic request
	// completes immediately as shed instead of queueing (statics are
	// never shed). Off by default — the paper's replays run open-loop
	// without shedding.
	EnableShedding bool
	// Speeds optionally assigns per-node CPU speed factors for the
	// heterogeneous extension; nil means homogeneous.
	Speeds []float64
	// LoadRefresh is the load-information period (rstat polling).
	LoadRefresh float64
	// PolicyTick is the reservation-recompute period.
	PolicyTick float64
	// RemoteLatency is the remote CGI dispatch latency (paper: 1 ms,
	// the TCP connection time; fork is charged separately by the node).
	RemoteLatency float64
	// WarmupFraction drops samples of requests arriving in the first
	// fraction of the trace span from the reported statistics, so
	// steady-state stretch is not diluted by the empty-system start.
	WarmupFraction float64
	// Affinity pins CGI scripts to node subsets (partial replication).
	Affinity core.ScriptAffinity
	// Cache enables the Swala-style dynamic-content cache at the
	// master tier: repeat invocations of a cacheable script (same
	// script, same parameters) are answered without content generation
	// while the cached response is fresh.
	Cache *CacheConfig
	// Adaptive enables on-line master-count adaptation.
	Adaptive *AdaptiveMasters
	// Autoscale enables the full online autoscaler: Theorem 1 re-planning
	// of m plus powering slaves on and off against the measured load,
	// with c/μ-rule scale-down ordering and exponential hold-epoch
	// hysteresis (see Autoscale). Mutually exclusive with Adaptive (the
	// autoscaler subsumes it) and AutoRecruit.
	Autoscale *Autoscale
	// SLOResponse, when positive, counts every sampled request against a
	// response-time SLO: Result.SLOAttainment reports the fraction of
	// counted samples at or under this many (virtual) seconds.
	SLOResponse float64
	// AutoRecruit enables reactive recruitment of non-dedicated nodes
	// at peak load (see AutoRecruit).
	AutoRecruit *AutoRecruit
	// SampleHook, when set, observes every counted sample with the
	// request's arrival time — the feed for time-series analyses.
	SampleHook func(arrival float64, sample metrics.Sample)
	// Events is an optional availability schedule: node crashes,
	// recoveries and dynamic recruitment (see AvailabilityEvent).
	Events []AvailabilityEvent
	// InitiallyDown lists nodes that start outside the cluster
	// (non-dedicated machines recruited later by an Up event).
	InitiallyDown []int
	// RetryDelay is the failover-detection delay before requests lost
	// to a node failure are restarted elsewhere (paper: switches give
	// "sub-second failure detection").
	RetryDelay float64
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
	// epoch-versioned: availability events, adaptation, recruitment and
	// the autoscaler rebalance it live (consistent-hash ring, so only
	// ~1/m of the slaves move per master change). 0 or 1 keeps the
	// global shared view.
	Shards int
	// ShardMapMode selects the partitioning function: "hash"
	// (consistent ring, the default) or "static" (position modulo).
	ShardMapMode string
	// GossipEvery is the cross-shard summary exchange period in seconds
	// (default 4×LoadRefresh).
	GossipEvery float64
}

// DefaultConfig returns a cluster configured with the paper's constants.
func DefaultConfig(nodes, masters int) Config {
	return Config{
		Nodes:         nodes,
		Masters:       masters,
		OS:            simos.DefaultConfig(),
		LoadRefresh:   0.200,
		PolicyTick:    0.500,
		RemoteLatency: 0.001,
		RetryDelay:    0.100,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: need at least one node")
	case c.Masters < 1 || c.Masters > c.Nodes:
		return fmt.Errorf("cluster: masters %d outside [1, %d]", c.Masters, c.Nodes)
	case c.LoadRefresh <= 0:
		return fmt.Errorf("cluster: load refresh period must be positive")
	case c.PolicyTick <= 0:
		return fmt.Errorf("cluster: policy tick period must be positive")
	case c.RemoteLatency < 0:
		return fmt.Errorf("cluster: negative remote latency")
	case c.WarmupFraction < 0 || c.WarmupFraction >= 1:
		return fmt.Errorf("cluster: warmup fraction %v outside [0, 1)", c.WarmupFraction)
	case c.Speeds != nil && len(c.Speeds) != c.Nodes:
		return fmt.Errorf("cluster: %d speeds for %d nodes", len(c.Speeds), c.Nodes)
	case c.Adaptive != nil && c.Adaptive.Period <= 0:
		return fmt.Errorf("cluster: adaptive period must be positive")
	case c.AutoRecruit != nil && (c.AutoRecruit.Period <= 0 || c.AutoRecruit.HighRate <= 0 ||
		c.AutoRecruit.LowRate < 0 || c.AutoRecruit.LowRate >= c.AutoRecruit.HighRate):
		return fmt.Errorf("cluster: auto-recruit needs positive period and LowRate < HighRate")
	case c.RetryDelay < 0:
		return fmt.Errorf("cluster: negative retry delay")
	case c.Shards > 1 && c.Shards != c.Masters:
		return fmt.Errorf("cluster: shards %d must equal masters %d", c.Shards, c.Masters)
	case c.GossipEvery < 0:
		return fmt.Errorf("cluster: negative gossip period")
	case c.SLOResponse < 0:
		return fmt.Errorf("cluster: negative SLO response bound")
	case c.Autoscale != nil && c.Autoscale.Period <= 0:
		return fmt.Errorf("cluster: autoscale period must be positive")
	case c.Autoscale != nil && (c.Adaptive != nil || c.AutoRecruit != nil):
		return fmt.Errorf("cluster: autoscale subsumes Adaptive and AutoRecruit; configure only one")
	}
	if _, err := disciplinedOS(c.OS, c.Discipline); err != nil {
		return err
	}
	if c.Cache != nil {
		if c.Cache.Capacity <= 0 || c.Cache.TTL <= 0 {
			return fmt.Errorf("cluster: cache needs positive capacity and TTL")
		}
		if c.Cache.HitDemand < 0 {
			return fmt.Errorf("cluster: negative cache hit demand")
		}
	}
	if c.AutoRecruit != nil {
		for _, id := range c.AutoRecruit.Spares {
			if id < 0 || id >= c.Nodes {
				return fmt.Errorf("cluster: auto-recruit spare %d of %d", id, c.Nodes)
			}
		}
	}
	for script, nodes := range c.Affinity {
		for _, id := range nodes {
			if id < 0 || id >= c.Nodes {
				return fmt.Errorf("cluster: affinity for script %d names node %d of %d", script, id, c.Nodes)
			}
		}
	}
	if err := validateEvents(c.Events, c.Nodes); err != nil {
		return err
	}
	for _, id := range c.InitiallyDown {
		if id < 0 || id >= c.Nodes {
			return fmt.Errorf("cluster: initially-down node %d of %d", id, c.Nodes)
		}
	}
	return c.OS.Validate()
}

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
	// FinalMasters is the master count at the end (≠ initial under
	// adaptation); MasterHistory records each adaptation decision.
	FinalMasters  int
	MasterHistory []int
	// Failovers counts requests restarted after a node failure.
	Failovers int64
	// Shed counts dynamic requests refused by MasterAdmission (only
	// with Config.EnableShedding).
	Shed int64
	// CacheStats reports dynamic-content cache activity (zero value
	// when caching is disabled).
	CacheStats dyncache.Stats
	// Recruitments and Releases count auto-recruit transitions.
	Recruitments, Releases int64
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
	history   []int

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
	asHold      float64 // current hold-epoch length (s)
	asHoldUntil float64 // no scaling action before this virtual time
	asStats     *AutoscaleStats
	asOrder     []int // scratch for scaleDownOrder/scaleUpOrder

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

	cache          *dyncache.Cache
	cacheHitDemand float64

	winArrivals  int64 // arrivals since the last auto-recruit check
	recruitments int64
	releases     int64
	sparesActive bool

	// windowed estimators for adaptive reconfiguration
	winStatic, winDynamic  int64
	winDemandH, winDemandC float64
	winDoneH, winDoneC     int64
	tickers                []*sim.Ticker

	// sharded control plane (nil/zero when Config.Shards ≤ 1); see
	// shard.go for the per-master views, summaries and accounting. The
	// map is epoch-versioned and rebalanced by reshard() on every
	// topology change; shard i belongs to the master at view.Masters[i].
	shardMap     *core.ShardMap
	shardViews   []core.View
	shardSums    []core.ShardSummary
	remoteSums   [][]core.ShardSummary
	remoteAt     [][]float64
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
		c.asHold = cfg.Autoscale.holdInitial()
	}
	if cfg.Cache != nil {
		hit := cfg.Cache.HitDemand
		if hit == 0 {
			hit = 1.0 / 2400
		}
		cache, err := dyncache.New(cfg.Cache.Capacity, cfg.Cache.TTL)
		if err != nil {
			return nil, err
		}
		c.cache = cache
		c.cacheHitDemand = hit
	}
	osBase, err := disciplinedOS(cfg.OS, cfg.Discipline)
	if err != nil {
		return nil, err
	}
	c.nodes = make([]*simos.Node, cfg.Nodes)
	for i := range c.nodes {
		oscfg := osBase
		if cfg.Speeds != nil {
			oscfg.SpeedFactor = cfg.Speeds[i]
		}
		n, err := simos.NewNode(eng, i, oscfg)
		if err != nil {
			return nil, err
		}
		if cfg.Tracer != nil {
			n.SetTracer(cfg.Tracer)
		}
		c.nodes[i] = n
	}
	c.view = core.View{Load: make([]core.Load, cfg.Nodes), Affinity: cfg.Affinity}
	for i := range c.view.Load {
		speed := 1.0
		if cfg.Speeds != nil {
			speed = cfg.Speeds[i]
		}
		c.view.Load[i] = core.Load{CPUIdle: 1, DiskAvail: 1, Speed: speed}
	}
	c.setMasters(cfg.Masters)
	if cfg.Shards > 1 {
		if err := c.setupShards(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// setMasters assigns the master role to nodes 0..m−1; the effective
// tiers are the role filtered by current availability.
func (c *Cluster) setMasters(m int) {
	if m < 1 {
		m = 1
	}
	if m > c.cfg.Nodes {
		m = c.cfg.Nodes
	}
	c.roleMasters = m
	c.recomputeView()
	c.history = append(c.history, m)
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

// adapt re-plans the master count from the last window's measurements.
func (c *Cluster) adapt() {
	period := c.cfg.Adaptive.Period
	stat, dyn := c.winStatic, c.winDynamic
	c.winStatic, c.winDynamic = 0, 0
	doneH, doneC := c.winDoneH, c.winDoneC
	demH, demC := c.winDemandH, c.winDemandC
	c.winDoneH, c.winDoneC, c.winDemandH, c.winDemandC = 0, 0, 0, 0

	if stat == 0 || dyn == 0 || doneH == 0 || doneC == 0 {
		return // not enough signal this window
	}
	params := queuemodel.Params{
		P:       c.cfg.Nodes,
		LambdaH: float64(stat) / period,
		LambdaC: float64(dyn) / period,
		MuH:     float64(doneH) / demH,
		MuC:     float64(doneC) / demC,
	}
	plan, err := params.OptimalPlan()
	if err != nil {
		return // saturated or degenerate window; keep configuration
	}
	m := plan.M
	if min := c.cfg.Adaptive.MinM; min > 0 && m < min {
		m = min
	}
	max := c.cfg.Adaptive.MaxM
	if max <= 0 {
		max = c.cfg.Nodes - 1
	}
	if m > max {
		m = max
	}
	if m != c.Masters() {
		c.setMasters(m)
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
	c.dispatchFull(req, countSample, arrival, nil)
}

// dispatchFull additionally notifies onDone at completion — the hook the
// closed-loop driver uses to issue a session's next request.
func (c *Cluster) dispatchFull(req trace.Request, countSample bool, arrival float64, onDone func(now float64)) {
	if len(c.view.Masters) == 0 {
		// Whole cluster down: retry once capacity returns.
		c.eng.After(c.cfg.RetryDelay, func() { c.dispatchFull(req, countSample, arrival, onDone) })
		return
	}
	c.winArrivals++
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
			if onDone != nil {
				onDone(c.eng.Now())
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

	// Swala extension: a fresh cached response short-circuits content
	// generation — the master serves it like a small static fetch.
	if c.cache != nil && req.Class == trace.Dynamic && req.Param != 0 {
		key := dyncache.Key{Script: req.Script, Param: req.Param}
		if c.cache.Lookup(key, c.eng.Now()) {
			hit := req
			hit.Class = trace.Static // served without a CGI process
			hit.Demand = c.cacheHitDemand
			hit.CPUWeight = 0.5
			hit.MemPages = int(req.Size / c.cfg.OS.PageSize)
			c.runCacheHit(hit, reqID, countSample, arrival, master, onDone)
			return
		}
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

	if req.Class == trace.Dynamic {
		c.totalDyn++
		c.winDynamic++
		if isMaster(target, c.view.Masters) {
			c.masterDyn++
		}
	} else {
		c.winStatic++
	}

	latency := 0.0
	if target != master && req.Class == trace.Dynamic {
		latency = c.cfg.RemoteLatency
		c.remoteDyn++
	}
	if spillTarget >= 0 {
		// Spills relay through the remote shard's owner: two hops.
		latency = 2 * c.cfg.RemoteLatency
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
	pr.onDone = onDone
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
		req, count, arrival, onDone := pr.req, pr.count, pr.arrival, pr.onDone
		c.releasePending(pr)
		c.eng.After(c.cfg.RetryDelay, func() { c.dispatchFull(req, count, arrival, onDone) })
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
		MemPages: req.MemPages,
		Fork:     req.Class == trace.Dynamic,
		TraceID:  traceID,
		DoneCall: c.completeC,
		DoneArg:  pr,
	})
}

// complete is the typed completion handler for every dispatched request:
// accounting, cache fill, sample collection, and recycling of the
// pendingRequest (pr is dead once released; onDone runs after).
func (c *Cluster) complete(arg any, now float64) {
	pr := arg.(*pendingRequest)
	c.disown(pr)
	req := &pr.req
	if c.cache != nil && req.Class == trace.Dynamic && req.Param != 0 {
		c.cache.Insert(dyncache.Key{Script: req.Script, Param: req.Param}, req.Size, now)
	}
	response := now - pr.arrival
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(obs.Event{
			Kind: obs.KindComplete, Req: pr.id, Time: now,
			Node: pr.node, Value: response,
		})
	}
	c.policy.ObserveCompletion(req.Class, response, req.Demand)
	if req.Class == trace.Dynamic {
		c.winDoneC++
		c.winDemandC += req.Demand
	} else {
		c.winDoneH++
		c.winDemandH += req.Demand
	}
	if pr.count {
		c.observeSLO(response)
		sample := metrics.Sample{
			Demand:   req.Demand,
			Response: response,
			Class:    req.Class.String(),
		}
		c.collector.Add(sample)
		if c.cfg.SampleHook != nil {
			c.cfg.SampleHook(pr.arrival, sample)
		}
	}
	c.completed++
	onDone := pr.onDone
	c.releasePending(pr)
	if onDone != nil {
		onDone(now)
	}
}

// runCacheHit serves a cached dynamic response at the master as a
// lightweight job. The sample records the actual (tiny) demand so the
// stretch metric stays consistent; the benefit appears in response time
// and in the load the cluster no longer carries.
func (c *Cluster) runCacheHit(req trace.Request, reqID int64, countSample bool, arrival float64, master int, onDone func(now float64)) {
	traceID := int64(0)
	if c.cfg.Tracer != nil {
		traceID = reqID
		c.cfg.Tracer.Emit(obs.Event{
			Kind: obs.KindDispatch, Req: reqID, Time: c.eng.Now(), Node: master,
		})
	}
	c.nodes[master].Submit(simos.Job{
		CPUTime:  req.Demand * req.CPUWeight,
		IOTime:   req.Demand * (1 - req.CPUWeight),
		MemPages: req.MemPages,
		TraceID:  traceID,
		Done: func(now float64) {
			if c.cfg.Tracer != nil {
				c.cfg.Tracer.Emit(obs.Event{
					Kind: obs.KindComplete, Req: reqID, Time: now,
					Node: master, Value: now - arrival,
				})
			}
			if countSample {
				c.observeSLO(now - arrival)
				sample := metrics.Sample{
					Demand:   req.Demand,
					Response: now - arrival,
					Class:    "cached",
				}
				c.collector.Add(sample)
				if c.cfg.SampleHook != nil {
					c.cfg.SampleHook(arrival, sample)
				}
			}
			c.completed++
			if onDone != nil {
				onDone(now)
			}
		},
	})
}

// autoRecruit reacts to the measured arrival rate: spares join the
// cluster above HighRate and leave below LowRate.
func (c *Cluster) autoRecruit() {
	ar := c.cfg.AutoRecruit
	rate := float64(c.winArrivals) / ar.Period
	c.winArrivals = 0
	switch {
	case !c.sparesActive && rate >= ar.HighRate:
		for _, id := range ar.Spares {
			c.applyAvailability(AvailabilityEvent{Node: id, At: c.eng.Now(), Available: true})
		}
		c.sparesActive = true
		c.recruitments++
	case c.sparesActive && rate <= ar.LowRate:
		for _, id := range ar.Spares {
			c.applyAvailability(AvailabilityEvent{Node: id, At: c.eng.Now(), Available: false})
		}
		c.sparesActive = false
		c.releases++
	}
}

// disciplinedOS maps a scheduling-discipline name onto the OS model:
// MLFQ is the paper's default multilevel feedback queue; RR collapses
// the ready queue to one level (pure quantum round-robin); FCFS
// additionally stretches the quantum past any realistic burst so a CPU
// chunk runs to completion once granted.
func disciplinedOS(base simos.Config, discipline string) (simos.Config, error) {
	switch discipline {
	case "", core.DisciplineMLFQ:
		return base, nil
	case core.DisciplineRR:
		base.ReadyLevels = 1
		return base, nil
	case core.DisciplineFCFS:
		base.ReadyLevels = 1
		base.CPUQuantum = 3600 // far beyond any burst: no preemption
		return base, nil
	}
	return base, fmt.Errorf("cluster: unknown scheduling discipline %q", discipline)
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
// adaptation, master re-planning, auto-recruitment.
func (c *Cluster) startTickers() {
	c.tickers = append(c.tickers, c.eng.Every(c.cfg.LoadRefresh, c.refreshLoad))
	c.tickers = append(c.tickers, c.eng.Every(c.cfg.PolicyTick, func() {
		c.policy.Tick(c.eng.Now(), &c.view)
		if c.shardMap != nil {
			c.sampleSummaryAge()
		}
	}))
	if c.shardMap != nil {
		c.tickers = append(c.tickers, c.eng.Every(c.gossipPeriod(), c.gossipShards))
	}
	if c.cfg.Adaptive != nil {
		c.tickers = append(c.tickers, c.eng.Every(c.cfg.Adaptive.Period, c.adapt))
	}
	if c.cfg.Autoscale != nil {
		c.tickers = append(c.tickers, c.eng.Every(c.cfg.Autoscale.Period, c.autoscaleTick))
	}
	if c.cfg.AutoRecruit != nil {
		c.tickers = append(c.tickers, c.eng.Every(c.cfg.AutoRecruit.Period, c.autoRecruit))
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
		MasterHistory:    append([]int(nil), c.history...),
		Failovers:        c.failovers,
		Shed:             c.shed,
		SimulatedSeconds: c.eng.Now(),
		Events:           c.eng.Fired(),
	}
	if c.cache != nil {
		res.CacheStats = c.cache.Stats()
	}
	res.Recruitments = c.recruitments
	res.Releases = c.releases
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
