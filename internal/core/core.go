// Package core implements the paper's primary contribution: scheduling
// policies for a master/slave Web server cluster (Section 4).
//
// The full M/S scheduler combines three mechanisms:
//
//  1. Node selection with cost prediction. Each dynamic request is placed
//     on the candidate node minimizing the relative server-site response
//     cost RSRC = w/CPUIdleRatio + (1−w)/DiskAvailRatio, where w is the
//     request class's CPU share obtained by off-line sampling (0.5 when
//     unknown) and the idle/available ratios come from periodically
//     refreshed rstat()-style load information.
//
//  2. Reservation for static processing. The fraction of dynamic
//     requests admitted at master nodes is capped at θ₂ — the upper root
//     from Theorem 1, which depends only on m/p and the arrival and
//     service ratios a and r. a is monitored from arrival counts; r is
//     approximated on-line by the ratio of measured static and dynamic
//     response times, which makes the cap self-stabilizing: admitting
//     too many dynamics at masters inflates static response times,
//     shrinking the apparent r and with it the cap.
//
//  3. Separation of static and dynamic processing. Static requests are
//     never re-scheduled: they run at the master that received them,
//     so cheap requests are not delayed behind CGI work.
//
// The ablated variants the paper evaluates are configurations of the same
// scheduler: M/S-ns disables w sampling (w ≡ 0.5), M/S-nr disables the
// reservation cap, and M/S-1 makes every node a master. The flat
// architecture (uniform random dispatch, no redirection) is the one
// baseline outside the pipeline.
package core

import (
	"math"

	"msweb/internal/rng"
	"msweb/internal/trace"
)

// Load is one node's scheduling-relevant load snapshot. It is also the
// wire format the live cluster's /load endpoint serves (the JSON tags
// are the protocol), so the simulator and the HTTP substrate share one
// definition instead of hand-copied mirrors.
type Load struct {
	// CPUIdle is the idle fraction of the CPU over the last load-info
	// window, in [0, 1].
	CPUIdle float64 `json:"cpu_idle"`
	// DiskAvail is the available fraction of disk bandwidth over the
	// last window, in [0, 1].
	DiskAvail float64 `json:"disk_avail"`
	// CPUQueue and DiskQueue are instantaneous queue populations,
	// consumed by the queue-aware routing stages (JSQ(d), MaxWeight…).
	CPUQueue  int `json:"cpu_queue"`
	DiskQueue int `json:"disk_queue"`
	// Speed is the node's relative CPU speed (heterogeneous extension).
	Speed float64 `json:"speed,omitempty"`
}

// ScriptAffinity restricts where CGI scripts may run — the paper's
// future-work scenario in which "only portions of the data may be
// replicated and some CGI scripts require specific servers". A script
// absent from the map may run anywhere; an empty slice is treated the
// same (no usable constraint).
type ScriptAffinity map[int][]int

// Allowed returns the node set a script is pinned to, or nil when the
// script is unconstrained.
func (a ScriptAffinity) Allowed(script int) []int {
	if a == nil {
		return nil
	}
	nodes := a[script]
	if len(nodes) == 0 {
		return nil
	}
	return nodes
}

// View is the cluster state a policy sees when placing a request: the
// current role assignment and the latest (possibly stale) load snapshots.
type View struct {
	Now     float64
	Masters []int
	Slaves  []int
	Load    []Load // indexed by node id; len(Load) = cluster size
	// Affinity optionally pins scripts to node subsets.
	Affinity ScriptAffinity
}

// P returns the cluster size.
func (v *View) P() int { return len(v.Load) }

// Request is the scheduling-relevant description of an arriving request.
type Request struct {
	Class  trace.Class
	Script int
}

// Policy decides where requests execute. Place is called once per
// request with the master that received it; ObserveCompletion and Tick
// feed the adaptive estimators of reservation-based policies.
type Policy interface {
	// Name identifies the policy in experiment output ("M/S", "M/S-nr"...).
	Name() string
	// Place returns the node that must execute the request.
	Place(req Request, master int, v *View) int
	// ObserveCompletion reports a finished request: its class, measured
	// server-site response time and intrinsic demand.
	ObserveCompletion(class trace.Class, response, demand float64)
	// Tick runs periodic adaptation (reservation-cap recomputation).
	Tick(now float64, v *View)
}

// Placement describes one Place decision for the observability layer:
// the chosen node, the RSRC cost it was chosen at, the CPU share used
// in the cost, and whether the reservation admitted masters as
// candidates. RSRC is 0 for placements that involved no cost comparison
// (static requests, single-candidate pools).
type Placement struct {
	Node           int
	RSRC           float64
	W              float64
	MasterAdmitted bool
}

// PlacementExplainer is implemented by policies that can describe their
// most recent Place decision. The tracing layer consults it after each
// placement; recording the explanation must be cheap enough to do
// unconditionally (a few field stores).
type PlacementExplainer interface {
	LastPlacement() Placement
}

// MasterAdmission is implemented by reservation-based policies that can
// report whether the θ₂ cap currently admits another dynamic request at
// a master. Both planes' shedders consult it when no slave is routable
// (the live master: every slave circuit-open; the simulator: no slave
// in view): if the reservation says masters are already at their
// dynamic cap, admitting more would starve static traffic, so the
// request is shed instead — the same feedback loop that drives
// placement, extended to admission control.
type MasterAdmission interface {
	AdmitsAtMaster() bool
}

// FilterLive appends to dst the members of ids for which live returns
// true and returns the extended slice. It is the breaker-aware candidate
// filter used by live masters to exclude circuit-open nodes from a
// policy's view; callers pass a reused scratch as dst so steady-state
// filtering allocates nothing.
func FilterLive(dst, ids []int, live func(id int) bool) []int {
	for _, id := range ids {
		if live(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// AdaptiveStats is implemented by policies that expose their adaptive
// estimator state — the live cluster's /metrics endpoint publishes
// these as the scheduler gauges the paper's measurement-driven
// mechanisms are judged by.
type AdaptiveStats interface {
	// ThetaLimit is the current θ₂ admission cap.
	ThetaLimit() float64
	// ArrivalRatio is the measured arrival-rate ratio a = λ_c/λ_h.
	ArrivalRatio() float64
	// ServiceRatio is the measured service-rate ratio r ≈ μ_c/μ_h.
	ServiceRatio() float64
}

// MinIdleFloor bounds the idle/available ratios away from zero in the
// RSRC denominator: a saturated resource still drains work at quantum
// granularity, and the scheduler must retain a finite ordering between
// two busy nodes.
const MinIdleFloor = 0.01

// RSRC is Equation 5 of the paper: the relative server-site response
// cost of running a request with CPU share w on a node with the given
// idle ratios. Lower is better.
func RSRC(w, cpuIdle, diskAvail float64) float64 {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	if cpuIdle < MinIdleFloor {
		cpuIdle = MinIdleFloor
	}
	if diskAvail < MinIdleFloor {
		diskAvail = MinIdleFloor
	}
	return w/cpuIdle + (1-w)/diskAvail
}

// NodeRSRC is the per-node placement cost including the heterogeneous
// speed adjustment — exported so spill ranking over shard digests uses
// the same definition the digests were ordered by.
func NodeRSRC(w float64, l Load) float64 { return nodeRSRC(w, l) }

// nodeRSRC is the per-node cost used by pickMinRSRC and shard summaries.
func nodeRSRC(w float64, l Load) float64 {
	if sp := l.Speed; sp > 0 && sp != 1 {
		// Heterogeneous extension: a faster CPU cuts the CPU share of
		// the cost (paper §4 defers to the authors' prior work;
		// normalizing the CPU term by relative speed is the adaptation
		// used there).
		return (w/sp)/maxf(l.CPUIdle, MinIdleFloor) + (1-w)/maxf(l.DiskAvail, MinIdleFloor)
	}
	return RSRC(w, l.CPUIdle, l.DiskAvail)
}

// WTable is the off-line sampling result: the measured CPU share of each
// CGI script. Scripts absent from the table fall back to DefaultW.
type WTable map[int]float64

// DefaultW is the assumption when no sample exists: CPU and I/O equally
// important.
const DefaultW = 0.5

// W looks up a script's sampled CPU share.
func (t WTable) W(script int) float64 {
	if t == nil {
		return DefaultW
	}
	if w, ok := t[script]; ok {
		return w
	}
	return DefaultW
}

// SampleW performs the off-line sampling pass: it averages the observed
// CPU share of the first maxPerScript instances of each script in the
// trace, mimicking profiling each CGI program on an unloaded system.
func SampleW(tr *trace.Trace, maxPerScript int) WTable {
	if maxPerScript <= 0 {
		maxPerScript = 16
	}
	// Scripts in [0, maxDenseScript) — every generated trace's 1..NumScripts
	// and a converted access log's 1..997 — accumulate in slices indexed
	// by script; any other script number a trace file may carry falls
	// back to a map. Either way each script's weights are summed in trace
	// order, so the table does not depend on which one held them.
	const maxDenseScript = 1 << 12
	type acc struct {
		sum float64
		n   int
	}
	dense := make([]acc, 0, 64) // on the stack unless a script ≥ 64 grows it
	var sparse map[int]*acc
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Class != trace.Dynamic {
			continue
		}
		var a *acc
		if s := r.Script; s >= 0 && s < maxDenseScript {
			if s >= len(dense) {
				dense = append(dense, make([]acc, s+1-len(dense))...)
			}
			a = &dense[s]
		} else {
			// p, not a, goes into the map: a may point into dense, which
			// would then escape to the heap.
			p := sparse[s]
			if p == nil {
				if sparse == nil {
					sparse = map[int]*acc{}
				}
				p = &acc{}
				sparse[s] = p
			}
			a = p
		}
		if a.n >= maxPerScript {
			continue
		}
		a.sum += r.CPUWeight
		a.n++
	}
	t := WTable{}
	for s, a := range dense {
		if a.n > 0 {
			t[s] = a.sum / float64(a.n)
		}
	}
	for s, a := range sparse {
		t[s] = a.sum / float64(a.n)
	}
	return t
}

// pickMinRSRC returns the candidate with the smallest RSRC and that
// cost; ties are broken uniformly at random so equal nodes share load.
// The tie list builds in scratch (reused across calls by the owner) so
// the per-placement hot path does not allocate; the possibly-grown
// buffer is returned for the caller to keep.
func pickMinRSRC(w float64, candidates []int, v *View, s *rng.Stream, scratch []int) (int, float64, []int) {
	if len(candidates) == 0 {
		panic("core: no candidate nodes")
	}
	best := math.Inf(1)
	bestNodes := scratch[:0]
	for _, id := range candidates {
		cost := nodeRSRC(w, v.Load[id])
		switch {
		case cost < best-1e-12:
			best = cost
			bestNodes = bestNodes[:0]
			bestNodes = append(bestNodes, id)
		case cost <= best+1e-12:
			bestNodes = append(bestNodes, id)
		}
	}
	return bestNodes[s.Intn(len(bestNodes))], best, bestNodes
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// MS is the paper's full scheduler, expressed as the default pipeline:
// θ₂-reservation admission, min-RSRC routing, MLFQ per-node scheduling.
// The alias keeps the paper-facing name for the policy the experiments
// are about while the mechanics live in Pipeline.
type MS = Pipeline

// MSOption configures NewMS's ablations.
type MSOption func(*msConfig)

type msConfig struct {
	name        string
	sampling    bool
	reservation bool
}

// WithoutSampling disables off-line w sampling (the M/S-ns ablation):
// every dynamic request is costed with w = 0.5.
func WithoutSampling() MSOption { return func(c *msConfig) { c.sampling = false } }

// WithoutReservation disables the θ₂ admission cap at masters (the
// M/S-nr ablation). The estimators keep running so adaptive stats stay
// observable; only enforcement is off.
func WithoutReservation() MSOption { return func(c *msConfig) { c.reservation = false } }

// WithName overrides the reported policy name.
func WithName(name string) MSOption { return func(c *msConfig) { c.name = name } }

// DefaultPlacementImpact is the booking charge: between two load-info
// refreshes every placement marks its target that much busier in the
// scheduler's cached view, preventing the stale-information herd effect
// (all requests of a refresh window piling onto the one node that looked
// idlest). The cached view is overwritten at the next rstat refresh, so
// the charge only needs to be the right order of magnitude: one CGI
// occupies a sizable share of one resource for one refresh window.
const DefaultPlacementImpact = 0.15

// NewMS constructs the full M/S policy — the default pipeline — with
// options for the paper's ablations. Other placement knobs (booking
// impact, the stages themselves) are PipelineConfig fields; build those
// variants with NewPipeline.
func NewMS(wtable WTable, seed int64, opts ...MSOption) *MS {
	c := msConfig{name: "M/S", sampling: true, reservation: true}
	for _, o := range opts {
		o(&c)
	}
	adm := NewTheta2Admission(DefaultReservationConfig())
	if !c.reservation {
		adm.ObserveOnly()
	}
	return NewPipeline(PipelineConfig{
		Name:            c.name,
		Admission:       adm,
		Routing:         NewRSRCRouting(seed),
		WTable:          wtable,
		DisableSampling: !c.sampling,
	})
}

// intersect returns the members of a that also appear in b, preserving
// a's order.
func intersect(a, b []int) []int {
	var out []int
	for _, x := range a {
		if isIn(x, b) {
			out = append(out, x)
		}
	}
	return out
}

func isIn(id int, ids []int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Flat is the theoretical baseline: uniform random dispatch with no
// redirection — every request executes at the node that received it.
type Flat struct{}

// NewFlat constructs the flat policy.
func NewFlat() *Flat { return &Flat{} }

// Name implements Policy.
func (*Flat) Name() string { return "Flat" }

// Place implements Policy.
func (*Flat) Place(req Request, master int, v *View) int { return master }

// ObserveCompletion implements Policy.
func (*Flat) ObserveCompletion(trace.Class, float64, float64) {}

// Tick implements Policy.
func (*Flat) Tick(float64, *View) {}
