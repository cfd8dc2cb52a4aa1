package core

import "msweb/internal/trace"

// This file defines the placement pipeline:
//
//	admission → routing
//
// AdmissionPolicy decides whether an arriving dynamic request may be
// absorbed at the master tier (the θ₂ reservation); in the degraded
// regime where no slave is routable, both planes ask the same verdict
// through MasterAdmission to decide whether to shed. RoutingPolicy
// picks the executing node among the admission-eligible candidates
// (min-RSRC by default; see routing.go for the competitor set). How a
// node orders the work it runs is not part of a policy; it belongs to
// the node model: simos.Config (ReadyLevels, CPUQuantum) in simulation,
// the round-robin Resource on live nodes.
//
// Pipeline implements Policy, so both internal/cluster (sim) and
// internal/httpcluster (live) consume a pipeline exactly as they
// consumed MS: a policy written once runs on both planes. The default
// pipeline (NewMS) reproduces the paper's RSRC+θ₂ scheduler
// byte-identically — same operation order, same single tie-break RNG
// draw per dynamic placement — so the golden experiment outputs are
// unchanged, and Place stays allocation-free.

// AdmissionPolicy is the first pipeline stage: it owns arrival/response
// accounting and decides, per dynamic request, whether the master tier
// is an eligible placement target. Implementations are consulted under
// the caller's placement lock and must not retain the View.
type AdmissionPolicy interface {
	// Name identifies the stage in registries and metric labels.
	Name() string
	// ObserveArrival counts an arriving request of either class (feeds
	// the a = λ_c/λ_h estimator of adaptive implementations).
	ObserveArrival(class trace.Class)
	// AdmitAtMaster reports whether the next dynamic request may run at
	// a master. It must be side-effect free: callers that do place at a
	// master report it via CountPlacement.
	AdmitAtMaster() bool
	// CountPlacement records one completed dynamic placement decision;
	// atMaster reports whether the chosen node is a master.
	CountPlacement(atMaster bool)
	// ObserveCompletion reports a finished request: its class, measured
	// server-site response time and intrinsic demand.
	ObserveCompletion(class trace.Class, response, demand float64)
	// Tick runs periodic adaptation for a cluster with m masters out of
	// p nodes (θ₂ recomputation in the reservation implementation).
	Tick(m, p int)
}

// RoutingPolicy is the second pipeline stage: given the request's CPU
// share w and the admission-eligible candidate set (never empty), pick
// the executing node. The returned cost is the value the choice was made
// at (RSRC for cost-based policies, 0 when the policy has no cost
// notion) and feeds placement traces.
//
// Implementations may keep per-instance scratch and RNG state; they are
// called under the caller's placement lock, never concurrently.
type RoutingPolicy interface {
	Name() string
	Route(req Request, w float64, candidates []int, v *View) (node int, cost float64)
}

// PipelineConfig assembles a Pipeline. The zero value of every field
// selects the default-M/S behavior for that aspect.
type PipelineConfig struct {
	// Name is the reported policy name; defaults to "<admission>+<routing>".
	Name string
	// Admission is the first stage; nil selects the θ₂ reservation with
	// the paper's defaults.
	Admission AdmissionPolicy
	// Routing is the second stage; nil selects min-RSRC routing seeded
	// with Seed.
	Routing RoutingPolicy
	// Seed seeds the default routing stage when Routing is nil.
	Seed int64
	// WTable is the off-line sampling result consulted for dynamic
	// requests' CPU shares; nil means every script uses DefaultW.
	WTable WTable
	// DisableSampling ignores WTable (the M/S-ns ablation: w ≡ 0.5).
	DisableSampling bool
	// PlacementImpact is the in-view booking charge applied to a node
	// per placement (see DefaultPlacementImpact). 0 selects the default;
	// NoPlacementImpact (any negative value) disables booking.
	PlacementImpact float64
}

// NoPlacementImpact disables the in-view booking charge when assigned to
// PipelineConfig.PlacementImpact (which treats 0 as "use the default").
const NoPlacementImpact = -1

// Pipeline is an admission → routing placement policy. It implements
// Policy, PlacementExplainer, MasterAdmission and AdaptiveStats, so both
// execution planes consume it exactly as they consumed the monolithic
// scheduler.
type Pipeline struct {
	name     string
	adm      AdmissionPolicy
	route    RoutingPolicy
	wtable   WTable
	sampling bool
	impact   float64
	// last is the most recent Place decision, recorded unconditionally
	// (plain field stores) so the tracing layer can annotate dispatches
	// without the policy knowing whether anyone is listening.
	last Placement
	// candScratch is reused across Place calls so the per-request
	// candidate union allocates nothing. It does not survive a call.
	candScratch []int
}

// NewPipeline assembles a pipeline from the config (see PipelineConfig
// for the defaults each zero field selects).
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Admission == nil {
		cfg.Admission = NewTheta2Admission(DefaultReservationConfig())
	}
	if cfg.Routing == nil {
		cfg.Routing = NewRSRCRouting(cfg.Seed)
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Admission.Name() + "+" + cfg.Routing.Name()
	}
	impact := cfg.PlacementImpact
	switch {
	case impact == 0:
		impact = DefaultPlacementImpact
	case impact < 0:
		impact = 0
	}
	return &Pipeline{
		name:     cfg.Name,
		adm:      cfg.Admission,
		route:    cfg.Routing,
		wtable:   cfg.WTable,
		sampling: !cfg.DisableSampling,
		impact:   impact,
	}
}

// Name implements Policy.
func (p *Pipeline) Name() string { return p.name }

// AdmissionName reports the first stage's registry name (metric labels).
func (p *Pipeline) AdmissionName() string { return p.adm.Name() }

// RoutingName reports the second stage's registry name (metric labels).
func (p *Pipeline) RoutingName() string { return p.route.Name() }

// Place implements Policy: statics stay at the receiving master;
// dynamics go to the routing stage's choice among the slaves plus —
// while the admission stage allows it — the masters.
func (p *Pipeline) Place(req Request, master int, v *View) int {
	p.adm.ObserveArrival(req.Class)
	if req.Class == trace.Static {
		p.last = Placement{Node: master}
		return master
	}
	w := DefaultW
	if p.sampling {
		w = p.wtable.W(req.Script)
	}
	candidates := v.Slaves
	mastersEligible := p.adm.AdmitAtMaster()
	if len(candidates) == 0 {
		// No slave tier (M/S-1): masters are the only choice.
		mastersEligible = true
	}
	if mastersEligible {
		// Slaves-then-masters union in the reused scratch, preserving
		// the order the tie-break RNG consumption depends on.
		p.candScratch = append(append(p.candScratch[:0], candidates...), v.Masters...)
		candidates = p.candScratch
	}
	target, cost := p.route.Route(req, w, candidates, v)
	p.last = Placement{Node: target, RSRC: cost, W: w, MasterAdmitted: mastersEligible}
	p.adm.CountPlacement(isIn(target, v.Masters))
	if p.impact > 0 {
		// Book the placement into the cached view so the next dynamic
		// in the same refresh window sees this node as busier.
		l := &v.Load[target]
		l.CPUIdle = maxf(0, l.CPUIdle-p.impact*w)
		l.DiskAvail = maxf(0, l.DiskAvail-p.impact*(1-w))
	}
	return target
}

// PlaceRemote runs only the routing stage over v.Slaves and returns the
// chosen node and routing cost, or (-1, 0) when the view offers no
// candidate. It is the spill path of a sharded master: admission
// already ruled (the local master would shed), the candidates are
// remote digests the caller synthesized from peer summaries, and
// booking against a view rebuilt per call would be meaningless — so no
// arrival/placement counting and no booking happen here. Routing-stage
// RNG draws are consumed, which is safe for the goldens because
// unsharded runs never spill.
func (p *Pipeline) PlaceRemote(req Request, v *View) (int, float64) {
	if len(v.Slaves) == 0 {
		return -1, 0
	}
	w := DefaultW
	if p.sampling {
		w = p.wtable.W(req.Script)
	}
	target, cost := p.route.Route(req, w, v.Slaves, v)
	return target, cost
}

// ObserveCompletion implements Policy.
func (p *Pipeline) ObserveCompletion(class trace.Class, response, demand float64) {
	p.adm.ObserveCompletion(class, response, demand)
}

// Tick implements Policy.
func (p *Pipeline) Tick(now float64, v *View) {
	p.adm.Tick(len(v.Masters), v.P())
}

// LastPlacement implements PlacementExplainer.
func (p *Pipeline) LastPlacement() Placement { return p.last }

// AdmitsAtMaster implements MasterAdmission: whether the admission stage
// would let the next dynamic request run at a master.
func (p *Pipeline) AdmitsAtMaster() bool { return p.adm.AdmitAtMaster() }

// ThetaLimit implements AdaptiveStats, delegating to the admission stage
// (1 — no cap — when the stage is not adaptive).
func (p *Pipeline) ThetaLimit() float64 {
	if s, ok := p.adm.(AdaptiveStats); ok {
		return s.ThetaLimit()
	}
	return 1
}

// ArrivalRatio implements AdaptiveStats.
func (p *Pipeline) ArrivalRatio() float64 {
	if s, ok := p.adm.(AdaptiveStats); ok {
		return s.ArrivalRatio()
	}
	return 0
}

// ServiceRatio implements AdaptiveStats.
func (p *Pipeline) ServiceRatio() float64 {
	if s, ok := p.adm.(AdaptiveStats); ok {
		return s.ServiceRatio()
	}
	return 0
}
