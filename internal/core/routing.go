package core

import (
	"math"

	"msweb/internal/rng"
)

// Routing-stage implementations: the paper's min-RSRC predictor plus the
// competitor set from the related-work literature — JSQ(d)
// (power-of-d-choices), MaxWeight-style weighted-backlog routing, the
// c/μ-rule, and uniform random — all consuming the same View and
// tie-breaking through the same seeded RNG discipline so experiment runs
// stay deterministic.

// Registered routing-stage names (metric labels). JSQ(d) reports
// "jsq<d>"; RoutingJSQPrefix is the common stem.
const (
	RoutingRSRC      = "rsrc"
	RoutingJSQPrefix = "jsq"
	RoutingMaxWeight = "maxweight"
	RoutingCMu       = "cmu"
	RoutingBalanced  = "balanced"
	RoutingMSR       = "msr"
	RoutingRandom    = "random"
)

// RSRCRouting picks the candidate minimizing the paper's RSRC cost
// (Equation 5, speed-normalized on heterogeneous clusters), breaking
// ties uniformly at random. This is the default pipeline's routing
// stage; it consumes exactly one RNG draw per placement, which the
// byte-identical golden outputs depend on.
type RSRCRouting struct {
	rng *rng.Stream
	tie []int
}

// NewRSRCRouting constructs the min-RSRC stage with its tie-break seed.
func NewRSRCRouting(seed int64) *RSRCRouting {
	return &RSRCRouting{rng: rng.New(seed)}
}

// Name implements RoutingPolicy.
func (*RSRCRouting) Name() string { return RoutingRSRC }

// Route implements RoutingPolicy.
func (r *RSRCRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	target, cost, tie := pickMinRSRC(w, candidates, v, r.rng, r.tie)
	r.tie = tie[:0]
	return target, cost
}

// JSQRouting is the power-of-d-choices dispatcher: sample d distinct
// candidates uniformly and join the one with the shortest combined
// queue. d ≥ len(candidates) degenerates to full join-shortest-queue.
// The classic load-balancing result (Mitzenmacher; Vvedenskaya et al.):
// d=2 removes most of random's imbalance at O(1) inspection cost.
type JSQRouting struct {
	d      int
	rng    *rng.Stream
	sample []int
	tie    []int
}

// NewJSQRouting constructs a JSQ(d) stage; d < 1 is treated as 1.
func NewJSQRouting(d int, seed int64) *JSQRouting {
	if d < 1 {
		d = 1
	}
	return &JSQRouting{d: d, rng: rng.New(seed)}
}

// Name implements RoutingPolicy.
func (r *JSQRouting) Name() string { return jsqName(r.d) }

func jsqName(d int) string {
	// Avoid strconv for the tiny d range actually used.
	if d >= 0 && d < 10 {
		return RoutingJSQPrefix + string(rune('0'+d))
	}
	return RoutingJSQPrefix
}

// Route implements RoutingPolicy.
func (r *JSQRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	pool := candidates
	if r.d < len(candidates) {
		// Partial Fisher–Yates over a reused copy: the first d slots
		// become the uniform sample without replacement.
		r.sample = append(r.sample[:0], candidates...)
		for i := 0; i < r.d; i++ {
			j := i + r.rng.Intn(len(r.sample)-i)
			r.sample[i], r.sample[j] = r.sample[j], r.sample[i]
		}
		pool = r.sample[:r.d]
	}
	best := math.MaxInt
	tie := r.tie[:0]
	for _, id := range pool {
		q := v.Load[id].CPUQueue + v.Load[id].DiskQueue
		switch {
		case q < best:
			best = q
			tie = append(tie[:0], id)
		case q == best:
			tie = append(tie, id)
		}
	}
	target := tie[r.rng.Intn(len(tie))]
	r.tie = tie[:0]
	return target, float64(best)
}

// MaxWeightRouting routes to the candidate with the smallest expected
// drain time of the backlog the request competes with: the request's
// resource mix weights the two queue populations and the node's relative
// speed scales the service rate — argmin (w·Q_cpu + (1−w)·Q_disk) / μ.
// This is the dispatch-side reading of MaxWeight/backpressure scheduling
// (Tassiulas & Ephremides; Maguluri & Srikant for server farms): weight
// queue lengths by service rates and serve the heaviest pressure first.
type MaxWeightRouting struct {
	rng *rng.Stream
	tie []int
}

// NewMaxWeightRouting constructs the weighted-backlog stage.
func NewMaxWeightRouting(seed int64) *MaxWeightRouting {
	return &MaxWeightRouting{rng: rng.New(seed)}
}

// Name implements RoutingPolicy.
func (*MaxWeightRouting) Name() string { return RoutingMaxWeight }

// Route implements RoutingPolicy.
func (r *MaxWeightRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	best := math.Inf(1)
	tie := r.tie[:0]
	for _, id := range candidates {
		l := v.Load[id]
		mu := l.Speed
		if mu <= 0 {
			mu = 1
		}
		cost := (w*float64(l.CPUQueue) + (1-w)*float64(l.DiskQueue)) / mu
		switch {
		case cost < best-1e-12:
			best = cost
			tie = append(tie[:0], id)
		case cost <= best+1e-12:
			tie = append(tie, id)
		}
	}
	target := tie[r.rng.Intn(len(tie))]
	r.tie = tie[:0]
	return target, best
}

// CMuRouting is the c/μ-rule read as a routing index: every request has
// the same holding cost c, so serve it where the effective service rate
// is highest — argmax μ·(w·CPUIdle + (1−w)·DiskAvail), the node offering
// the most idle capacity of the resources this request actually needs
// (Xia et al. ground the rule for dynamic server allocation).
type CMuRouting struct {
	rng *rng.Stream
	tie []int
}

// NewCMuRouting constructs the c/μ-index stage.
func NewCMuRouting(seed int64) *CMuRouting {
	return &CMuRouting{rng: rng.New(seed)}
}

// Name implements RoutingPolicy.
func (*CMuRouting) Name() string { return RoutingCMu }

// Route implements RoutingPolicy.
func (r *CMuRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	best := math.Inf(-1)
	tie := r.tie[:0]
	for _, id := range candidates {
		l := v.Load[id]
		mu := l.Speed
		if mu <= 0 {
			mu = 1
		}
		idx := mu * (w*l.CPUIdle + (1-w)*l.DiskAvail)
		switch {
		case idx > best+1e-12:
			best = idx
			tie = append(tie[:0], id)
		case idx >= best-1e-12:
			tie = append(tie, id)
		}
	}
	target := tie[r.rng.Intn(len(tie))]
	r.tie = tie[:0]
	// Report the index negated so lower still reads as "better" in
	// placement traces, matching the cost convention.
	return target, -best
}

// BalancedRouting is the balanced-fairness dispatcher (Bonald & Comte,
// "Balanced fair resource sharing in computer clusters"): under balanced
// fairness the stationary distribution is insensitive to service-time
// distributions and the per-class performance is governed by the
// bottleneck resource's occupancy. Read as a routing index, the request
// joins the node whose bottleneck — the busier of the two resources it
// needs, weighted by its own mix w and normalized by node speed — is
// least occupied after the join:
//
//	argmin max(w·(Q_cpu+1), (1−w)·(Q_disk+1)) / μ
//
// The +1 accounts for the request itself, so an empty fast node beats an
// empty slow one and the index stays finite.
type BalancedRouting struct {
	rng *rng.Stream
	tie []int
}

// NewBalancedRouting constructs the balanced-fairness stage.
func NewBalancedRouting(seed int64) *BalancedRouting {
	return &BalancedRouting{rng: rng.New(seed)}
}

// Name implements RoutingPolicy.
func (*BalancedRouting) Name() string { return RoutingBalanced }

// Route implements RoutingPolicy.
func (r *BalancedRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	best := math.Inf(1)
	tie := r.tie[:0]
	for _, id := range candidates {
		l := v.Load[id]
		mu := l.Speed
		if mu <= 0 {
			mu = 1
		}
		cpu := w * float64(l.CPUQueue+1)
		disk := (1 - w) * float64(l.DiskQueue+1)
		cost := cpu
		if disk > cost {
			cost = disk
		}
		cost /= mu
		switch {
		case cost < best-1e-12:
			best = cost
			tie = append(tie[:0], id)
		case cost <= best+1e-12:
			tie = append(tie, id)
		}
	}
	target := tie[r.rng.Intn(len(tie))]
	r.tie = tie[:0]
	return target, best
}

// MSRRouting is Markovian service-rate routing (after Chen, Grosof &
// Berg's analysis of service-rate control under Markovian regimes): the
// dispatcher commits to the candidate with the best queue-discounted
// effective service rate and holds that commitment for an exponentially
// distributed number of placements — memoryless decision epochs, so the
// (target, residual-hold) pair is a Markov chain and re-scoring cost is
// amortized to O(1) per request in expectation. The index is the
// c/μ-style rate the request would actually see,
//
//	μ·(w·CPUIdle + (1−w)·DiskAvail) / (1 + Q_cpu + Q_disk)
//
// — idle capacity of the resources this request needs, discounted by the
// backlog it must share the node with. The hold breaks early when the
// committed target drops out of the candidate set (breaker open, shed),
// so faults still re-route immediately.
type MSRRouting struct {
	rng      *rng.Stream
	tie      []int
	meanHold float64
	hold     int
	target   int
	cost     float64
}

// DefaultMSRHold is the mean commitment length in placements. Short
// enough that a 100 ms load-report cadence is never more than a few
// requests stale at typical per-master rates; long enough to amortize
// scoring.
const DefaultMSRHold = 8

// NewMSRRouting constructs the Markovian service-rate stage. meanHold
// ≤ 0 selects DefaultMSRHold; meanHold < 1 effectively re-scores every
// placement.
func NewMSRRouting(seed int64, meanHold float64) *MSRRouting {
	if meanHold <= 0 {
		meanHold = DefaultMSRHold
	}
	return &MSRRouting{rng: rng.New(seed), meanHold: meanHold, target: -1}
}

// Name implements RoutingPolicy.
func (*MSRRouting) Name() string { return RoutingMSR }

// Route implements RoutingPolicy.
func (r *MSRRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	if r.hold > 0 {
		for _, id := range candidates {
			if id == r.target {
				r.hold--
				return r.target, r.cost
			}
		}
		// Committed target no longer eligible: fall through and re-score.
	}
	best := math.Inf(-1)
	tie := r.tie[:0]
	for _, id := range candidates {
		l := v.Load[id]
		mu := l.Speed
		if mu <= 0 {
			mu = 1
		}
		idx := mu * (w*l.CPUIdle + (1-w)*l.DiskAvail) /
			float64(1+l.CPUQueue+l.DiskQueue)
		switch {
		case idx > best+1e-12:
			best = idx
			tie = append(tie[:0], id)
		case idx >= best-1e-12:
			tie = append(tie, id)
		}
	}
	r.target = tie[r.rng.Intn(len(tie))]
	r.tie = tie[:0]
	// Exponential epoch length, floored at 0 extra placements: this one
	// is always served by the fresh decision.
	r.hold = int(r.rng.Exp(r.meanHold))
	// Negate so lower reads as "better" in placement traces, matching
	// the cost convention.
	r.cost = -best
	return r.target, r.cost
}

// RandomRouting dispatches uniformly at random — the memoryless baseline
// every load-aware policy must beat.
type RandomRouting struct {
	rng *rng.Stream
}

// NewRandomRouting constructs the uniform stage.
func NewRandomRouting(seed int64) *RandomRouting {
	return &RandomRouting{rng: rng.New(seed)}
}

// Name implements RoutingPolicy.
func (*RandomRouting) Name() string { return RoutingRandom }

// Route implements RoutingPolicy.
func (r *RandomRouting) Route(req Request, w float64, candidates []int, v *View) (int, float64) {
	return candidates[r.rng.Intn(len(candidates))], 0
}
