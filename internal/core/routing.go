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
