package experiments

// Cited competitors in their papers' own regimes. A tournament preset
// that cites a paper keeps its place only while it reproduces a result
// that paper proves; the check is a scorecard row. The row counts how
// often the preset's routing stage and its reference stage pick
// different nodes on the same view: below minShare the row reads
// vacuous, because it cannot tell the two apart.

import (
	"fmt"
	"math"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// The MaxWeight check's loads, its load-refresh period in seconds and
// the vacuity floor. The period gives per-request views: at the
// simulator's default 0.2 s the two stages read the same queue counts
// for a whole refresh window and pick the same node on almost every
// placement (results/pr53_presets.txt).
var jsqLimitRhos = []float64{0.9, 0.95, 0.98}

const (
	jsqLimitRefresh = 0.001
	minShare        = 0.05
)

// jsqLimit is the MaxWeight check's input: per load, the stage's mean
// response time over JSQ(p)'s, seed by seed, and the share of the
// stage's placements on which JSQ(p) picked another node.
type jsqLimit struct {
	cells []scoreCell
	share float64
}

// shadowRouting routes with stage and counts the placements and those
// where ref, seeded alike, picks another node on the same view.
type shadowRouting struct {
	stage, ref core.RoutingPolicy
	n, differ  int
}

func (s *shadowRouting) Name() string { return s.stage.Name() }

func (s *shadowRouting) Route(req core.Request, w float64, candidates []int, v *core.View) (int, float64) {
	node, cost := s.stage.Route(req, w, candidates, v)
	if ref, _ := s.ref.Route(req, w, candidates, v); ref != node {
		s.differ++
	}
	s.n++
	return node, cost
}

// runJSQLimit runs the MaxWeight check's regime: a homogeneous workload
// (KSU with 99 % of requests dynamic and one CPU weight, w = 0.9, for
// every script) at jsqLimitRhos on the tournament's cluster (p=16,
// Theorem 1 masters, shedding on, open admission) with views refreshed
// every jsqLimitRefresh, routed by route's stage (shadowed by JSQ(p))
// and by full join-shortest-queue alone (JSQ(d) with d = p).
func runJSQLimit(opts Options, route func(seed int64) core.RoutingPolicy) (jsqLimit, error) {
	opts = opts.withDefaults()
	const p, r = 16, 1.0 / 40
	prof := trace.KSU
	prof.DynamicFrac, prof.CPUWeightSD = 0.99, 0
	type cell struct {
		rho    float64
		seed   int64
		shadow bool
	}
	var cells []cell
	for _, rho := range jsqLimitRhos {
		for _, seed := range opts.Seeds {
			cells = append(cells, cell{rho, seed, true}, cell{rho, seed, false})
		}
	}
	type result struct {
		mean      float64
		n, differ int
	}
	res, err := runGrid(cells, func(c cell) (result, error) {
		lambda := LambdaForRho(p, prof.ArrivalRatio(), r, c.rho)
		plan, err := queuemodel.NewParams(p, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
		if err != nil {
			return result{}, err
		}
		tr, wt, err := genTraceW(prof, lambda, r, opts.requestCount(lambda), c.seed)
		if err != nil {
			return result{}, err
		}
		jsq := core.NewJSQRouting(p, c.seed)
		sh := &shadowRouting{stage: route(c.seed), ref: jsq}
		var stage core.RoutingPolicy = jsq
		if c.shadow {
			stage = sh
		}
		cfg := cluster.DefaultConfig(p, plan.M)
		cfg.WarmupFraction, cfg.EnableShedding, cfg.LoadRefresh = opts.Warmup, true, jsqLimitRefresh
		sim, err := cluster.Simulate(cfg, core.NewPipeline(core.PipelineConfig{
			Admission: core.NewOpenAdmission(), Routing: stage, WTable: wt}), tr)
		if err != nil {
			return result{}, err
		}
		return result{sim.Summary.MeanResponse, sh.n, sh.differ}, nil
	})
	if err != nil {
		return jsqLimit{}, err
	}
	l := jsqLimit{cells: make([]scoreCell, len(jsqLimitRhos))}
	var n, differ int
	for j, rho := range jsqLimitRhos {
		l.cells[j].label = fmt.Sprintf("ρ=%g", rho)
		for s := range opts.Seeds {
			k := 2 * (j*len(opts.Seeds) + s)
			l.cells[j].seeds = append(l.cells[j].seeds, res[k].mean/res[k+1].mean)
			n, differ = n+res[k].n, differ+res[k].differ
		}
		l.cells[j].v = seedMean(l.cells[j].seeds)
	}
	l.share = float64(differ) / float64(n)
	return l, nil
}

// maxDevPct is the largest |ratio − 1| of v, in percent.
func maxDevPct(v []float64) float64 {
	dev := 0.0
	for _, x := range v {
		dev = max(dev, math.Abs(x-1)*100)
	}
	return dev
}
