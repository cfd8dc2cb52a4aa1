package experiments

// Cited competitors in their papers' own regimes. A tournament preset
// that cites a paper keeps its place only while it reproduces a result
// that paper proves; the check is a scorecard row.

import (
	"fmt"
	"math"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/policy"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// jsqLimitRhos are the heavy-traffic loads of the MaxWeight check.
var jsqLimitRhos = []float64{0.9, 0.95, 0.98}

// runJSQLimit runs the MaxWeight check's regime: a homogeneous workload
// (KSU with 99 % of requests dynamic and one CPU weight, w = 0.9, for
// every script) at jsqLimitRhos on the tournament's cluster (p=16,
// Theorem 1 masters, shedding on), through build and through full
// join-shortest-queue (JSQ(d) with d = p). Each cell is one load: the
// ratio of build's mean response time to JSQ(p)'s, seed by seed.
func runJSQLimit(opts Options, build policy.Builder) ([]scoreCell, error) {
	opts = opts.withDefaults()
	const p, r = 16, 1.0 / 40
	prof := trace.KSU
	prof.DynamicFrac, prof.CPUWeightSD = 0.99, 0
	jsq := func(wt core.WTable, seed int64) core.Policy {
		return core.NewPipeline(core.PipelineConfig{
			Name: "JSQ(p)", Admission: core.NewOpenAdmission(),
			Routing: core.NewJSQRouting(p, seed), WTable: wt,
		})
	}
	type cell struct {
		build      policy.Builder
		lambda     float64
		masters, n int
		seed       int64
	}
	var cells []cell
	for _, rho := range jsqLimitRhos {
		lambda := LambdaForRho(p, prof.ArrivalRatio(), r, rho)
		plan, err := queuemodel.NewParams(p, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
		if err != nil {
			return nil, err
		}
		for _, seed := range opts.Seeds {
			for _, b := range []policy.Builder{build, jsq} {
				cells = append(cells, cell{b, lambda, plan.M, opts.requestCount(lambda), seed})
			}
		}
	}
	means, err := runGrid(cells, func(c cell) (float64, error) {
		tr, wt, err := genTraceW(prof, c.lambda, r, c.n, c.seed)
		if err != nil {
			return 0, err
		}
		cfg := cluster.DefaultConfig(p, c.masters)
		cfg.WarmupFraction = opts.Warmup
		cfg.EnableShedding = true
		res, err := cluster.Simulate(cfg, c.build(wt, c.seed), tr)
		if err != nil {
			return 0, err
		}
		return res.Summary.MeanResponse, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]scoreCell, len(jsqLimitRhos))
	for j, rho := range jsqLimitRhos {
		out[j].label = fmt.Sprintf("ρ=%g", rho)
		for s := range opts.Seeds {
			k := 2 * (j*len(opts.Seeds) + s)
			out[j].seeds = append(out[j].seeds, means[k]/means[k+1])
		}
		out[j].v = seedMean(out[j].seeds)
	}
	return out, nil
}

// maxDevPct is the largest |ratio − 1| of v, in percent.
func maxDevPct(v []float64) float64 {
	dev := 0.0
	for _, x := range v {
		dev = max(dev, math.Abs(x-1)*100)
	}
	return dev
}
