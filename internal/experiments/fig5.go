package experiments

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// Fig5Row is one bar of Figure 5: the stretch-factor increase of running
// with the master count frozen at the nominal plan versus re-planning m
// for the actual workload with Theorem 1.
type Fig5Row struct {
	Trace     string
	InvR      float64
	Rho       float64
	Lambda    float64
	FixedM    int
	AdaptedM  int // per-workload re-planned m
	FixedSF   float64
	AdaptSF   float64
	DegradPct float64 // (FixedSF/AdaptSF − 1) × 100
}

// Fig5Result carries the rows plus the nominal plan.
type Fig5Result struct {
	P        int
	NominalM int
	Rows     []Fig5Row
}

// fig5Cell is one simulation: a (trace, combo, master count, seed)
// tuple. The fixed and re-planned columns of one bar share the trace,
// so the cache generates it once.
type fig5Cell struct {
	prof    trace.Profile
	invR    float64
	rho     float64
	lambda  float64
	n       int
	masters int
	seed    int64
}

// RunFig5 reproduces the Figure 5 sensitivity study for cluster size p.
// The master count is fixed from the nominal parameters the paper uses
// (r=1/60, a=0.44, λ=750 for p=32 scaled by cluster size), then traces
// whose r, a and λ differ substantially are replayed against both the
// fixed configuration and one whose master count is re-planned for each
// workload by Theorem 1 — the administrator-style periodic
// reconfiguration the paper describes ("the number of master nodes can
// be changed by administrators periodically"; fully dynamic adaptation
// "requires dynamic configuration change", which the online autoscaler,
// cluster.Autoscale, provides). The paper observes at most 9%
// degradation, 4% on average.
func RunFig5(p int, opts Options) (*Fig5Result, error) {
	opts = opts.withDefaults()

	nominalLambda := 750.0 * float64(p) / 32
	plan, err := queuemodel.NewParams(p, nominalLambda, 0.44, MuH, 1.0/60).OptimalPlan()
	if err != nil {
		return nil, fmt.Errorf("fig5 nominal plan: %w", err)
	}
	fixedM := plan.M

	// 12 bar groups: 3 traces × 4 (1/r, ρ) combinations spanning the
	// paper's variation (r 1/20..1/160, load light to heavy).
	combos := []struct {
		invR float64
		rho  float64
	}{
		{20, 0.40}, {40, 0.55}, {80, 0.70}, {160, 0.80},
	}

	type group struct {
		prof     trace.Profile
		invR     float64
		rho      float64
		lambda   float64
		adaptedM int
	}
	var groups []group
	var cells []fig5Cell
	for _, prof := range trace.Profiles() {
		a := prof.ArrivalRatio()
		for _, cb := range combos {
			r := 1 / cb.invR
			lambda := LambdaForRho(p, a, r, cb.rho)
			n := opts.requestCount(lambda)
			cellPlan, err := queuemodel.NewParams(p, lambda, a, MuH, r).OptimalPlan()
			if err != nil {
				return nil, fmt.Errorf("fig5 %s 1/r=%.0f plan: %w", prof.Name, cb.invR, err)
			}
			groups = append(groups, group{prof, cb.invR, cb.rho, lambda, cellPlan.M})
			for _, masters := range []int{fixedM, cellPlan.M} {
				for _, seed := range opts.Seeds {
					cells = append(cells, fig5Cell{
						prof: prof, invR: cb.invR, rho: cb.rho, lambda: lambda,
						n: n, masters: masters, seed: seed,
					})
				}
			}
		}
	}

	stretches, err := runGrid(cells, func(c fig5Cell) (float64, error) {
		tr, wt, err := genTraceW(c.prof, c.lambda, 1/c.invR, c.n, c.seed)
		if err != nil {
			return 0, fmt.Errorf("fig5 %s 1/r=%.0f seed %d: %w", c.prof.Name, c.invR, c.seed, err)
		}
		cfg := cluster.DefaultConfig(p, c.masters)
		cfg.WarmupFraction = opts.Warmup
		rr, err := cluster.Simulate(cfg, core.NewMS(wt, c.seed), tr)
		if err != nil {
			return 0, fmt.Errorf("fig5 %s 1/r=%.0f m=%d: %w", c.prof.Name, c.invR, c.masters, err)
		}
		return rr.StretchFactor, nil
	})
	if err != nil {
		return nil, err
	}

	nSeeds := len(opts.Seeds)
	res := &Fig5Result{P: p, NominalM: fixedM}
	i := 0
	for _, g := range groups {
		fixedSF := seedMean(stretches[i : i+nSeeds])
		i += nSeeds
		adaptSF := seedMean(stretches[i : i+nSeeds])
		i += nSeeds
		res.Rows = append(res.Rows, Fig5Row{
			Trace:     g.prof.Name,
			InvR:      g.invR,
			Rho:       g.rho,
			Lambda:    g.lambda,
			FixedM:    fixedM,
			AdaptedM:  g.adaptedM,
			FixedSF:   fixedSF,
			AdaptSF:   adaptSF,
			DegradPct: (fixedSF/adaptSF - 1) * 100,
		})
	}
	return res, nil
}

// MeanDegradation returns the average positive degradation across rows
// (negative rows — fixed beating adaptive — count as zero, as the paper
// reports degradation).
func (r *Fig5Result) MeanDegradation() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range r.Rows {
		if row.DegradPct > 0 {
			sum += row.DegradPct
		}
	}
	return sum / float64(len(r.Rows))
}
