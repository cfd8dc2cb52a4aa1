package experiments

// The ablation of a design choice DESIGN.md calls out: how stale load
// information degrades placement (the herding effect the in-view
// booking correction counters).

import (
	"math"
	"slices"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// StalenessRow reports one load-information refresh period.
type StalenessRow struct {
	RefreshSeconds float64
	WithBooking    float64 // SF with the in-view booking correction
	NoBooking      float64 // SF without it
	// SeedWithBooking and SeedNoBooking are the two stretch factors seed
	// by seed, in Options.Seeds order.
	SeedWithBooking, SeedNoBooking []float64
}

// RunStaleness sweeps the rstat polling period with and without the
// placement-booking correction, quantifying the stale-information herd
// effect: without booking, every request between two refreshes piles
// onto the node that looked idlest at the last poll. Only the periods
// shorter than the run's simulated span are swept.
func RunStaleness(p int, opts Options) ([]StalenessRow, error) {
	opts = opts.withDefaults()
	prof := trace.ADL
	r := 1.0 / 40
	lambda := LambdaForRho(p, prof.ArrivalRatio(), r, opts.TargetRho)
	n := opts.requestCount(lambda)
	plan, err := queuemodel.NewParams(p, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
	if err != nil {
		return nil, err
	}

	// A period as long as the run never refreshes, so there is no herd
	// to measure: keep the periods shorter than the shortest seed's
	// trace span (its last arrival).
	span := math.Inf(1)
	for _, seed := range opts.Seeds {
		tr, _, err := genTraceW(prof, lambda, r, n, seed)
		if err != nil {
			return nil, err
		}
		span = min(span, tr.Requests[n-1].Arrival)
	}
	refreshes := slices.DeleteFunc([]float64{0.05, 0.2, 1.0, 5.0}, func(s float64) bool { return s >= span })
	impacts := []float64{core.DefaultPlacementImpact, 0}
	type cell struct {
		refresh float64
		impact  float64
		seed    int64
	}
	var cells []cell
	for _, refresh := range refreshes {
		for _, impact := range impacts {
			for _, seed := range opts.Seeds {
				cells = append(cells, cell{refresh, impact, seed})
			}
		}
	}
	stretches, err := runGrid(cells, func(c cell) (float64, error) {
		tr, wt, err := genTraceW(prof, lambda, r, n, c.seed)
		if err != nil {
			return 0, err
		}
		cfg := cluster.DefaultConfig(p, plan.M)
		cfg.WarmupFraction = opts.Warmup
		cfg.LoadRefresh = c.refresh
		impact := c.impact
		if impact == 0 {
			impact = core.NoPlacementImpact
		}
		pol := core.NewPipeline(core.PipelineConfig{
			Name: "M/S", WTable: wt, Seed: c.seed, PlacementImpact: impact,
		})
		res, err := cluster.Simulate(cfg, pol, tr)
		if err != nil {
			return 0, err
		}
		return res.StretchFactor, nil
	})
	if err != nil {
		return nil, err
	}
	nSeeds := len(opts.Seeds)
	var rows []StalenessRow
	i := 0
	for _, refresh := range refreshes {
		with, without := stretches[i:i+nSeeds], stretches[i+nSeeds:i+2*nSeeds]
		i += 2 * nSeeds
		rows = append(rows, StalenessRow{
			RefreshSeconds: refresh, WithBooking: seedMean(with), NoBooking: seedMean(without),
			SeedWithBooking: with, SeedNoBooking: without,
		})
	}
	return rows, nil
}
