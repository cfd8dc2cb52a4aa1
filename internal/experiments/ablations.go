package experiments

// Ablations of the design choices DESIGN.md calls out: how accurate the
// off-line w sampling must be for RSRC to pay off, and how stale load
// information degrades placement (the herding effect the in-view
// booking correction counters).

import (
	"sort"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/rng"
	"msweb/internal/trace"
)

// WSensitivityRow reports one sampling-accuracy level.
type WSensitivityRow struct {
	Label   string
	Stretch float64
}

// RunWSensitivity replays an I/O-heavy ADL workload with progressively
// corrupted w tables: exact sampling, Gaussian sampling error of
// increasing width, the blind 0.5 default (M/S-ns), and adversarially
// inverted weights. The spread shows how much headroom the off-line
// sampling step has before cost prediction misroutes work.
func RunWSensitivity(p int, opts Options) ([]WSensitivityRow, error) {
	opts = opts.withDefaults()
	prof := trace.ADL // widest CPU/disk asymmetry → sampling matters most
	r := 1.0 / 40
	lambda := LambdaForRho(p, prof.ArrivalRatio(), r, opts.TargetRho)
	n := opts.requestCount(lambda)
	plan, err := queuemodel.NewParams(p, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
	if err != nil {
		return nil, err
	}

	corruptions := []struct {
		label string
		make  func(exact core.WTable, s *rng.Stream) core.WTable
	}{
		{"exact sampling", func(exact core.WTable, _ *rng.Stream) core.WTable { return exact }},
		{"sampling error ±0.1", noisyW(0.1)},
		{"sampling error ±0.3", noisyW(0.3)},
		{"blind w=0.5 (M/S-ns)", func(core.WTable, *rng.Stream) core.WTable { return nil }},
		{"inverted weights", func(exact core.WTable, _ *rng.Stream) core.WTable {
			bad := make(core.WTable, len(exact))
			for k, v := range exact {
				bad[k] = 1 - v
			}
			return bad
		}},
	}

	// One cell per (corruption, seed); merged means keep corruption order.
	type cell struct {
		ci   int
		seed int64
	}
	var cells []cell
	for ci := range corruptions {
		for _, seed := range opts.Seeds {
			cells = append(cells, cell{ci, seed})
		}
	}
	stretches, err := runGrid(cells, func(c cell) (float64, error) {
		tr, exact, err := genTraceW(prof, lambda, r, n, c.seed)
		if err != nil {
			return 0, err
		}
		wt := corruptions[c.ci].make(exact, rng.New(c.seed+int64(c.ci)*1000))
		return simulateOnce(p, plan.M, core.NewMS(wt, c.seed), tr, opts.Warmup)
	})
	if err != nil {
		return nil, err
	}
	nSeeds := len(opts.Seeds)
	var rows []WSensitivityRow
	for ci, c := range corruptions {
		rows = append(rows, WSensitivityRow{
			Label:   c.label,
			Stretch: seedMean(stretches[ci*nSeeds : (ci+1)*nSeeds]),
		})
	}
	return rows, nil
}

// noisyW corrupts each sampled weight with clamped Gaussian noise. The
// scripts draw from the one stream in ascending id order, so a seed
// fixes the noise (ranging over the map would not).
func noisyW(sigma float64) func(core.WTable, *rng.Stream) core.WTable {
	return func(exact core.WTable, s *rng.Stream) core.WTable {
		ids := make([]int, 0, len(exact))
		for k := range exact {
			ids = append(ids, k)
		}
		sort.Ints(ids)
		out := make(core.WTable, len(exact))
		for _, k := range ids {
			w := s.Normal(exact[k], sigma)
			if w < 0.01 {
				w = 0.01
			}
			if w > 0.99 {
				w = 0.99
			}
			out[k] = w
		}
		return out
	}
}

// StalenessRow reports one load-information refresh period.
type StalenessRow struct {
	RefreshSeconds float64
	WithBooking    float64 // SF with the in-view booking correction
	NoBooking      float64 // SF without it
}

// RunStaleness sweeps the rstat polling period with and without the
// placement-booking correction, quantifying the stale-information herd
// effect: without booking, every request between two refreshes piles
// onto the node that looked idlest at the last poll.
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

	refreshes := []float64{0.05, 0.2, 1.0, 5.0}
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
		with := seedMean(stretches[i : i+nSeeds])
		i += nSeeds
		without := seedMean(stretches[i : i+nSeeds])
		i += nSeeds
		rows = append(rows, StalenessRow{RefreshSeconds: refresh, WithBooking: with, NoBooking: without})
	}
	return rows, nil
}
