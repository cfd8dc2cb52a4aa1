package experiments

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/metrics"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// FlashCrowdRow reports one configuration's behaviour through a bursty
// (MMPP) workload.
type FlashCrowdRow struct {
	Scenario     string
	Stretch      float64
	PeakStretch  float64 // worst 1-second bin
	Recruitments int64
	Releases     int64
}

// RunFlashCrowd evaluates the paper's peak-load recruitment story: a
// flash-crowd (MMPP) workload is replayed against a dedicated-only
// cluster, a statically over-provisioned one, and one that recruits two
// non-dedicated spares reactively when the arrival rate spikes.
func RunFlashCrowd(p int, opts Options) ([]FlashCrowdRow, error) {
	opts = opts.withDefaults()
	prof := trace.KSU
	r := 1.0 / 40
	dedicated := p - 2
	// Base load fills the dedicated nodes to TargetRho; bursts triple it.
	lambda := LambdaForRho(dedicated, prof.ArrivalRatio(), r, opts.TargetRho)
	// Short burst/normal sojourns guarantee several flash-crowd cycles
	// within even the quick-sized replay.
	n := opts.requestCount(lambda) * 3
	tr, wt, err := cachedTrace(trace.GenConfig{
		Profile: prof, Lambda: lambda, Requests: n, MuH: MuH, R: r,
		Arrival: trace.MMPPArrivals, BurstFactor: 3,
		BurstDuration: 2, NormalDuration: 5, Seed: opts.Seeds[0],
	})
	if err != nil {
		return nil, err
	}
	plan, err := queuemodel.NewParams(dedicated, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
	if err != nil {
		return nil, err
	}

	run := func(scenario string, tune func(*cluster.Config)) (FlashCrowdRow, error) {
		ts := metrics.NewTimeSeries(1)
		cfg := cluster.DefaultConfig(p, plan.M)
		cfg.WarmupFraction = opts.Warmup
		cfg.SampleHook = func(arrival float64, s metrics.Sample) { ts.Add(arrival, s) }
		tune(&cfg)
		res, err := cluster.Simulate(cfg, core.NewMS(wt, opts.Seeds[0]), tr)
		if err != nil {
			return FlashCrowdRow{}, err
		}
		return FlashCrowdRow{
			Scenario:     scenario,
			Stretch:      res.StretchFactor,
			PeakStretch:  ts.PeakStretch(),
			Recruitments: res.Recruitments,
			Releases:     res.Releases,
		}, nil
	}

	spares := []int{p - 2, p - 1}
	scenarios := []struct {
		name string
		tune func(*cluster.Config)
	}{
		{"dedicated only", func(cfg *cluster.Config) {
			cfg.InitiallyDown = spares
		}},
		{"always provisioned", func(cfg *cluster.Config) {}},
		{"reactive recruit", func(cfg *cluster.Config) {
			cfg.InitiallyDown = spares
			cfg.AutoRecruit = &cluster.AutoRecruit{
				Spares:   spares,
				Period:   0.5,
				HighRate: 1.35 * lambda,
				LowRate:  1.1 * lambda,
			}
		}},
	}

	// Scenarios share the read-only trace and run as parallel grid cells,
	// each with its own engine and time-series collector.
	rows, err := runGrid(scenarios, func(sc struct {
		name string
		tune func(*cluster.Config)
	}) (FlashCrowdRow, error) {
		row, err := run(sc.name, sc.tune)
		if err != nil {
			return FlashCrowdRow{}, fmt.Errorf("flashcrowd %s: %w", sc.name, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
