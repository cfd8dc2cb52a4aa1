package experiments

// Autoscaling study. The paper sizes the master tier once, offline, from
// Theorem 1; the online autoscaler (cluster.Config.Autoscale) re-runs
// that planning continuously against the measured load and additionally
// powers slaves on and off. This study replays two time-varying
// workloads — a diurnal sine and an MMPP flash crowd — against a fixed
// peak-provisioned fleet and an autoscaled one, both under the
// epoch-versioned sharded control plane, and reports the trade the
// controller makes: node-hours spent against SLO attainment and
// stretch. The headline claim is the diurnal row pair: the autoscaler
// should shed a large fraction of the fixed fleet's node-hours through
// the troughs without giving up SLO attainment.

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/report"
	"msweb/internal/trace"
)

// autoscaleSLO is the response-time SLO (virtual seconds) both
// scenarios are scored against.
const autoscaleSLO = 2.0

// AutoscaleRow reports one (workload, scenario) pair, seed-averaged.
type AutoscaleRow struct {
	Workload string
	Scenario string
	Stretch  float64
	// SeedStretch holds each seed's stretch factor, in Options.Seeds
	// order.
	SeedStretch []float64
	// SLO is the fraction of counted requests answered within
	// autoscaleSLO seconds.
	SLO float64
	// NodeHours is powered-fleet time integrated over the run; SavedPct
	// is the reduction against the fixed fleet on the same workload
	// (0 for the fixed rows).
	NodeHours float64
	SavedPct  float64
	// SlaveOffs counts power-down transitions; Epochs is the final shard
	// map version — both 0 for the fixed fleet.
	SlaveOffs int64
	Epochs    int64
}

// RunAutoscale replays the diurnal and flash-crowd workloads against a
// fixed and an autoscaled sharded cluster of p nodes.
func RunAutoscale(p int, opts Options) ([]AutoscaleRow, error) {
	opts = opts.withDefaults()
	prof := trace.KSU
	r := 1.0 / 40
	m := 4
	if p < 2*m {
		return nil, fmt.Errorf("autoscale study needs p ≥ %d, got %d", 2*m, p)
	}
	// The mean rate fills the fleet to TargetRho at the diurnal peak
	// (1.6× mean), so the fixed baseline is exactly peak-provisioned.
	lambda := LambdaForRho(p, prof.ArrivalRatio(), r, opts.TargetRho) / 1.6

	// The controller needs several periods and the trace several
	// troughs, so the replay floor is longer than the generic default.
	duration := opts.Duration
	if duration < 12 {
		duration = 12
	}
	n := int(lambda * duration)
	if n < opts.MinRequests {
		n = opts.MinRequests
	}
	duration = float64(n) / lambda

	workloads := []struct {
		name string
		gen  trace.GenConfig
	}{
		{"diurnal", trace.GenConfig{
			Profile: prof, Lambda: lambda, Requests: n, MuH: MuH, R: r,
			Arrival: trace.DiurnalArrivals, DiurnalPeriod: duration / 3,
		}},
		{"flash crowd", trace.GenConfig{
			Profile: prof, Lambda: lambda, Requests: n, MuH: MuH, R: r,
			Arrival: trace.MMPPArrivals, BurstFactor: 3,
			BurstDuration: 2, NormalDuration: 5,
		}},
	}

	type cell struct {
		wi   int
		auto bool
		seed int64
	}
	type cellRes struct {
		sf, slo, nh float64
		offs, ep    int64
	}
	var cells []cell
	for wi := range workloads {
		for _, auto := range []bool{false, true} {
			for _, seed := range opts.Seeds {
				cells = append(cells, cell{wi, auto, seed})
			}
		}
	}
	results, err := runGrid(cells, func(c cell) (cellRes, error) {
		gen := workloads[c.wi].gen
		gen.Seed = c.seed
		tr, wt, err := cachedTrace(gen)
		if err != nil {
			return cellRes{}, err
		}
		cfg := cluster.DefaultConfig(p, m)
		cfg.WarmupFraction = opts.Warmup
		cfg.Shards = m
		cfg.SLOResponse = autoscaleSLO
		if c.auto {
			cfg.Autoscale = &cluster.Autoscale{Period: 0.5, MinM: 2, MaxM: p / 2}
		}
		res, err := cluster.Simulate(cfg, core.NewMS(wt, c.seed), tr)
		if err != nil {
			return cellRes{}, fmt.Errorf("autoscale %s auto=%v seed=%d: %w",
				workloads[c.wi].name, c.auto, c.seed, err)
		}
		out := cellRes{sf: res.StretchFactor, slo: res.SLOAttainment, nh: res.NodeHours}
		if res.Autoscale != nil {
			out.offs = res.Autoscale.SlaveOffs
		}
		if res.Shards != nil {
			out.ep = int64(res.Shards.Epoch)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Seed-mean each (workload, scenario); rows pair fixed before
	// autoscaled so SavedPct can reference its baseline.
	seeds := float64(len(opts.Seeds))
	var rows []AutoscaleRow
	i := 0
	for wi := range workloads {
		var pair [2]AutoscaleRow
		for a, scenario := range []string{"fixed fleet", "autoscaled"} {
			agg := AutoscaleRow{Workload: workloads[wi].name, Scenario: scenario}
			for s := 0; s < len(opts.Seeds); s++ {
				cr := results[i]
				i++
				agg.Stretch += cr.sf / seeds
				agg.SeedStretch = append(agg.SeedStretch, cr.sf)
				agg.SLO += cr.slo / seeds
				agg.NodeHours += cr.nh / seeds
				agg.SlaveOffs += cr.offs
				if cr.ep > agg.Epochs {
					agg.Epochs = cr.ep
				}
			}
			pair[a] = agg
		}
		if pair[0].NodeHours > 0 {
			pair[1].SavedPct = 100 * (pair[0].NodeHours - pair[1].NodeHours) / pair[0].NodeHours
		}
		rows = append(rows, pair[0], pair[1])
	}
	return rows, nil
}

// AutoscaleTable converts the autoscaling study.
func AutoscaleTable(p int, rows []AutoscaleRow) *report.Table {
	t := &report.Table{
		Title:   "Autoscale vs fixed fleet",
		Columns: []string{"workload", "scenario", "stretch", "slo_attainment", "node_hours", "saved_pct", "slave_offs", "epochs"},
		Notes: []string{fmt.Sprintf("Online Theorem-1 autoscaler vs a fixed peak-provisioned fleet, sharded control plane, KSU workload, p=%d, SLO %.1fs.",
			p, autoscaleSLO)},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Scenario, round4(r.Stretch), round4(r.SLO),
			round4(r.NodeHours), round2(r.SavedPct), r.SlaveOffs, r.Epochs)
	}
	return t
}
