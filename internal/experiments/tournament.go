package experiments

// The policy tournament: every registered competitor policy replays the
// same traces at the same load levels through the deterministic parallel
// grid, so the paper's M/S scheduler is compared head-to-head against
// the classic dispatching disciplines (JSQ(d), MaxWeight, c/μ,
// greedy-RSRC, random) instead of only against its own ablations.

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/policy"
	"msweb/internal/queuemodel"
	"msweb/internal/report"
	"msweb/internal/trace"
)

// TournamentConfig selects the tournament field and grid.
type TournamentConfig struct {
	// Policies are registry preset names; empty means the default
	// competitor field (policy.TournamentNames()).
	Policies []string
	// Profiles are trace profile names; empty means UCB, KSU, ADL.
	Profiles []string
	// Rhos are the target flat-utilization load levels; empty means
	// moderate and heavy load (0.5, 0.8).
	Rhos []float64
	// Extra adds ad-hoc entrants (e.g. a custom pipeline assembled from
	// stage flags) on top of the named presets.
	Extra []policy.Preset
}

func (tc TournamentConfig) withDefaults() TournamentConfig {
	if len(tc.Policies) == 0 {
		tc.Policies = policy.TournamentNames()
	}
	if len(tc.Profiles) == 0 {
		tc.Profiles = []string{"UCB", "KSU", "ADL"}
	}
	if len(tc.Rhos) == 0 {
		tc.Rhos = []float64{0.5, 0.8}
	}
	return tc
}

// TournamentRow is one (profile, load, policy) aggregate over seeds.
type TournamentRow struct {
	Profile string
	Rho     float64
	Policy  string
	// MeanMs and P99Ms are response times in milliseconds.
	MeanMs float64
	P99Ms  float64
	// Stretch is the stretch factor (the paper's headline metric).
	Stretch float64
	// CPUUtil is the mean per-node lifetime CPU busy fraction.
	CPUUtil float64
	// ShedRate is the fraction of requests refused by admission.
	ShedRate float64
}

// tournCell is one seed's worth of measurements.
type tournCell struct {
	mean, p99, stretch, util, shed float64
}

// RunTournament fans (policy × profile × load × seed) through the
// deterministic grid and aggregates per-seed means. Every policy in a
// (profile, rho) block replays byte-identical traces on an identically
// planned cluster, so row differences are pure policy effects.
func RunTournament(p int, opts Options, tc TournamentConfig) ([]TournamentRow, error) {
	opts = opts.withDefaults()
	tc = tc.withDefaults()
	const r = 1.0 / 40

	presets := make([]policy.Preset, 0, len(tc.Policies)+len(tc.Extra))
	for _, name := range tc.Policies {
		pr, err := policy.Lookup(name)
		if err != nil {
			return nil, err
		}
		presets = append(presets, pr)
	}
	presets = append(presets, tc.Extra...)
	profiles := make([]trace.Profile, len(tc.Profiles))
	for i, name := range tc.Profiles {
		prof, ok := trace.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("tournament: unknown profile %q", name)
		}
		profiles[i] = prof
	}

	type cell struct {
		prof    trace.Profile
		rho     float64
		preset  policy.Preset
		seed    int64
		lambda  float64
		masters int
	}
	var cells []cell
	for _, prof := range profiles {
		for _, rho := range tc.Rhos {
			lambda := LambdaForRho(p, prof.ArrivalRatio(), r, rho)
			plan, err := queuemodel.NewParams(p, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
			if err != nil {
				return nil, err
			}
			for _, preset := range presets {
				for _, seed := range opts.Seeds {
					cells = append(cells, cell{prof, rho, preset, seed, lambda, plan.M})
				}
			}
		}
	}

	results, err := runGrid(cells, func(c cell) (tournCell, error) {
		n := opts.requestCount(c.lambda)
		tr, wt, err := genTraceW(c.prof, c.lambda, r, n, c.seed)
		if err != nil {
			return tournCell{}, err
		}
		cfg := cluster.DefaultConfig(p, c.masters)
		cfg.WarmupFraction = opts.Warmup
		cfg.EnableShedding = true
		res, err := cluster.Simulate(cfg, c.preset.Build(wt, c.seed), tr)
		if err != nil {
			return tournCell{}, err
		}
		util := 0.0
		for _, u := range res.NodeUtilization {
			util += u.CPU
		}
		util /= float64(len(res.NodeUtilization))
		total := len(tr.Requests)
		return tournCell{
			mean:    res.Summary.MeanResponse * 1000,
			p99:     res.Summary.P99Response * 1000,
			stretch: res.StretchFactor,
			util:    util,
			shed:    float64(res.Shed) / float64(total),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	nSeeds := len(opts.Seeds)
	var rows []TournamentRow
	i := 0
	for _, prof := range profiles {
		for _, rho := range tc.Rhos {
			for _, preset := range presets {
				var agg tournCell
				for s := 0; s < nSeeds; s++ {
					agg.mean += results[i].mean
					agg.p99 += results[i].p99
					agg.stretch += results[i].stretch
					agg.util += results[i].util
					agg.shed += results[i].shed
					i++
				}
				f := float64(nSeeds)
				rows = append(rows, TournamentRow{
					Profile: prof.Name, Rho: rho, Policy: preset.Name,
					MeanMs: agg.mean / f, P99Ms: agg.p99 / f,
					Stretch: agg.stretch / f, CPUUtil: agg.util / f,
					ShedRate: agg.shed / f,
				})
			}
		}
	}
	return rows, nil
}

// TournamentTable converts tournament rows; one note per (profile, load)
// block names the policy with the best mean response time.
func TournamentTable(p int, rows []TournamentRow) *report.Table {
	t := &report.Table{
		Title:   "Policy tournament",
		Columns: []string{"profile", "rho", "policy", "mean_ms", "p99_ms", "stretch", "cpu_util", "shed_rate"},
		Notes:   []string{fmt.Sprintf("p=%d; every policy in a (profile, rho) block replays identical traces; lower is better.", p)},
	}
	var best *TournamentRow
	for i, r := range rows {
		t.AddRow(r.Profile, r.Rho, r.Policy, round2(r.MeanMs), round2(r.P99Ms),
			round4(r.Stretch), round4(r.CPUUtil), round4(r.ShedRate))
		if best == nil || r.MeanMs < best.MeanMs {
			best = &rows[i]
		}
		if i+1 == len(rows) || rows[i+1].Profile != r.Profile || rows[i+1].Rho != r.Rho {
			t.Notes = append(t.Notes, fmt.Sprintf("Best mean at %s rho=%g: %s (%.1f ms).",
				r.Profile, r.Rho, best.Policy, best.MeanMs))
			best = nil
		}
	}
	return t
}
