package experiments

// Extension studies beyond the paper's published artifacts, covering two
// of the future-work directions its Section 6 sketches: fault tolerance /
// dynamic recruitment, and heterogeneous clusters. msbench exposes them
// as failover and hetero.

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// FailoverRow reports one availability scenario.
type FailoverRow struct {
	Scenario  string
	Stretch   float64
	Failovers int64
	Completed int
}

// RunFailoverStudy replays an ADL-like workload through three
// availability scenarios: a healthy cluster, a mid-run slave crash, and
// the same crash compensated by recruiting two non-dedicated nodes.
func RunFailoverStudy(p int, opts Options) ([]FailoverRow, error) {
	opts = opts.withDefaults()
	prof := trace.ADL
	r := 1.0 / 40
	// Load targeted against the dedicated portion (p−2 nodes): the two
	// recruits are spare capacity.
	lambda := LambdaForRho(p-2, prof.ArrivalRatio(), r, opts.TargetRho)
	n := opts.requestCount(lambda)
	tr, wt, err := genTraceW(prof, lambda, r, n, opts.Seeds[0])
	if err != nil {
		return nil, err
	}
	span := tr.Duration()

	plan, err := queuemodel.NewParams(p-2, lambda, prof.ArrivalRatio(), MuH, r).OptimalPlan()
	if err != nil {
		return nil, err
	}

	run := func(scenario string, events []cluster.AvailabilityEvent) (FailoverRow, error) {
		cfg := cluster.DefaultConfig(p, plan.M)
		cfg.WarmupFraction = opts.Warmup
		cfg.InitiallyDown = []int{p - 2, p - 1}
		cfg.Events = events
		res, err := cluster.Simulate(cfg, core.NewMS(wt, opts.Seeds[0]), tr)
		if err != nil {
			return FailoverRow{}, err
		}
		return FailoverRow{
			Scenario:  scenario,
			Stretch:   res.StretchFactor,
			Failovers: res.Failovers,
			Completed: res.Summary.Count,
		}, nil
	}

	// Two slaves crash at staggered times so the scenario reliably
	// catches in-flight work (a single instant can find a node idle).
	crashAt := 0.3 * span
	crashAt2 := 0.5 * span
	victim, victim2 := plan.M, plan.M+1 // first two slaves
	scenarios := []struct {
		name   string
		events []cluster.AvailabilityEvent
	}{
		{"healthy", nil},
		{"slave crashes", []cluster.AvailabilityEvent{
			{Node: victim, At: crashAt, Available: false},
			{Node: victim2, At: crashAt2, Available: false},
		}},
		{"crashes + recruit 2", []cluster.AvailabilityEvent{
			{Node: victim, At: crashAt, Available: false},
			{Node: victim2, At: crashAt2, Available: false},
			{Node: p - 2, At: crashAt + 1, Available: true},
			{Node: p - 1, At: crashAt + 1, Available: true},
		}},
	}
	// The scenarios replay the same shared (read-only) trace, each on an
	// independent engine, so they run as parallel grid cells.
	rows, err := runGrid(scenarios, func(sc struct {
		name   string
		events []cluster.AvailabilityEvent
	}) (FailoverRow, error) {
		row, err := run(sc.name, sc.events)
		if err != nil {
			return FailoverRow{}, fmt.Errorf("failover %s: %w", sc.name, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// HeteroRow compares flat vs the heterogeneous M/S plan on one speed mix.
type HeteroRow struct {
	Mix           string
	AnalyticFlat  float64
	AnalyticMS    float64
	Masters       []int
	SimFlat       float64
	SimMS         float64
	SimImprovePct float64
}

// RunHeteroStudy evaluates the heterogeneous extension: for several
// speed mixes, the analytic hetero plan (master set + θ) is computed and
// then validated in the simulator against a flat configuration on the
// same hardware.
func RunHeteroStudy(p int, opts Options) ([]HeteroRow, error) {
	opts = opts.withDefaults()
	prof := trace.KSU
	r := 1.0 / 40

	mixes := []struct {
		name  string
		speed func(i int) float64
	}{
		{"uniform 1x", func(int) float64 { return 1 }},
		{"half 1x / half 2x", func(i int) float64 {
			if i >= p/2 {
				return 2
			}
			return 1
		}},
		{"one 4x front", func(i int) float64 {
			if i == 0 {
				return 4
			}
			return 1
		}},
	}

	// Plan each mix analytically up front, then fan the simulations out:
	// one cell per (mix, seed, M/S-or-flat).
	type mixPlan struct {
		name    string
		lambda  float64
		n       int
		ordered []float64
		plan    queuemodel.HeteroPlan
	}
	plans := make([]mixPlan, 0, len(mixes))
	for _, mix := range mixes {
		speeds := make([]float64, p)
		total := 0.0
		for i := range speeds {
			speeds[i] = mix.speed(i)
			total += speeds[i]
		}
		// Load the mixed cluster to TargetRho of its actual capacity.
		lambda := LambdaForRho(p, prof.ArrivalRatio(), r, opts.TargetRho) * total / float64(p)

		hp := queuemodel.HeteroParams{Speeds: speeds, MuH: MuH, MuC: r * MuH}
		hp.LambdaH = lambda / (1 + prof.ArrivalRatio())
		hp.LambdaC = lambda - hp.LambdaH
		plan, err := hp.OptimalHeteroPlan()
		if err != nil {
			return nil, fmt.Errorf("hetero %s: %w", mix.name, err)
		}

		// The simulated cluster assigns master roles to node ids 0..m−1,
		// so reorder speeds to put the planned masters first.
		ordered := make([]float64, 0, p)
		inMaster := map[int]bool{}
		for _, m := range plan.Masters {
			inMaster[m] = true
			ordered = append(ordered, speeds[m])
		}
		for i, s := range speeds {
			if !inMaster[i] {
				ordered = append(ordered, s)
			}
		}
		plans = append(plans, mixPlan{
			name: mix.name, lambda: lambda, n: opts.requestCount(lambda),
			ordered: ordered, plan: plan,
		})
	}

	type cell struct {
		mi   int
		seed int64
		flat bool
	}
	var cells []cell
	for mi := range plans {
		for _, seed := range opts.Seeds {
			cells = append(cells, cell{mi, seed, false}, cell{mi, seed, true})
		}
	}
	stretches, err := runGrid(cells, func(c cell) (float64, error) {
		mp := plans[c.mi]
		tr, wt, err := genTraceW(prof, mp.lambda, r, mp.n, c.seed)
		if err != nil {
			return 0, err
		}
		var cfg cluster.Config
		var pol core.Policy
		if c.flat {
			cfg = cluster.DefaultConfig(p, p)
			pol = core.NewFlat()
		} else {
			cfg = cluster.DefaultConfig(p, len(mp.plan.Masters))
			pol = core.NewMS(wt, c.seed)
		}
		cfg.WarmupFraction = opts.Warmup
		cfg.Speeds = mp.ordered
		res, err := cluster.Simulate(cfg, pol, tr)
		if err != nil {
			return 0, fmt.Errorf("hetero %s: %w", mp.name, err)
		}
		return res.StretchFactor, nil
	})
	if err != nil {
		return nil, err
	}

	k := float64(len(opts.Seeds))
	var rows []HeteroRow
	i := 0
	for _, mp := range plans {
		var simMS, simFlat float64
		for s := 0; s < len(opts.Seeds); s++ {
			simMS += stretches[i]
			simFlat += stretches[i+1]
			i += 2
		}
		simMS /= k
		simFlat /= k
		rows = append(rows, HeteroRow{
			Mix:           mp.name,
			AnalyticFlat:  mp.plan.Flat,
			AnalyticMS:    mp.plan.Stretch,
			Masters:       mp.plan.Masters,
			SimFlat:       simFlat,
			SimMS:         simMS,
			SimImprovePct: (simFlat/simMS - 1) * 100,
		})
	}
	return rows, nil
}
