package experiments

// The failover study, beyond the paper's published artifacts: fault
// tolerance and dynamic recruitment, one of the future-work directions
// its Section 6 sketches. msbench exposes it as failover.

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
	// Exhausted counts requests the failover rule gave up on.
	Exhausted int64
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
			Exhausted: res.Exhausted,
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
