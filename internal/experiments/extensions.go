package experiments

// The failover study, beyond the paper's published artifacts: fault
// tolerance and dynamic recruitment, one of the future-work directions
// its Section 6 sketches. msbench exposes it as failover.

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/obs"
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

	run := func(scenario string, events []cluster.AvailabilityEvent, tracer obs.Tracer) (FailoverRow, error) {
		cfg := cluster.DefaultConfig(p, plan.M)
		cfg.WarmupFraction = opts.Warmup
		cfg.InitiallyDown = []int{p - 2, p - 1}
		cfg.Events = events
		cfg.Tracer = tracer
		res, err := cluster.Simulate(cfg, core.NewMS(wt, opts.Seeds[0]), tr)
		if err != nil {
			return FailoverRow{}, fmt.Errorf("failover %s: %w", scenario, err)
		}
		return FailoverRow{
			Scenario:  scenario,
			Stretch:   res.StretchFactor,
			Failovers: res.Failovers,
			Exhausted: res.Exhausted,
			Completed: res.Summary.Count,
		}, nil
	}

	// Two slaves crash at staggered times. A fixed instant can find its
	// victim idle, so each crash is aimed by a probe run: it lands midway
	// through the stay of the first dynamic request the probe dispatched
	// to its victim from 0.3 (0.5) of the span on. The healthy run probes
	// the first crash, and a run with the first crash alone probes the
	// second. A run replays its probe up to the instant aimed, so the
	// slave-crash scenario catches work at both crashes, and the recruit
	// scenario at the first and at the second when it comes before the
	// recruits.
	victim, victim2 := plan.M, plan.M+1 // first two slaves
	probe := newCrashProbe(victim, 0.3*span)
	healthy, err := run("healthy", nil, probe)
	if err != nil {
		return nil, err
	}
	crashAt, err := probe.aim()
	if err != nil {
		return nil, err
	}
	crash := cluster.AvailabilityEvent{Node: victim, At: crashAt, Available: false}
	probe = newCrashProbe(victim2, 0.5*span)
	if _, err := run("first crash", []cluster.AvailabilityEvent{crash}, probe); err != nil {
		return nil, err
	}
	crashAt2, err := probe.aim()
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		name   string
		events []cluster.AvailabilityEvent
	}{
		{"slave crashes", []cluster.AvailabilityEvent{
			crash,
			{Node: victim2, At: crashAt2, Available: false},
		}},
		{"crashes + recruit 2", []cluster.AvailabilityEvent{
			crash,
			{Node: victim2, At: crashAt2, Available: false},
			{Node: p - 2, At: crashAt + 1, Available: true},
			{Node: p - 1, At: crashAt + 1, Available: true},
		}},
	}
	// The crash scenarios replay the same shared (read-only) trace, each
	// on an independent engine, so they run as parallel grid cells.
	rows, err := runGrid(scenarios, func(sc struct {
		name   string
		events []cluster.AvailabilityEvent
	}) (FailoverRow, error) {
		return run(sc.name, sc.events, nil)
	})
	if err != nil {
		return nil, err
	}
	return append([]FailoverRow{healthy}, rows...), nil
}

// crashProbe is a tracer that aims a crash of node: it finds the first
// dynamic request dispatched to node at or after from.
type crashProbe struct {
	node     int
	from     float64
	dynamic  map[int64]bool
	req      int64   // the request found; 0 until then (ids are positive)
	sent, at float64 // its dispatch, and the crash instant
}

func newCrashProbe(node int, from float64) *crashProbe {
	return &crashProbe{node: node, from: from, dynamic: map[int64]bool{}}
}

// Emit implements obs.Tracer.
func (h *crashProbe) Emit(ev obs.Event) {
	switch {
	case ev.Kind == obs.KindArrival && ev.Class == trace.Dynamic.String():
		h.dynamic[ev.Req] = true
	case ev.Kind == obs.KindDispatch && h.req == 0 && ev.Node == h.node && ev.Time >= h.from && h.dynamic[ev.Req]:
		h.req, h.sent = ev.Req, ev.Time
	case ev.Kind == obs.KindComplete && ev.Req == h.req:
		h.at = (h.sent + ev.Time) / 2
	}
}

// aim returns the crash instant: midway through the found request's
// stay on the node.
func (h *crashProbe) aim() (float64, error) {
	if h.at == 0 {
		return 0, fmt.Errorf("failover: node %d holds no dynamic work after %g s", h.node, h.from)
	}
	return h.at, nil
}
