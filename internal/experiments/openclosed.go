package experiments

import (
	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
	"msweb/internal/workload"
)

// OpenClosedRow compares replay methodologies at one load multiple.
type OpenClosedRow struct {
	LoadFactor float64 // offered load relative to capacity
	OpenSF     float64
	ClosedSF   float64
}

// RunOpenClosed contrasts the paper's open-loop replay with closed-loop
// session driving on identical hardware and policy. Below saturation the
// two agree; past it the open-loop stretch diverges while closed-loop
// users self-throttle — a methodological caveat for reading the paper's
// heavy-load numbers.
func RunOpenClosed(p int, opts Options) ([]OpenClosedRow, error) {
	opts = opts.withDefaults()
	prof := trace.KSU
	r := 1.0 / 40
	plan, err := queuemodel.NewParams(p, LambdaForRho(p, prof.ArrivalRatio(), r, 0.5), prof.ArrivalRatio(), MuH, r).OptimalPlan()
	if err != nil {
		return nil, err
	}

	// One cell per (load factor, loop mode); the open and closed replays
	// of one load share a cached trace but run on independent engines.
	loads := []float64{0.5, 0.8, 1.1, 1.4}
	type cell struct {
		load   float64
		closed bool
	}
	var cells []cell
	for _, load := range loads {
		cells = append(cells, cell{load, false}, cell{load, true})
	}
	sfs, err := runGrid(cells, func(c cell) (float64, error) {
		lambda := LambdaForRho(p, prof.ArrivalRatio(), r, 1) * c.load
		n := opts.requestCount(lambda)
		if n > 30000 {
			n = 30000 // cap the overloaded open-loop run
		}
		tr, wt, err := genTraceW(prof, lambda, r, n, opts.Seeds[0])
		if err != nil {
			return 0, err
		}
		if !c.closed {
			// Open loop: fixed-schedule trace replay.
			openCfg := cluster.DefaultConfig(p, plan.M)
			openCfg.WarmupFraction = opts.Warmup
			openRes, err := cluster.Simulate(openCfg, core.NewMS(wt, opts.Seeds[0]), tr)
			if err != nil {
				return 0, err
			}
			return openRes.StretchFactor, nil
		}

		// Closed loop: sessions issuing the same per-user rate. Mean
		// session length 8, think time chosen so an unloaded session
		// offers the same request rate; session arrivals supply λ.
		const meanReqs = 8
		think := 0.3
		sessionRate := lambda / meanReqs
		sessions, err := workload.Generate(workload.Config{
			Profile:      prof,
			Sessions:     n / meanReqs,
			SessionRate:  sessionRate,
			MeanRequests: meanReqs,
			MeanThink:    think,
			MuH:          MuH,
			R:            r,
			Seed:         opts.Seeds[0],
		})
		if err != nil {
			return 0, err
		}
		cl, err := newSimCluster(p, plan.M, wt, opts)
		if err != nil {
			return 0, err
		}
		closedRes, err := cl.RunClosedLoop(sessions)
		if err != nil {
			return 0, err
		}
		return closedRes.StretchFactor, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []OpenClosedRow
	for li, load := range loads {
		rows = append(rows, OpenClosedRow{
			LoadFactor: load,
			OpenSF:     sfs[2*li],
			ClosedSF:   sfs[2*li+1],
		})
	}
	return rows, nil
}

// newSimCluster builds an engine+cluster pair for the closed-loop runs.
func newSimCluster(p, masters int, wt core.WTable, opts Options) (*cluster.Cluster, error) {
	cfg := cluster.DefaultConfig(p, masters)
	return cluster.New(newEngine(), cfg, core.NewMS(wt, opts.Seeds[0]))
}
