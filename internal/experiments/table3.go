package experiments

import (
	"context"
	"fmt"
	"time"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/replay"
	"msweb/internal/trace"
)

// Table3Options size the validation runs.
type Table3Options struct {
	// Nodes and per-trace master counts follow the paper: 6 nodes;
	// 3 masters for UCB, 1 for KSU and ADL.
	Nodes int
	// MuHLive is the live node capability: 110 static requests/second
	// (a Sun Ultra 1 under SPECweb96, per the paper).
	MuHLive float64
	// R is the service ratio (paper: 1/40 for all three traces).
	R float64
	// Lambdas are the replay rates (paper: 20 and 40 req/s).
	Lambdas []float64
	// Duration is the live replay length in (unscaled) seconds.
	Duration float64
	// TimeScale compresses the live replay (1 = real time).
	TimeScale float64
	// Seed drives trace generation.
	Seed int64
	// Traces restricts the profiles (default: UCB, KSU, ADL).
	Traces []trace.Profile
}

// DefaultTable3Options reproduces the published setup in real time
// (several minutes of wall clock).
func DefaultTable3Options() Table3Options {
	return Table3Options{
		Nodes:     6,
		MuHLive:   110,
		R:         1.0 / 40,
		Lambdas:   []float64{20, 40},
		Duration:  60,
		TimeScale: 1,
		Seed:      1,
	}
}

// QuickTable3Options is a smoke-test sizing (tens of seconds).
func QuickTable3Options() Table3Options {
	o := DefaultTable3Options()
	o.Lambdas = []float64{20}
	o.Duration = 6
	o.TimeScale = 0.5
	o.Traces = []trace.Profile{trace.KSU}
	return o
}

// table3Masters returns the paper's master count for a trace.
func table3Masters(name string) int {
	if name == "UCB" {
		return 3
	}
	return 1
}

// Table3Row is one row of Table 3: the improvement of M/S over one
// alternative, measured on the live cluster and in simulation.
type Table3Row struct {
	Trace     string
	Lambda    float64
	Versus    string // "M/S-1", "M/S-ns", "M/S-nr"
	ActualPct float64
	SimPct    float64
}

// Diff returns |actual − simulated| in percentage points.
func (r Table3Row) Diff() float64 {
	d := r.ActualPct - r.SimPct
	if d < 0 {
		d = -d
	}
	return d
}

// table3Variants enumerates the compared policies in the paper's order.
var table3Variants = []struct {
	key  string
	mk   func(wt core.WTable, seed int64) core.Policy
	full bool // true → all nodes are masters (M/S-1)
}{
	{"M/S-1", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithName("M/S-1"))
	}, true},
	{"M/S-ns", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithoutSampling(), core.WithName("M/S-ns"))
	}, false},
	{"M/S-nr", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithoutReservation(), core.WithName("M/S-nr"))
	}, false},
}

// table3Cell is one (trace, λ, policy) measurement: a live loopback
// replay plus the matching simulation. variant −1 is the M/S baseline;
// 0..2 index table3Variants. Live replays burn wall-clock time
// (Duration × TimeScale), so running the four policies of one (trace, λ)
// pair concurrently is where the parallel harness saves real minutes —
// each cell starts its own loopback cluster on ephemeral ports.
type table3Cell struct {
	prof    trace.Profile
	lambda  float64
	n       int
	variant int
}

type table3Pair struct{ actual, sim float64 }

// RunTable3 measures the improvement ratios of M/S over the three
// alternatives both on the live loopback cluster and in the simulator,
// reproducing the validation comparison (paper: average difference ≈3%,
// simulation slightly optimistic).
func RunTable3(opts Table3Options) ([]Table3Row, error) {
	if opts.Nodes <= 0 {
		opts = DefaultTable3Options()
	}
	profiles := opts.Traces
	if len(profiles) == 0 {
		profiles = trace.Profiles()
	}

	var cells []table3Cell
	for _, prof := range profiles {
		for _, lambda := range opts.Lambdas {
			n := int(lambda * opts.Duration)
			if n < 50 {
				n = 50
			}
			for variant := -1; variant < len(table3Variants); variant++ {
				cells = append(cells, table3Cell{prof: prof, lambda: lambda, n: n, variant: variant})
			}
		}
	}

	pairs, err := runGrid(cells, func(c table3Cell) (table3Pair, error) {
		tr, wt, err := cachedTrace(trace.GenConfig{
			Profile: c.prof, Lambda: c.lambda, Requests: c.n,
			MuH: opts.MuHLive, R: opts.R, Seed: opts.Seed,
		})
		if err != nil {
			return table3Pair{}, err
		}
		mk := func(wt core.WTable, seed int64) core.Policy { return core.NewMS(wt, seed) }
		key := "M/S"
		m := table3Masters(c.prof.Name)
		if c.variant >= 0 {
			v := table3Variants[c.variant]
			mk, key = v.mk, v.key
			if v.full {
				m = opts.Nodes
			}
		}
		actual, err := runLive(opts, m, mk, wt, tr)
		if err != nil {
			return table3Pair{}, fmt.Errorf("table3 %s λ=%.0f %s: %w", c.prof.Name, c.lambda, key, err)
		}
		sim, err := runSimTable3(opts, m, mk(wt, opts.Seed), tr)
		if err != nil {
			return table3Pair{}, fmt.Errorf("table3 %s λ=%.0f %s: %w", c.prof.Name, c.lambda, key, err)
		}
		return table3Pair{actual, sim}, nil
	})
	if err != nil {
		return nil, err
	}

	// Merge: each group of 1+len(table3Variants) cells yields one row per
	// variant, the ratios taken against the group's M/S baseline.
	var rows []Table3Row
	perGroup := 1 + len(table3Variants)
	for gi := 0; gi < len(cells); gi += perGroup {
		ms := pairs[gi]
		for vi, v := range table3Variants {
			alt := pairs[gi+1+vi]
			rows = append(rows, Table3Row{
				Trace:     cells[gi].prof.Name,
				Lambda:    cells[gi].lambda,
				Versus:    v.key,
				ActualPct: (alt.actual/ms.actual - 1) * 100,
				SimPct:    (alt.sim/ms.sim - 1) * 100,
			})
		}
	}
	return rows, nil
}

// runLive replays the trace against a freshly started loopback cluster.
func runLive(opts Table3Options, masters int, mk func(core.WTable, int64) core.Policy, wt core.WTable, tr *trace.Trace) (float64, error) {
	cfg := httpcluster.DefaultConfig(masters, func(id int) core.Policy {
		return mk(wt, opts.Seed+int64(id))
	})
	cfg.Nodes = opts.Nodes
	cfg.TimeScale = opts.TimeScale
	c, err := httpcluster.Start(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()

	res, err := replay.Run(context.Background(), c.MasterURLs(), tr, replay.Options{
		TimeScale: opts.TimeScale,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		return 0, err
	}
	if err := res.Err(); err != nil {
		return 0, fmt.Errorf("live replay: %w", err)
	}
	return res.StretchFactor(), nil
}

// runSimTable3 replays the identical trace in the simulator with the
// live calibration (μ_h=110 → same demands; the trace already encodes
// them).
func runSimTable3(opts Table3Options, masters int, pol core.Policy, tr *trace.Trace) (float64, error) {
	cfg := cluster.DefaultConfig(opts.Nodes, masters)
	cfg.LoadRefresh = 0.1 // match the live cluster's polling period
	res, err := cluster.Simulate(cfg, pol, tr)
	if err != nil {
		return 0, err
	}
	return res.StretchFactor, nil
}
