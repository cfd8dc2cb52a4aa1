// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a Run function returning typed rows
// and an XTable function rendering them as one report.Table, which is
// both the text msbench prints and the CSV it writes.
//
// Load calibration note. The paper pairs each trace with absolute
// arrival rates (Table 2) tuned to its testbed capacity so that "the
// load would [not] be too light or too heavy". The scanned table is
// partially corrupted and capacities differ across substrates, so this
// reproduction targets the quantity those rates controlled — the offered
// load — directly: for each (trace, r) cell the arrival rate is chosen
// to hit a configured flat-architecture utilization (default 0.65).
// The implied absolute rates are reported next to each row.
package experiments

import (
	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// MuH is the simulated per-node static service rate: each node handles
// 1200 SPECweb96-like requests/second (paper §5.2.1, from SPEC results
// 1996-1998).
const MuH = 1200.0

// Options control experiment fidelity. The zero value is replaced by
// Default(); Quick() is sized for unit tests and smoke runs.
type Options struct {
	// Seeds are averaged over; more seeds, less variance.
	Seeds []int64
	// TargetRho is the flat-architecture utilization the load targets.
	TargetRho float64
	// MinRequests / Duration size each run: a run replays
	// max(MinRequests, λ·Duration) requests.
	MinRequests int
	Duration    float64
	// Warmup is the fraction of each run excluded from statistics.
	Warmup float64
	// InvRs are the 1/r sample points (paper: 20, 40, 80, 160).
	InvRs []float64
	// Trace, when non-nil, captures per-request lifecycle traces for the
	// cells matching its filter (msbench -trace-out/-trace-match).
	Trace *TraceCollector
}

// Default returns full-fidelity options (minutes of runtime).
func Default() Options {
	return Options{
		Seeds:       []int64{1, 2},
		TargetRho:   0.65,
		MinRequests: 8000,
		Duration:    12,
		Warmup:      0.15,
		InvRs:       []float64{20, 40, 80, 160},
	}
}

// Quick returns reduced-fidelity options for tests (seconds of runtime).
func Quick() Options {
	return Options{
		Seeds:       []int64{1},
		TargetRho:   0.65,
		MinRequests: 2500,
		Duration:    4,
		Warmup:      0.15,
		InvRs:       []float64{20, 80},
	}
}

func (o Options) withDefaults() Options {
	d := Default()
	if len(o.Seeds) == 0 {
		o.Seeds = d.Seeds
	}
	if o.TargetRho <= 0 || o.TargetRho >= 1 {
		o.TargetRho = d.TargetRho
	}
	if o.MinRequests <= 0 {
		o.MinRequests = d.MinRequests
	}
	if o.Duration <= 0 {
		o.Duration = d.Duration
	}
	if o.Warmup < 0 || o.Warmup >= 1 {
		o.Warmup = d.Warmup
	}
	if len(o.InvRs) == 0 {
		o.InvRs = d.InvRs
	}
	return o
}

// LambdaForRho returns the arrival rate that drives a p-node cluster to
// flat utilization rho for the given mix and service ratio.
func LambdaForRho(p int, a, r, rho float64) float64 {
	unit := queuemodel.NewParams(p, 1, a, MuH, r)
	return rho / unit.FlatUtilization()
}

// requestCount sizes a run.
func (o Options) requestCount(lambda float64) int {
	n := int(lambda * o.Duration)
	if n < o.MinRequests {
		n = o.MinRequests
	}
	return n
}

// genTrace builds the replay trace for one cell, via the shared cache.
func genTrace(p trace.Profile, lambda, r float64, n int, seed int64) (*trace.Trace, error) {
	tr, _, err := genTraceW(p, lambda, r, n, seed)
	return tr, err
}

// seedMean averages one float per seed, summing in seed order so the
// result is bit-identical however the per-seed cells were scheduled.
func seedMean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// simulateCell builds the cluster for one policy and replays the trace,
// with an optional lifecycle tracer wired into the cluster (nil runs
// untraced).
func simulateCell(p int, masters int, pol core.Policy, tr *trace.Trace, warmup float64, tracer obs.Tracer) (float64, error) {
	cfg := cluster.DefaultConfig(p, masters)
	cfg.WarmupFraction = warmup
	cfg.Tracer = tracer
	res, err := cluster.Simulate(cfg, pol, tr)
	if err != nil {
		return 0, err
	}
	return res.StretchFactor, nil
}
