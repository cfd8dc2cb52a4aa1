package experiments

import (
	"fmt"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

// Fig4Row is one bar group of Figure 4: for a (trace, 1/r) cell, the
// percentage improvement of M/S over each ablated variant,
// (SF_variant / SF_MS − 1) × 100.
type Fig4Row struct {
	Trace     string
	InvR      float64
	Lambda    float64
	Masters   int // Theorem 1 master count used for the M/S variants
	MSStretch float64
	OverNS    float64 // benefit of demand sampling
	OverNR    float64 // benefit of master reservation
	Over1     float64 // benefit of separating static and CGI processing
}

// fig4Variants enumerates the compared policies; allMasters marks the
// M/S-1 configuration where every node is a master. slug is the
// variant's segment in trace-capture cell labels.
var fig4Variants = []struct {
	key        string
	slug       string
	mk         func(wt core.WTable, seed int64) core.Policy
	allMasters bool
}{
	{"M/S", "ms", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed)
	}, false},
	{"M/S-ns", "ms-ns", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithoutSampling(), core.WithName("M/S-ns"))
	}, false},
	{"M/S-nr", "ms-nr", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithoutReservation(), core.WithName("M/S-nr"))
	}, false},
	{"M/S-1", "ms-1", func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithName("M/S-1"))
	}, true},
}

// fig4Cell is one independent simulation: a (trace, 1/r, variant, seed)
// tuple replayed on its own engine.
type fig4Cell struct {
	prof    trace.Profile
	invR    float64
	lambda  float64
	n       int
	masters int
	variant int
	seed    int64
}

// RunFig4 reproduces Figure 4 for cluster size p (32 for subfigure (a),
// 128 for (b)). For each trace and each 1/r it replays the same trace
// under M/S, M/S-ns, M/S-nr and M/S-1 and reports the improvements. The
// grid of (trace, 1/r, variant, seed) cells runs on the shared worker
// pool; rows merge in trace-major order, matching the sequential output.
func RunFig4(p int, opts Options) ([]Fig4Row, error) {
	opts = opts.withDefaults()

	// Plan each (trace, 1/r) group analytically, then flatten the grid.
	type group struct {
		prof    trace.Profile
		invR    float64
		lambda  float64
		masters int
	}
	var groups []group
	var cells []fig4Cell
	for _, prof := range trace.Profiles() {
		a := prof.ArrivalRatio()
		for _, invR := range opts.InvRs {
			r := 1 / invR
			lambda := LambdaForRho(p, a, r, opts.TargetRho)
			plan, err := queuemodel.NewParams(p, lambda, a, MuH, r).OptimalPlan()
			if err != nil {
				return nil, fmt.Errorf("fig4 %s 1/r=%.0f: %w", prof.Name, invR, err)
			}
			groups = append(groups, group{prof, invR, lambda, plan.M})
			n := opts.requestCount(lambda)
			for vi, v := range fig4Variants {
				masters := plan.M
				if v.allMasters {
					masters = p
				}
				for _, seed := range opts.Seeds {
					cells = append(cells, fig4Cell{
						prof: prof, invR: invR, lambda: lambda, n: n,
						masters: masters, variant: vi, seed: seed,
					})
				}
			}
		}
	}

	stretches, err := runGrid(cells, func(c fig4Cell) (float64, error) {
		tr, wt, err := genTraceW(c.prof, c.lambda, 1/c.invR, c.n, c.seed)
		if err != nil {
			return 0, fmt.Errorf("fig4 %s 1/r=%.0f seed %d: %w", c.prof.Name, c.invR, c.seed, err)
		}
		pol := fig4Variants[c.variant].mk(wt, c.seed)
		var tracer obs.Tracer
		if opts.Trace != nil {
			tracer = opts.Trace.Tracer(fmt.Sprintf("fig4/p%d/%s/invr%g/%s/seed%d",
				p, c.prof.Name, c.invR, fig4Variants[c.variant].slug, c.seed))
		}
		return simulateCell(p, c.masters, pol, tr, opts.Warmup, tracer)
	})
	if err != nil {
		return nil, err
	}

	// Merge: mean over seeds per variant, in cell order.
	nSeeds := len(opts.Seeds)
	rows := make([]Fig4Row, 0, len(groups))
	i := 0
	for _, g := range groups {
		means := make([]float64, len(fig4Variants))
		for vi := range fig4Variants {
			means[vi] = seedMean(stretches[i : i+nSeeds])
			i += nSeeds
		}
		ms, ns, nr, one := means[0], means[1], means[2], means[3]
		rows = append(rows, Fig4Row{
			Trace:     g.prof.Name,
			InvR:      g.invR,
			Lambda:    g.lambda,
			Masters:   g.masters,
			MSStretch: ms,
			OverNS:    (ns/ms - 1) * 100,
			OverNR:    (nr/ms - 1) * 100,
			Over1:     (one/ms - 1) * 100,
		})
	}
	return rows, nil
}
