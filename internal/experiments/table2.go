package experiments

import (
	"msweb/internal/trace"
)

// Table2Row is one (trace, cluster size) row of the workload-parameter
// table: the arrival ratio fixed by the log and the arrival rates the
// reproduction uses for each r (chosen to hit the target utilization,
// see the package comment).
type Table2Row struct {
	Trace     string
	A         float64
	P         int
	TargetRho float64
	InvRs     []float64
	Lambdas   []float64 // one per InvR
}

// RunTable2 derives the examined workload parameters for both cluster
// sizes. The (p, trace) cells are independent closed-form evaluations,
// so they run on the shared grid like every other driver; the merge
// keeps the paper's p-major row order.
func RunTable2(opts Options) []Table2Row {
	opts = opts.withDefaults()
	type cell struct {
		p    int
		prof trace.Profile
	}
	var cells []cell
	for _, p := range []int{32, 128} {
		for _, prof := range trace.Profiles() {
			cells = append(cells, cell{p, prof})
		}
	}
	rows, _ := runGrid(cells, func(c cell) (Table2Row, error) {
		row := Table2Row{
			Trace:     c.prof.Name,
			A:         c.prof.ArrivalRatio(),
			P:         c.p,
			TargetRho: opts.TargetRho,
			InvRs:     opts.InvRs,
		}
		for _, invR := range opts.InvRs {
			row.Lambdas = append(row.Lambdas, LambdaForRho(c.p, row.A, 1/invR, opts.TargetRho))
		}
		return row, nil
	})
	return rows
}
