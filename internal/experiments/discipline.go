package experiments

import (
	"fmt"

	"msweb/internal/queuemodel"
	"msweb/internal/report"
)

// DisciplineRow compares service disciplines at one CGI intensity.
type DisciplineRow struct {
	InvR        float64
	PSFlat      float64
	PSMS        float64
	PSGainPct   float64
	FCFSFlat    float64
	FCFSMS      float64
	FCFSGainPct float64
	FCFSSplitM  int
}

// RunDiscipline contrasts the processor-sharing analysis the paper uses
// with the FCFS alternative it mentions: the same cluster and mix, both
// disciplines, across the CGI-intensity sweep. Under FCFS every static
// request in a mixed queue pays the residual of in-progress CGI work,
// so the separation gain dwarfs the PS one — analytical support for the
// paper's motivation that "mixing static and dynamic content processing
// can slow down simple static request processing".
func RunDiscipline(p int, opts Options) ([]DisciplineRow, error) {
	opts = opts.withDefaults()
	a := 3.0 / 7.0
	var rows []DisciplineRow
	for _, invR := range opts.InvRs {
		r := 1 / invR
		lambda := LambdaForRho(p, a, r, opts.TargetRho)
		params := queuemodel.NewParams(p, lambda, a, MuH, r)
		plan, err := params.OptimalPlan()
		if err != nil {
			return nil, fmt.Errorf("discipline 1/r=%.0f: %w", invR, err)
		}
		fcfsGain, fcfsM := params.FCFSSeparationGain()
		row := DisciplineRow{
			InvR:        invR,
			PSFlat:      plan.Flat,
			PSMS:        plan.Stretch,
			PSGainPct:   (plan.Flat/plan.Stretch - 1) * 100,
			FCFSFlat:    params.FCFSFlatStretch(),
			FCFSMS:      params.FCFSMSStretch(fcfsM, 0),
			FCFSGainPct: (fcfsGain - 1) * 100,
			FCFSSplitM:  fcfsM,
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DisciplineTable converts the comparison.
func DisciplineTable(p int, rows []DisciplineRow) *report.Table {
	t := &report.Table{
		Title:   "Analysis: PS vs FCFS separation gain",
		Columns: []string{"inv_r", "ps_flat", "ps_ms", "ps_gain_pct", "fcfs_flat", "fcfs_ms", "fcfs_gain_pct", "fcfs_split_m"},
		Notes: []string{
			fmt.Sprintf("Separation gain under processor sharing vs FCFS, a=3/7, p=%d.", p),
			"FCFS charges statics the residual of in-progress CGI bursts, so the",
			"value of separating tiers is an order of magnitude larger than under PS.",
		},
	}
	for _, r := range rows {
		t.AddRow(r.InvR, round4(r.PSFlat), round4(r.PSMS), round2(r.PSGainPct),
			round4(r.FCFSFlat), round4(r.FCFSMS), round2(r.FCFSGainPct), r.FCFSSplitM)
	}
	return t
}
