package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"msweb/internal/trace"
)

func TestOptionsDefaults(t *testing.T) {
	var zero Options
	o := zero.withDefaults()
	if len(o.Seeds) == 0 || o.TargetRho <= 0 || o.Duration <= 0 || len(o.InvRs) == 0 {
		t.Fatalf("withDefaults left gaps: %+v", o)
	}
	q := Quick()
	if q.MinRequests >= Default().MinRequests {
		t.Fatal("Quick is not smaller than Default")
	}
}

func TestLambdaForRho(t *testing.T) {
	// The returned λ must actually produce the requested utilization.
	lambda := LambdaForRho(32, 0.4, 1.0/40, 0.65)
	p := paramsCheck(32, lambda, 0.4, 1.0/40)
	if math.Abs(p-0.65) > 1e-9 {
		t.Fatalf("utilization at λ=%v is %v, want 0.65", lambda, p)
	}
}

func paramsCheck(p int, lambda, a, r float64) float64 {
	lambdaH := lambda / (1 + a)
	lambdaC := lambda - lambdaH
	return lambdaH/(float64(p)*MuH) + lambdaC/(float64(p)*r*MuH)
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Measured.PctCGI-r.PaperPctCGI) > 4 {
			t.Fatalf("%s: measured %%CGI %.1f vs paper %.1f", r.PaperName, r.Measured.PctCGI, r.PaperPctCGI)
		}
	}
	tbl := Table1Table(rows)
	if !strings.Contains(tbl.Title, "Table 1") {
		t.Fatalf("title %q", tbl.Title)
	}
	for i, want := range []string{"DEC", "UCB", "KSU", "ADL"} {
		if got := tbl.Rows[i][column(t, tbl, "trace")]; got != want {
			t.Fatalf("row %d trace %q, want %q", i, got, want)
		}
	}
	if !noteContains(tbl, "24.5M") {
		t.Fatalf("paper request counts missing from notes: %q", tbl.Notes)
	}
}

func TestRunFig3(t *testing.T) {
	curves := RunFig3()
	if len(curves) != 3 {
		t.Fatalf("%d curves", len(curves))
	}
	tbl := Fig3Table(curves)
	if !noteContains(tbl, "Figure 3(a) is over_flat_pct") || !noteContains(tbl, "Figure 3(b) is over_msprime_pct") {
		t.Fatalf("subfigure notes missing: %q", tbl.Notes)
	}
	column(t, tbl, "over_flat_pct")
	column(t, tbl, "over_msprime_pct")
	if tbl.Rows[0][column(t, tbl, "a_label")] != "a=2/8" || tbl.Rows[0][column(t, tbl, "inv_r")] != "10" {
		t.Fatalf("figure 3 first row %q", tbl.Rows[0])
	}
}

func TestRunTable2(t *testing.T) {
	rows := RunTable2(Quick())
	if len(rows) != 6 { // 3 traces × 2 cluster sizes
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if len(r.Lambdas) != len(r.InvRs) {
			t.Fatalf("row %s/%d: %d lambdas for %d r values", r.Trace, r.P, len(r.Lambdas), len(r.InvRs))
		}
		for i := 1; i < len(r.Lambdas); i++ {
			// Higher 1/r (more expensive CGI) must mean lower λ at
			// constant utilization.
			if r.Lambdas[i] >= r.Lambdas[i-1] {
				t.Fatalf("row %s/%d: λ not decreasing in 1/r: %v", r.Trace, r.P, r.Lambdas)
			}
		}
	}
	if tbl := Table2Table(rows); !strings.Contains(tbl.Title, "Table 2") {
		t.Fatalf("title %q", tbl.Title)
	}
}

func TestRunFig4Quick(t *testing.T) {
	rows, err := RunFig4(8, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 traces × 2 quick r values
		t.Fatalf("%d rows, want 6", len(rows))
	}
	// Whether the ablations lose is the scorecard's call
	// (TestScorecardQuick); this checks the rows' shape.
	for _, r := range rows {
		if r.MSStretch < 1 {
			t.Fatalf("impossible stretch %v", r.MSStretch)
		}
		if len(r.SeedOverNR) != len(Quick().Seeds) {
			t.Fatalf("%d per-seed improvements for %d seeds", len(r.SeedOverNR), len(Quick().Seeds))
		}
	}
	tbl := Fig4Table(8, rows)
	if tbl.Title != "Figure 4: scheduling ablations p8" || !noteContains(tbl, "M/S-nr") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
	column(t, tbl, "over_nr_pct")
}

func TestRunFig5Quick(t *testing.T) {
	opts := Quick()
	opts.InvRs = []float64{20, 80}
	res, err := RunFig5(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	if res.NominalM < 1 || res.NominalM >= 8 {
		t.Fatalf("implausible nominal m=%d", res.NominalM)
	}
	for _, r := range res.Rows {
		if r.FixedM != res.NominalM {
			t.Fatalf("row used m=%d, nominal is %d", r.FixedM, res.NominalM)
		}
		if r.FixedSF <= 0 || r.AdaptSF <= 0 {
			t.Fatalf("bad stretch factors: %+v", r)
		}
	}
	tbl := Fig5Table(res)
	if !strings.Contains(tbl.Title, "Figure 5") || !noteContains(tbl, "Mean degradation") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
	column(t, tbl, "degrade_pct")
}

// table3QuickRows runs RunTable3(QuickTable3Options()) once, at
// -parallel 4 so its four live cells replay side by side, and gives the
// same rows to TestRunTable3Quick and TestParallelMatchesSequentialTable3:
// the live replays are the slow part of both.
var table3QuickRows = sync.OnceValues(func() ([]Table3Row, error) {
	defer SetParallelism(0)
	SetParallelism(4)
	return RunTable3(QuickTable3Options())
})

// TestRunTable3Quick checks the shape of the quick validation: three
// rows, no NaN cell, and the title and note. The live column is
// wall-clock noise and must only be a number.
func TestRunTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster validation skipped in -short mode")
	}
	rows, err := table3QuickRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1 trace × 1 λ × 3 comparisons
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.ActualPct) || math.IsNaN(r.SimPct) {
			t.Fatalf("NaN cell: %+v", r)
		}
	}
	tbl := Table3Table(rows)
	if !strings.Contains(tbl.Title, "Table 3") || !noteContains(tbl, "Average |actual − simulated|") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
}

func TestTable3MastersMatchesPaper(t *testing.T) {
	if got := table3Masters("UCB"); got != 3 {
		t.Fatalf("UCB masters = %d, want 3", got)
	}
	if got := table3Masters("KSU"); got != 1 {
		t.Fatalf("KSU masters = %d, want 1", got)
	}
	if got := table3Masters("ADL"); got != 1 {
		t.Fatalf("ADL masters = %d, want 1", got)
	}
}

func TestGenTraceUsesOptions(t *testing.T) {
	tr, err := genTrace(trace.KSU, 100, 1.0/40, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 500 {
		t.Fatalf("%d requests", len(tr.Requests))
	}
}
