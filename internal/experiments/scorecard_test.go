package experiments

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"msweb/internal/core"
	"msweb/internal/policy"
)

// quickScorecardInputs runs the -quick scorecard's experiments once for
// every test that reads them (TestFig4GoldenRows reads its Figure 4(a)).
var quickScorecardInputs = sync.OnceValues(func() (scorecardInputs, error) {
	return runScorecardInputs(Quick(), true, ScorecardRuns{})
})

// TestScorecardQuick pins every verdict of the -quick scorecard, the one
// msbench prints at -quick: a number that moves a verdict fails here by
// claim. Each row's tolerance is at least its seed spread.
func TestScorecardQuick(t *testing.T) {
	in, err := quickScorecardInputs()
	if err != nil {
		t.Fatal(err)
	}
	rows := scorecard(in)
	want := []struct{ claim, verdict string }{
		{"Table 1 trace statistics", "holds"},
		{"Figure 3(a) M/S over flat", "holds"},
		{"Figure 4 reservation (M/S over M/S-nr)", "holds"},
		{"Figure 4 separation (M/S over M/S-1)", verdictDeviates + causeSeparation},
		{"Figure 4 sampling (M/S over M/S-ns)", "holds (one cell decides: p32 UCB 1/r=80; p32 KSU 1/r=20; p32 KSU 1/r=80; p32 ADL 1/r=20)"},
		{"Figure 5 fixed-m degradation", verdictDeviates + causeFig5},
		{"Table 3 live vs simulated gap", verdictRecorded + ": " + verdictDeviates + causeTable3},
		{"Failover: crashes lose no request", "holds"},
		{"Autoscaling saves node-hours at the fixed fleet's SLO", verdictDeviates + causeFlash},
		{"Placement booking removes the herd", "holds"},
		{"Tournament: M/S lowest stretch", "holds"},
		{"MaxWeight ≈ JSQ(p) as ρ → 1", "holds"},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Claim != want[i].claim || r.Verdict != want[i].verdict {
			t.Errorf("row %d: %q reads %q (ours: %s), want %q reading %q",
				i, r.Claim, r.Verdict, r.Ours, want[i].claim, want[i].verdict)
		}
		if r.Tol < r.Spread {
			t.Errorf("%s: tolerance %g is tighter than the seed spread %g", r.Claim, r.Tol, r.Spread)
		}
	}
	tbl := ScorecardTable(rows)
	if err := tbl.Validate(); err != nil || len(tbl.Rows) != len(want) {
		t.Fatalf("table: %v, %d rows", err, len(tbl.Rows))
	}
}

// TestScorecardToleranceCoversSpread runs every seeded claim on two
// seeds of a small grid: each must report a spread, and no tolerance
// may be tighter than it.
func TestScorecardToleranceCoversSpread(t *testing.T) {
	opts := Quick()
	opts.Seeds = []int64{1, 2}
	opts.InvRs = []float64{40}
	opts.MinRequests, opts.Duration = 300, 0.25
	fig4, err := RunFig4(32, opts)
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := RunFig5(32, opts)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := RunStaleness(16, opts)
	if err != nil {
		t.Fatal(err)
	}
	tourn, err := RunTournament(16, opts, []string{"ms", "ms-nr", "jsq2"})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := runJSQLimit(opts, randomRouting)
	if err != nil {
		t.Fatal(err)
	}
	c := fig4Cells([]fig4Run{{32, fig4}})
	for _, r := range []ScoreRow{reservationClaim(c.nr), separationClaim(c.one), samplingClaim(c.ns),
		fig5Claim(fig5), bookingClaim(stale), tournamentClaim(tourn), maxweightClaim(mw)} {
		if math.IsNaN(r.Spread) || r.Tol < r.Spread {
			t.Errorf("%s: tolerance %g, seed spread %g", r.Claim, r.Tol, r.Spread)
		}
	}
}

// Removing θ₂ from M/S — the M/S entry of fig4Variants built with
// WithoutReservation, so M/S is M/S-nr — must fail the reservation row
// of the -quick scorecard (its Figure 4 grid cut to 1/r=80, where the
// reservation gains most): the scorecard tells a broken claim from a
// moved number.
func TestScorecardFailsWithoutReservation(t *testing.T) {
	in, err := quickScorecardInputs()
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.InvRs = []float64{80}
	reservation := func() ScoreRow {
		t.Helper()
		rows, err := RunFig4(32, opts)
		if err != nil {
			t.Fatal(err)
		}
		in.Fig4a = rows
		r := scorecard(in)[2]
		if !strings.HasPrefix(r.Claim, "Figure 4 reservation") {
			t.Fatalf("row 2 is %q", r.Claim)
		}
		return r
	}
	if r := reservation(); r.Verdict != verdictHolds {
		t.Fatalf("with θ₂ the cut grid's reservation row reads %q (ours: %s)", r.Verdict, r.Ours)
	}
	saved := fig4Variants[0]
	defer func() { fig4Variants[0] = saved }()
	fig4Variants[0].mk = func(wt core.WTable, seed int64) core.Policy {
		return core.NewMS(wt, seed, core.WithoutReservation())
	}
	if r := reservation(); !r.Fails() {
		t.Fatalf("without θ₂ the reservation row reads %q (ours: %s)", r.Verdict, r.Ours)
	}
}

// randomRouting is the uniform random stage.
func randomRouting(seed int64) core.RoutingPolicy { return core.NewRandomRouting(seed) }

// maxweightRow returns the MaxWeight row of the -quick scorecard with
// route's stage in place of MaxWeight's.
func maxweightRow(t *testing.T, route func(seed int64) core.RoutingPolicy) ScoreRow {
	t.Helper()
	in, err := quickScorecardInputs()
	if err != nil {
		t.Fatal(err)
	}
	if route != nil {
		if in.maxweight, err = runJSQLimit(Quick(), route); err != nil {
			t.Fatal(err)
		}
	}
	const i = 11
	r := scorecard(in)[i]
	if r.Claim != "MaxWeight ≈ JSQ(p) as ρ → 1" {
		t.Fatalf("row %d is %q", i, r.Claim)
	}
	return r
}

// The autoscale row fails on either of the two things it demands of the
// -quick study's own rows: an autoscaler that saves nothing (its rows
// replaced by the fixed fleet's) and one that gives up SLO attainment
// (0.02 off each autoscaled row).
func TestScorecardAutoscaleRowCanFail(t *testing.T) {
	in, err := quickScorecardInputs()
	if err != nil {
		t.Fatal(err)
	}
	if r := autoscaleClaim(in.Autoscale); r.Fails() {
		t.Fatalf("the study's own rows read %q (ours: %s)", r.Verdict, r.Ours)
	}
	for _, m := range []struct {
		name   string
		mutate func(fixed AutoscaleRow, auto *AutoscaleRow)
	}{
		{"no node-hours saved", func(fixed AutoscaleRow, auto *AutoscaleRow) { *auto = fixed }},
		{"SLO attainment 0.02 lower", func(_ AutoscaleRow, auto *AutoscaleRow) { auto.SLO -= 0.02 }},
	} {
		rows := slices.Clone(in.Autoscale)
		for i := 0; i+1 < len(rows); i += 2 {
			m.mutate(rows[i], &rows[i+1])
		}
		if r := autoscaleClaim(rows); r.Verdict != verdictFails {
			t.Errorf("%s: the row reads %q (ours: %s)", m.name, r.Verdict, r.Ours)
		}
	}
}

// Random routing in place of the maxweight preset must fail the
// MaxWeight row of the -quick scorecard: the row checks the heavy-traffic
// JSQ limit, which a load-blind router does not reach.
func TestScorecardFailsWithRandomRouting(t *testing.T) {
	if r := maxweightRow(t, nil); r.Verdict != verdictHolds {
		t.Fatalf("MaxWeight row reads %q (ours: %s)", r.Verdict, r.Ours)
	}
	if r := maxweightRow(t, randomRouting); r.Verdict != verdictFails {
		t.Fatalf("with random routing the MaxWeight row reads %q (ours: %s)", r.Verdict, r.Ours)
	}
}

// JSQ(p) in place of the maxweight preset makes the same placements as
// the row's reference stage, so the row must read vacuous: a ratio of 1
// there says nothing about MaxWeight.
func TestScorecardVacuousWithJSQ(t *testing.T) {
	r := maxweightRow(t, func(seed int64) core.RoutingPolicy { return core.NewJSQRouting(16, seed) })
	if r.Verdict != verdictVacuous || !r.Fails() || !strings.Contains(r.Ours, "; 0.0 % of placements differ") {
		t.Fatalf("with JSQ(p) the MaxWeight row reads %q (ours: %s)", r.Verdict, r.Ours)
	}
}

// Every competitor in the default tournament field must be a preset some
// scorecard row judges: a preset no row can fail has no place in the
// field.
func TestEveryCompetitorHasARow(t *testing.T) {
	in, err := quickScorecardInputs()
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, r := range scorecard(in) {
		for _, p := range r.Presets {
			read[p] = true
		}
	}
	for _, name := range policy.TournamentNames() {
		if !read[name] {
			t.Errorf("competitor %q is read by no scorecard row", name)
		}
	}
}

// The recorded Table 3 literal is results/table3.txt's rows, and the
// gap it gives is that file's 12.5 points.
func TestRecordedTable3MatchesResults(t *testing.T) {
	data, err := os.ReadFile("../../results/table3.txt")
	if err != nil {
		t.Fatal(err)
	}
	var rows []Table3Row
	for _, line := range strings.Split(string(data), "\n") {
		var r Table3Row
		if _, err := fmt.Sscanf(line, "%s %g %s %g%% %g%%", &r.Trace, &r.Lambda, &r.Versus, &r.ActualPct, &r.SimPct); err == nil {
			rows = append(rows, r)
		}
	}
	if !reflect.DeepEqual(rows, recordedTable3) {
		t.Fatalf("results/table3.txt rows\n%v\nrecordedTable3\n%v", rows, recordedTable3)
	}
	if !strings.Contains(string(data), "average |actual − simulated| = 12.5 points") {
		t.Fatal("results/table3.txt no longer records a 12.5-point gap")
	}
	if row := table3Claim(recordedTable3); !strings.HasPrefix(row.Ours, "mean 12.5 pts over 18 cells") {
		t.Fatalf("recorded Table 3 row: %s, %s", row.Ours, row.Verdict)
	}
}
