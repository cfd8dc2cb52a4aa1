package experiments

// The paper scorecard: each claim of the paper's evaluation the
// reproduction checks is one row holding the paper's value, ours, a
// tolerance and a verdict. Every verdict is a function of the typed rows
// the experiments return; nothing is read back from rendered text.
//
// A tolerance is never tighter than the row's seed spread: the spread
// (max − min) across seeds of the row's statistic, each seed's value
// computed from that seed's stretch factors before the grid averages
// them. A row that holds only because of one cell names that cell.

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/report"
)

// Verdicts. A deviating row's verdict is "deviates: <cause>", the cause
// being the documented mechanism that moves the number.
const (
	verdictHolds    = "holds"
	verdictFails    = "fails"
	verdictDeviates = "deviates: "
	// verdictVacuous: the row's preset and its reference stage picked
	// different nodes on under minShare of the placements, so the row
	// cannot tell them apart. It counts as a failure.
	verdictVacuous = "vacuous"
	// verdictRecorded prefixes the live Table 3 row's verdict: its cells
	// come from the recorded replay (recordedTable3), not this run.
	verdictRecorded = "recorded (HTTP /exec dispatch, before frame-only dispatch)"
)

// The documented causes of the rows that deviate.
const (
	causeSeparation = "our MLFQ lets CGI hogs delay co-located statics more than Solaris did"
	causeFig5       = "the model sees one resource per node, the simulator overlaps CPU and disk"
	causeTable3     = "virtual resources on loopback, replays far shorter than the logs"
	causeFlash      = "the slave promoted into the burst serves statics behind the CGI queue it still holds"
)

// ScoreRow is one checked claim.
type ScoreRow struct {
	Claim string
	Paper string
	Ours  string
	// Tol is the tolerance in the row's unit and TolText how it applies;
	// Tol is never below Spread.
	Tol     float64
	TolText string
	// Spread is the seed spread of the row's statistic; NaN when the
	// input has fewer than two seeds (or none: analytic and recorded
	// rows).
	Spread  float64
	Verdict string
	// Presets names the registry presets whose placements the row
	// judges. Every tournament competitor needs a row.
	Presets []string
}

// Fails reports whether the row's claim failed or cannot fail.
func (r ScoreRow) Fails() bool { return r.Verdict == verdictFails || r.Verdict == verdictVacuous }

// scorecardInputs holds the typed rows the claims read.
type scorecardInputs struct {
	ScorecardRuns
	table1    [][]Table1Row // one set per seed
	fig3      []queuemodel.Fig3Curve
	maxweight jsqLimit
}

// ScorecardRuns holds the rows of scorecard inputs a caller has already
// run with the scorecard's options, at the cluster sizes msbench runs
// them alone: Figure 4 at p=32 and p=128, Figure 5 at p=32, failover,
// autoscale, staleness and the default tournament field at p=16.
// RunScorecard runs each one left nil.
type ScorecardRuns struct {
	Fig4a, Fig4b []Fig4Row
	Fig5         *Fig5Result
	Failover     []FailoverRow
	Autoscale    []AutoscaleRow
	Staleness    []StalenessRow
	Tournament   []TournamentRow
}

// scorecardTable1Requests sizes the scorecard's Table 1 traces at both
// fidelities: msbench's full Table 1 size, which costs milliseconds.
const scorecardTable1Requests = 20000

// RunScorecard runs every experiment a claim reads that done does not
// hold, and returns the rows in claim order. quick leaves Figure 4(b)
// (p=128) out: its rows then read Figure 4(a). Table 1 always runs two
// seeds of scorecardTable1Requests requests. Lifecycle tracing stays
// with fig4a and fig4b: opts.Trace is ignored.
func RunScorecard(opts Options, quick bool, done ScorecardRuns) ([]ScoreRow, error) {
	in, err := runScorecardInputs(opts, quick, done)
	if err != nil {
		return nil, err
	}
	return scorecard(in), nil
}

// runScorecardInputs runs the experiments RunScorecard reads.
func runScorecardInputs(opts Options, quick bool, done ScorecardRuns) (scorecardInputs, error) {
	opts.Trace = nil
	in := scorecardInputs{ScorecardRuns: done, fig3: RunFig3()}
	for _, seed := range []int64{1, 2} {
		rows, err := RunTable1(scorecardTable1Requests, seed)
		if err != nil {
			return in, err
		}
		in.table1 = append(in.table1, rows)
	}
	var err error
	if in.Fig4a == nil {
		in.Fig4a, err = RunFig4(32, opts)
	}
	if quick {
		in.Fig4b = nil
	} else if err == nil && in.Fig4b == nil {
		in.Fig4b, err = RunFig4(128, opts)
	}
	if err == nil && in.Fig5 == nil {
		in.Fig5, err = RunFig5(32, opts)
	}
	if err == nil && in.Failover == nil {
		in.Failover, err = RunFailoverStudy(16, opts)
	}
	if err == nil && in.Autoscale == nil {
		in.Autoscale, err = RunAutoscale(16, opts)
	}
	if err == nil && in.Staleness == nil {
		in.Staleness, err = RunStaleness(16, opts)
	}
	if err == nil && in.Tournament == nil {
		in.Tournament, err = RunTournament(16, opts, nil)
	}
	if err != nil {
		return in, err
	}
	in.maxweight, err = runJSQLimit(opts, func(seed int64) core.RoutingPolicy { return core.NewMaxWeightRouting(seed) })
	return in, err
}

// scorecard checks every claim, in the order of the paper's evaluation
// and then the extensions.
func scorecard(in scorecardInputs) []ScoreRow {
	runs := []fig4Run{{32, in.Fig4a}}
	if in.Fig4b != nil {
		runs = append(runs, fig4Run{128, in.Fig4b})
	}
	fig4 := fig4Cells(runs)
	return []ScoreRow{
		table1Claim(in.table1),
		fig3Claim(in.fig3),
		reservationClaim(fig4.nr),
		separationClaim(fig4.one),
		samplingClaim(fig4.ns),
		fig5Claim(in.Fig5),
		table3Claim(recordedTable3),
		failoverClaim(in.Failover),
		autoscaleClaim(in.Autoscale),
		bookingClaim(in.Staleness),
		tournamentClaim(in.Tournament),
		maxweightClaim(in.maxweight),
	}
}

// ScorecardTable renders the scorecard.
func ScorecardTable(rows []ScoreRow) *report.Table {
	t := &report.Table{
		Title:   "Scorecard: paper claims",
		Columns: []string{"claim", "paper", "ours", "tolerance", "seed_spread", "verdict"},
		Notes: []string{
			"tolerance: the row's base tolerance, widened to seed_spread when that is larger;",
			"seed_spread: max − min across seeds of the row's statistic (- when there are fewer than two seeds).",
			"A row that holds only because of one cell names it.",
			"vacuous: the row's preset and its reference stage pick different nodes in under 5 % of placements; it fails the scorecard.",
			"-quick runs the grids at 1 seed and Figure 4 at p=32 alone; Table 1 always runs 2 seeds.",
		},
	}
	for _, r := range rows {
		spread := "-"
		if !math.IsNaN(r.Spread) {
			spread = fmt.Sprintf("%.1f", r.Spread)
		}
		t.AddRow(r.Claim, r.Paper, r.Ours, r.TolText, spread, r.Verdict)
	}
	return t
}

// scoreCell is one value a claim reads: its label, its seed mean and
// its per-seed values (nil when the input has no seed grid).
type scoreCell struct {
	label string
	v     float64
	seeds []float64
}

// cellValues returns the cells' seed means, leaving out index skip (−1
// keeps every cell).
func cellValues(cells []scoreCell, skip int) []float64 {
	vals := make([]float64, 0, len(cells))
	for i, c := range cells {
		if i != skip {
			vals = append(vals, c.v)
		}
	}
	return vals
}

// seedSpread applies stat to each seed's values of the cells and
// returns max − min of the results; NaN with fewer than two seeds.
func seedSpread(cells []scoreCell, stat func([]float64) float64) float64 {
	if len(cells) == 0 || len(cells[0].seeds) < 2 {
		return math.NaN()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, len(cells))
	for s := range cells[0].seeds {
		for i, c := range cells {
			vals[i] = c.seeds[s]
		}
		x := stat(vals)
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi - lo
}

// widen is the tolerance a row applies: base, or the seed spread when
// that is larger.
func widen(base, spread float64) float64 {
	if spread > base {
		return spread
	}
	return base
}

// judgeCells sets r.Verdict to judge over every cell. A row that holds
// is judged again without each cell in turn; when removing a single
// cell turns it, the verdict names every such cell.
func (r *ScoreRow) judgeCells(cells []scoreCell, judge func(skip int) string) {
	r.Verdict = judge(-1)
	if r.Verdict != verdictHolds {
		return
	}
	var decisive []string
	for i, c := range cells {
		if judge(i) != verdictHolds {
			decisive = append(decisive, c.label)
		}
	}
	if len(decisive) > 0 {
		r.Verdict = "holds (one cell decides: " + strings.Join(decisive, "; ") + ")"
	}
}

// medianOf returns the median of v (v is not modified).
func medianOf(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// posMeanOf is Fig5Result.MeanDegradation's statistic: the mean with
// negative values counted as zero.
func posMeanOf(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += max(x, 0)
	}
	return sum / float64(len(v))
}

// argmax returns the label of the cell with the largest seed mean.
func argmax(cells []scoreCell) string {
	best := 0
	for i, c := range cells {
		if c.v > cells[best].v {
			best = i
		}
	}
	return cells[best].label
}

// table1Claim: the regenerated traces reproduce the 16 published
// statistics (%CGI, mean interval, HTML and CGI sizes of four traces).
// Statistic: the largest relative deviation, in percent; base
// tolerance 5 %, twice the largest single-seed deviation at 20 000
// requests.
func table1Claim(seeds [][]Table1Row) ScoreRow {
	var cells []scoreCell
	for i, r := range seeds[0] {
		for _, st := range []struct {
			name  string
			paper float64
			ours  func(Table1Row) float64
		}{
			{"%CGI", r.PaperPctCGI, func(r Table1Row) float64 { return r.Measured.PctCGI }},
			{"interval", r.PaperInterval, func(r Table1Row) float64 { return r.Measured.MeanInterval }},
			{"HTML size", r.PaperHTML, func(r Table1Row) float64 { return r.Measured.MeanHTMLSize }},
			{"CGI size", r.PaperCGI, func(r Table1Row) float64 { return r.Measured.MeanCGISize }},
		} {
			c := scoreCell{label: r.PaperName + " " + st.name}
			for _, rows := range seeds {
				c.seeds = append(c.seeds, math.Abs(st.ours(rows[i])/st.paper-1)*100)
			}
			c.v = seedMean(c.seeds)
			cells = append(cells, c)
		}
	}
	row := ScoreRow{Claim: "Table 1 trace statistics", Paper: "16 published values",
		Spread: seedSpread(cells, slices.Max[[]float64])}
	row.Tol = widen(5, row.Spread)
	row.TolText = fmt.Sprintf("≤ %.1f %% off each", row.Tol)
	row.Ours = fmt.Sprintf("max %.1f %% off (%s)", slices.Max(cellValues(cells, -1)), argmax(cells))
	row.judgeCells(cells, func(skip int) string {
		if slices.Max(cellValues(cells, skip)) <= row.Tol {
			return verdictHolds
		}
		return verdictFails
	})
	return row
}

// fig3Claim: analytic M/S over flat grows with 1/r and with the CGI
// share, up to ≈ 60 %. The model is closed-form (no seeds); the 10-point
// tolerance is the precision of reading "≈ 60 %" off the paper's plot.
func fig3Claim(curves []queuemodel.Fig3Curve) ScoreRow {
	var cells []scoreCell
	shaped := true
	for ci, c := range curves {
		for pi, p := range c.Points {
			cells = append(cells, scoreCell{label: fmt.Sprintf("%s 1/r=%g", c.Label, p.InvR), v: p.OverFlatPct})
			if pi > 0 && p.OverFlatPct < c.Points[pi-1].OverFlatPct {
				shaped = false // falls as 1/r grows
			}
			if ci > 0 && p.OverFlatPct < curves[ci-1].Points[pi].OverFlatPct {
				shaped = false // falls as the CGI share grows
			}
		}
	}
	row := ScoreRow{Claim: "Figure 3(a) M/S over flat", Paper: "up to ≈ 60 %",
		Tol: 10, TolText: "±10 pts on the max", Spread: math.NaN()}
	vals := cellValues(cells, -1)
	row.Ours = fmt.Sprintf("%.1f → %.1f %% (max %s)", slices.Min(vals), slices.Max(vals), argmax(cells))
	row.judgeCells(cells, func(skip int) string {
		if shaped && math.Abs(slices.Max(cellValues(cells, skip))-60) <= row.Tol {
			return verdictHolds
		}
		return verdictFails
	})
	return row
}

// fig4Run is one Figure 4 subfigure: its cluster size and rows.
type fig4Run struct {
	p    int
	rows []Fig4Row
}

// fig4Claims holds one cell per Figure 4 bar for each ablation.
type fig4Claims struct{ ns, nr, one []scoreCell }

func fig4Cells(runs []fig4Run) fig4Claims {
	var c fig4Claims
	for _, run := range runs {
		for _, r := range run.rows {
			label := fmt.Sprintf("p%d %s 1/r=%g", run.p, r.Trace, r.InvR)
			c.ns = append(c.ns, scoreCell{label, r.OverNS, r.SeedOverNS})
			c.nr = append(c.nr, scoreCell{label, r.OverNR, r.SeedOverNR})
			c.one = append(c.one, scoreCell{label, r.Over1, r.SeedOver1})
		}
	}
	return c
}

// reservationClaim: the θ₂ reservation improves M/S over M/S-nr by up to
// 68 %. Statistic: the largest improvement; it must also help in most
// cells (positive median). Base tolerance 15 points, above the 2-seed
// spread of the maximum at -quick sizing (9.5) and at full size (1.4).
func reservationClaim(cells []scoreCell) ScoreRow {
	row := ScoreRow{Claim: "Figure 4 reservation (M/S over M/S-nr)", Paper: "up to 68 %",
		Spread: seedSpread(cells, slices.Max[[]float64]), Presets: []string{"ms", "ms-nr"}}
	row.Tol = widen(15, row.Spread)
	row.TolText = fmt.Sprintf("±%.1f pts on the max", row.Tol)
	vals := cellValues(cells, -1)
	row.Ours = fmt.Sprintf("max %+.1f %% (%s), median %+.1f %%", slices.Max(vals), argmax(cells), medianOf(vals))
	row.judgeCells(cells, func(skip int) string {
		v := cellValues(cells, skip)
		if medianOf(v) > 0 && math.Abs(slices.Max(v)-68) <= row.Tol {
			return verdictHolds
		}
		return verdictFails
	})
	return row
}

// separationClaim: separating static from CGI processing improves M/S
// over M/S-1 by up to 26 %. Ours helps in most cells but by far more: a
// deviation with a documented cause, not a failure. Base tolerance as
// for the reservation; the full grid's spread (64 points) widens it.
func separationClaim(cells []scoreCell) ScoreRow {
	row := ScoreRow{Claim: "Figure 4 separation (M/S over M/S-1)", Paper: "≤ 26 %",
		Spread: seedSpread(cells, slices.Max[[]float64]), Presets: []string{"ms"}}
	row.Tol = widen(15, row.Spread)
	row.TolText = fmt.Sprintf("max ≤ 26 + %.1f pts", row.Tol)
	vals := cellValues(cells, -1)
	row.Ours = fmt.Sprintf("%+.1f … %+.1f %% (max %s)", slices.Min(vals), slices.Max(vals), argmax(cells))
	row.judgeCells(cells, func(skip int) string {
		v := cellValues(cells, skip)
		switch {
		case medianOf(v) <= 0:
			return verdictFails
		case slices.Max(v) <= 26+row.Tol:
			return verdictHolds
		}
		return verdictDeviates + causeSeparation
	})
	return row
}

// samplingClaim: off-line demand sampling improves M/S over M/S-ns by
// 14 % on average (5–22 % per cell). Statistic: the mean over cells;
// the base tolerance is half the paper's per-cell band.
func samplingClaim(cells []scoreCell) ScoreRow {
	row := ScoreRow{Claim: "Figure 4 sampling (M/S over M/S-ns)", Paper: "average 14 % (5–22 %)",
		Spread: seedSpread(cells, seedMean), Presets: []string{"ms", "ms-ns"}}
	row.Tol = widen(8.5, row.Spread)
	row.TolText = fmt.Sprintf("±%.1f pts on the mean", row.Tol)
	vals := cellValues(cells, -1)
	row.Ours = fmt.Sprintf("mean %+.1f %% (cells %+.1f … %+.1f)", seedMean(vals), slices.Min(vals), slices.Max(vals))
	row.judgeCells(cells, func(skip int) string {
		if math.Abs(seedMean(cellValues(cells, skip))-14) <= row.Tol {
			return verdictHolds
		}
		return verdictFails
	})
	return row
}

// fig5Claim: a master count fixed from nominal parameters degrades the
// stretch factor by at most 9 %, 4 % on average, against re-planning m
// per workload. Statistic: the mean degradation (negative cells count
// as zero); a mean within bounds with cells beyond 9 % deviates. Base
// tolerance 6 points: the -quick grid's short runs read the mean 3
// points above the full grid (9.9 % against 6.9 %) while the 2-seed
// spread at either size stays under 1.3.
func fig5Claim(res *Fig5Result) ScoreRow {
	var cells []scoreCell
	for _, r := range res.Rows {
		cells = append(cells, scoreCell{fmt.Sprintf("%s 1/r=%g ρ=%g", r.Trace, r.InvR, r.Rho), r.DegradPct, r.SeedDegradPct})
	}
	row := ScoreRow{Claim: "Figure 5 fixed-m degradation", Paper: "≤ 9 %, average 4 %",
		Spread: seedSpread(cells, posMeanOf), Presets: []string{"ms"}}
	row.Tol = widen(6, row.Spread)
	row.TolText = fmt.Sprintf("mean ≤ 4 + %.1f pts", row.Tol)
	vals := cellValues(cells, -1)
	row.Ours = fmt.Sprintf("mean %.1f %%, max %+.1f %% (%s)", posMeanOf(vals), slices.Max(vals), argmax(cells))
	row.judgeCells(cells, func(skip int) string {
		v := cellValues(cells, skip)
		switch {
		case posMeanOf(v) > 4+row.Tol:
			return verdictFails
		case slices.Max(v) <= 9+row.Tol:
			return verdictHolds
		}
		return verdictDeviates + causeFig5
	})
	return row
}

// table3Claim checks the recorded live validation: the mean
// |actual − simulated| gap holds within 3 + 5 points (live replays have
// no seed grid to take a spread from); a wider gap deviates — virtual
// resources on loopback, short replays — as long as the live cluster
// confirms every improvement the simulator calls substantial (> 15 %),
// and fails otherwise. The verdict is prefixed with verdictRecorded.
func table3Claim(rows []Table3Row) ScoreRow {
	const tol = 5
	gaps := make([]float64, len(rows))
	confirmed := true
	for i, r := range rows {
		gaps[i] = r.Diff()
		if r.SimPct > 15 && r.ActualPct <= 0 {
			confirmed = false
		}
	}
	row := ScoreRow{Claim: "Table 3 live vs simulated gap", Paper: "≈ 3 pts",
		Tol: tol, TolText: fmt.Sprintf("mean ≤ 3 + %d pts", tol), Spread: math.NaN(),
		Ours: fmt.Sprintf("mean %.1f pts over %d cells (max %.1f)", seedMean(gaps), len(rows), slices.Max(gaps))}
	switch {
	case !confirmed:
		row.Verdict = verdictFails
	case seedMean(gaps) <= 3+tol:
		row.Verdict = verdictRecorded + ": " + verdictHolds
	default:
		row.Verdict = verdictRecorded + ": " + verdictDeviates + causeTable3
	}
	return row
}

// failoverClaim (extension): slave crashes lose no request, and the
// crashes really caught in-flight work.
func failoverClaim(rows []FailoverRow) ScoreRow {
	row := ScoreRow{Claim: "Failover: crashes lose no request", Paper: "-", Presets: []string{"ms"},
		TolText: "0 lost", Spread: math.NaN(), Verdict: verdictHolds}
	var sfs []string
	least := rows[0].Completed
	for i, r := range rows {
		sfs = append(sfs, fmt.Sprintf("%.2f", r.Stretch))
		least = min(least, r.Completed)
		if r.Completed != rows[0].Completed || i > 0 && r.Failovers == 0 {
			row.Verdict = verdictFails
		}
	}
	row.Ours = fmt.Sprintf("%d of %d served in the worst of %d scenarios (SF %s)",
		least, rows[0].Completed, len(rows), strings.Join(sfs, " → "))
	return row
}

// autoscaleClaim (extension): the online autoscaler saves node-hours
// at the fixed fleet's SLO. On each workload's seed means, node-hours
// saved must reach 10 % and SLO attainment stay within a point (0.01)
// of the fixed fleet's, or the row fails. Stretch may grow by the 25 %
// a benchmark p99 may move; beyond that the diurnal row fails and the
// flash crowd deviates, with the cause measured on its seeds. No bound
// widens with the seed spread.
func autoscaleClaim(rows []AutoscaleRow) ScoreRow {
	row := ScoreRow{Claim: "Autoscaling saves node-hours at the fixed fleet's SLO", Paper: "-", Presets: []string{"ms"},
		TolText: "saved ≥ 10 %, SLO ≥ fixed − 0.01, SF ≤ 1.25× fixed", Spread: math.NaN()}
	var ours []string
	fails, deviates := false, false
	for i := 0; i+1 < len(rows); i += 2 {
		fixed, auto := rows[i], rows[i+1]
		ratios := make([]string, len(auto.SeedStretch))
		for s, sf := range auto.SeedStretch {
			ratios[s] = fmt.Sprintf("%.2f", sf/fixed.SeedStretch[s])
		}
		ours = append(ours, fmt.Sprintf("%s saved %.1f %%, SLO %.4f → %.4f, SF ×%.2f (seeds %s)", auto.Workload,
			auto.SavedPct, fixed.SLO, auto.SLO, auto.Stretch/fixed.Stretch, strings.Join(ratios, ", ")))
		switch {
		case auto.SavedPct < 10 || auto.SLO < fixed.SLO-0.01:
			fails = true
		case auto.Stretch <= 1.25*fixed.Stretch:
		case auto.Workload == "flash crowd":
			deviates = true
		default:
			fails = true
		}
	}
	row.Ours = strings.Join(ours, "; ")
	switch {
	case fails:
		row.Verdict = verdictFails
	case deviates:
		row.Verdict = verdictDeviates + causeFlash
	default:
		row.Verdict = verdictHolds
	}
	return row
}

// bookingClaim (extension): charging each placement to the view until
// the next refresh removes the stale-load herd. Statistic: the herd
// cost (SF without booking over SF with, minus one) at the simulator's
// default refresh period, which must reach 10 % less the tolerance
// (the seed spread: no base). Other periods are not judged.
func bookingClaim(rows []StalenessRow) ScoreRow {
	def := cluster.DefaultConfig(1, 1).LoadRefresh
	row := ScoreRow{Claim: "Placement booking removes the herd", Paper: "-", Presets: []string{"ms"},
		Spread: math.NaN(), Verdict: verdictFails, Ours: fmt.Sprintf("no %g s refresh row", def)}
	for _, r := range rows {
		if r.RefreshSeconds != def {
			continue
		}
		c := scoreCell{v: (r.NoBooking/r.WithBooking - 1) * 100}
		for s := range r.SeedWithBooking {
			c.seeds = append(c.seeds, (r.SeedNoBooking[s]/r.SeedWithBooking[s]-1)*100)
		}
		row.Spread = seedSpread([]scoreCell{c}, slices.Min[[]float64])
		row.Ours = fmt.Sprintf("herd cost %+.1f %% at %g s", c.v, def)
		if c.v >= 10-widen(0, row.Spread) {
			row.Verdict = verdictHolds
		}
	}
	row.Tol = widen(0, row.Spread)
	row.TolText = fmt.Sprintf("≥ 10 − %.1f %%", row.Tol)
	return row
}

// tournamentClaim (extension): M/S has the lowest stretch factor of the
// competitor field in most (profile, load) blocks. Statistic: blocks
// won; the base tolerance admits any strict majority. jsq2 and random,
// which no other row reads, are its named baselines.
func tournamentClaim(rows []TournamentRow) ScoreRow {
	var cells []scoreCell
	var lost []string
	for start := 0; start < len(rows); {
		end := start
		for end < len(rows) && rows[end].Profile == rows[start].Profile && rows[end].Rho == rows[start].Rho {
			end++
		}
		block := rows[start:end]
		c := scoreCell{label: fmt.Sprintf("%s ρ=%g", block[0].Profile, block[0].Rho)}
		var best string
		c.v, best = msWins(block, func(r TournamentRow) float64 { return r.Stretch })
		if c.v == 0 {
			lost = append(lost, c.label+": "+best)
		}
		for s := range block[0].SeedStretch {
			w, _ := msWins(block, func(r TournamentRow) float64 { return r.SeedStretch[s] })
			c.seeds = append(c.seeds, w)
		}
		cells = append(cells, c)
		start = end
	}
	sum := func(v []float64) float64 {
		n := 0.0
		for _, x := range v {
			n += x
		}
		return n
	}
	base := float64((len(cells) - 1) / 2)
	row := ScoreRow{Claim: "Tournament: M/S lowest stretch", Paper: "-",
		Spread: seedSpread(cells, sum), Presets: []string{"ms", "jsq2", "random"}}
	row.Tol = widen(base, row.Spread)
	row.TolText = fmt.Sprintf("wins ≥ blocks − %g", row.Tol)
	row.Ours = fmt.Sprintf("%g of %d blocks", sum(cellValues(cells, -1)), len(cells))
	if len(lost) > 0 {
		row.Ours += " (lost " + strings.Join(lost, ", ") + ")"
	}
	row.Ours += "; baselines jsq2: load-aware at two probes, random: load-blind"
	row.judgeCells(cells, func(skip int) string {
		v := cellValues(cells, skip)
		if sum(v) >= float64(len(v))-row.Tol {
			return verdictHolds
		}
		return verdictFails
	})
	return row
}

// msWins returns 1 when the ms preset has the block's lowest sf, else 0,
// and the name of the policy that has it.
func msWins(block []TournamentRow, sf func(TournamentRow) float64) (float64, string) {
	best := block[0]
	for _, r := range block[1:] {
		if sf(r) < sf(best) {
			best = r
		}
	}
	if best.Policy == "ms" {
		return 1, best.Policy
	}
	return 0, best.Policy
}

// maxweightClaim (the maxweight preset's citation): MaxWeight with
// join-shortest-queue routing is heavy-traffic optimal
// (Maguluri–Srikant–Ying), so on a homogeneous workload the maxweight
// preset's mean response time over full JSQ's tends to 1 as ρ → 1.
// Statistic: the largest |ratio − 1| over ρ 0.9, 0.95 and 0.98, in
// percent; base tolerance 5 %. Vacuous when the two stages pick
// different nodes on under minShare of the placements.
func maxweightClaim(l jsqLimit) ScoreRow {
	row := ScoreRow{Claim: "MaxWeight ≈ JSQ(p) as ρ → 1", Paper: "ratio → 1",
		Spread: seedSpread(l.cells, maxDevPct), Presets: []string{"maxweight"}}
	row.Tol = widen(5, row.Spread)
	row.TolText = fmt.Sprintf("|ratio − 1| ≤ %.1f %%", row.Tol)
	var ratios []string
	for _, c := range l.cells {
		ratios = append(ratios, fmt.Sprintf("%.3f (%s)", c.v, c.label))
	}
	row.Ours = fmt.Sprintf("MaxWeight/JSQ(p) %s at %g ms views; %.1f %% of placements differ",
		strings.Join(ratios, ", "), jsqLimitRefresh*1000, l.share*100)
	if l.share < minShare {
		row.Verdict = verdictVacuous
		return row
	}
	row.judgeCells(l.cells, func(skip int) string {
		if maxDevPct(cellValues(l.cells, skip)) <= row.Tol {
			return verdictHolds
		}
		return verdictFails
	})
	return row
}
