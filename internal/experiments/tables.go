package experiments

// The one rendering of every experiment: each XTable turns the typed
// rows into a report.Table whose rows are the CSV cells and whose Notes
// carry the context a reader of the text needs (paper references,
// workload, derived summaries). msbench prints WriteText and writes
// WriteCSV from the same value.

import (
	"fmt"
	"math"
	"strings"

	"msweb/internal/queuemodel"
	"msweb/internal/report"
)

// Table1Table converts Table 1 rows.
func Table1Table(rows []Table1Row) *report.Table {
	t := &report.Table{
		Title: "Table 1: trace characteristics",
		Columns: []string{"trace", "year", "paper_pct_cgi", "ours_pct_cgi",
			"paper_interval_s", "ours_interval_s", "paper_html_bytes", "ours_html_bytes",
			"paper_cgi_bytes", "ours_cgi_bytes"},
	}
	var reqs []string
	for _, r := range rows {
		t.AddRow(r.PaperName, r.PaperYear, r.PaperPctCGI, round2(r.Measured.PctCGI),
			r.PaperInterval, round4(r.Measured.MeanInterval), r.PaperHTML, round2(r.Measured.MeanHTMLSize),
			r.PaperCGI, round2(r.Measured.MeanCGISize))
		reqs = append(reqs, r.PaperName+" "+r.PaperRequests)
	}
	t.Notes = []string{
		"paper_* columns are the published values, ours_* the regenerated traces.",
		"Paper request counts: " + strings.Join(reqs, ", ") + ".",
		"HTML sizes are regenerated through the SPECweb96 40-file mapping,",
		"as the paper replaces every logged fetch with the closest SPECweb96 file.",
	}
	return t
}

// Table2Table converts Table 2 rows (one line per trace × p × r).
func Table2Table(rows []Table2Row) *report.Table {
	t := &report.Table{
		Title:   "Table 2: workload parameters",
		Columns: []string{"trace", "a", "p", "target_rho", "inv_r", "lambda_req_s"},
		Notes:   []string{"Each arrival rate drives the flat architecture to the target utilization ρ_F."},
	}
	for _, r := range rows {
		for i, invR := range r.InvRs {
			t.AddRow(r.Trace, round4(r.A), r.P, r.TargetRho, invR, round2(r.Lambdas[i]))
		}
	}
	return t
}

// Fig3Table converts the Figure 3 curves; both subfigures share its rows.
func Fig3Table(curves []queuemodel.Fig3Curve) *report.Table {
	t := &report.Table{
		Title: "Figure 3: analytic improvements",
		Columns: []string{"a_label", "inv_r", "ms_stretch", "flat_stretch",
			"msprime_stretch", "over_flat_pct", "over_msprime_pct", "masters", "theta"},
		Notes: []string{
			"λ=1000 req/s, p=32, μ_h=1200 req/s.",
			"Figure 3(a) is over_flat_pct: improvement of M/S over the flat model.",
			"Figure 3(b) is over_msprime_pct: improvement of M/S over the fixed M/S' split.",
		},
	}
	for _, c := range curves {
		for _, p := range c.Points {
			t.AddRow(c.Label, p.InvR, round4(p.MSStretch), round4(p.FlatStretch),
				round4(p.MSPrimeStretch), round2(p.OverFlatPct), round2(p.OverMSPrimePct),
				p.Masters, round4(p.Theta))
		}
	}
	return t
}

// Fig4Table converts Figure 4 rows for cluster size p; p=32 is
// subfigure (a), any other size (b).
func Fig4Table(p int, rows []Fig4Row) *report.Table {
	sub := "(a)"
	if p != 32 {
		sub = "(b)"
	}
	t := &report.Table{
		Title: fmt.Sprintf("Figure 4: scheduling ablations p%d", p),
		Columns: []string{"p", "trace", "inv_r", "lambda_req_s", "masters",
			"ms_stretch", "over_ns_pct", "over_nr_pct", "over_1_pct"},
		Notes: []string{
			fmt.Sprintf("Figure 4%s: %% improvement of M/S over the ablated variants M/S-ns, M/S-nr, M/S-1.", sub),
			"over_ns_pct / over_nr_pct / over_1_pct: benefit of demand sampling / master reservation / static-CGI separation.",
		},
	}
	for _, r := range rows {
		t.AddRow(p, r.Trace, r.InvR, round2(r.Lambda), r.Masters,
			round4(r.MSStretch), round2(r.OverNS), round2(r.OverNR), round2(r.Over1))
	}
	return t
}

// Fig5Table converts Figure 5 rows.
func Fig5Table(res *Fig5Result) *report.Table {
	t := &report.Table{
		Title: "Figure 5: fixed vs re-planned master count",
		Columns: []string{"p", "trace", "inv_r", "rho", "lambda_req_s",
			"fixed_m", "replanned_m", "sf_fixed", "sf_replanned", "degrade_pct"},
		Notes: []string{
			fmt.Sprintf("Fixed m=%d from the nominal plan (r=1/60, a=0.44) vs m re-planned per workload, p=%d.", res.NominalM, res.P),
			"Paper: ≤9% degradation, 4% average.",
			fmt.Sprintf("Mean degradation (positive rows): %.1f%%.", res.MeanDegradation()),
		},
	}
	for _, r := range res.Rows {
		t.AddRow(res.P, r.Trace, r.InvR, r.Rho, round2(r.Lambda),
			r.FixedM, r.AdaptedM, round4(r.FixedSF), round4(r.AdaptSF), round2(r.DegradPct))
	}
	return t
}

// Table3Table converts Table 3 rows.
func Table3Table(rows []Table3Row) *report.Table {
	t := &report.Table{
		Title:   "Table 3: live vs simulated improvements",
		Columns: []string{"trace", "lambda_req_s", "versus", "actual_pct", "simulated_pct", "abs_diff"},
		Notes:   []string{"Improvement of M/S over each alternative on the live loopback cluster and in simulation (paper: 6 Sun Ultra-1 nodes, average |actual − simulated| ≈ 3 points)."},
	}
	sum := 0.0
	for _, r := range rows {
		t.AddRow(r.Trace, r.Lambda, r.Versus, round2(r.ActualPct), round2(r.SimPct), round2(r.Diff()))
		sum += r.Diff()
	}
	if len(rows) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("Average |actual − simulated| = %.1f points.", sum/float64(len(rows))))
	}
	return t
}

// CacheSweepTable converts the cache study.
func CacheSweepTable(p int, rows []CacheSweepRow) *report.Table {
	t := &report.Table{
		Title:   "Extension: dynamic-content cache sweep",
		Columns: []string{"capacity", "ttl_s", "stretch", "dyn_mean_resp_s", "hit_ratio"},
		Notes:   []string{fmt.Sprintf("Swala-style dynamic-content cache, KSU workload, p=%d; capacity 0 = cache off.", p)},
	}
	for _, r := range rows {
		t.AddRow(r.Capacity, r.TTL, round4(r.Stretch), round4(r.DynMeanResp), round4(r.HitRatio))
	}
	return t
}

// FailoverTable converts the failover study.
func FailoverTable(p int, rows []FailoverRow) *report.Table {
	t := &report.Table{
		Title:   "Extension: failover and recruitment",
		Columns: []string{"scenario", "stretch", "failovers", "completed"},
		Notes:   []string{fmt.Sprintf("ADL workload, p=%d of which 2 are non-dedicated spares.", p)},
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, round4(r.Stretch), r.Failovers, r.Completed)
	}
	return t
}

// FlashCrowdTable converts the flash-crowd study.
func FlashCrowdTable(p int, rows []FlashCrowdRow) *report.Table {
	t := &report.Table{
		Title:   "Extension: flash-crowd recruitment",
		Columns: []string{"scenario", "stretch", "peak_stretch", "recruitments", "releases"},
		Notes: []string{
			fmt.Sprintf("Bursty KSU workload (MMPP 3x), p=%d; peak_stretch is the worst 1-second window.", p),
		},
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, round4(r.Stretch), round4(r.PeakStretch), r.Recruitments, r.Releases)
	}
	return t
}

// HeteroTable converts the heterogeneous study.
func HeteroTable(p int, rows []HeteroRow) *report.Table {
	t := &report.Table{
		Title: "Extension: heterogeneous cluster",
		Columns: []string{"mix", "model_flat", "model_ms", "masters",
			"sim_flat", "sim_ms", "improve_pct"},
		Notes: []string{
			fmt.Sprintf("Theorem 1 extended to mixed node speeds, KSU workload, p=%d.", p),
			"Simulated flat uses speed-blind uniform dispatch, as DNS rotation does (slow nodes",
			"saturate); the analytic flat column assumes speed-proportional routing.",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Mix, round4(r.AnalyticFlat), round4(r.AnalyticMS), len(r.Masters),
			round4(r.SimFlat), round4(r.SimMS), round2(r.SimImprovePct))
	}
	return t
}

// WSensitivityTable converts the sampling ablation.
func WSensitivityTable(p int, rows []WSensitivityRow) *report.Table {
	t := &report.Table{
		Title:   "Ablation: w sampling accuracy",
		Columns: []string{"w_table", "stretch"},
		Notes: []string{
			fmt.Sprintf("Off-line w sampling accuracy, ADL workload, p=%d.", p),
			"When the dominant resource saturates, its idle ratio floors out and the OTHER",
			"resource (whose load correlates with CGI count) can be the better-conditioned",
			"signal, so even inverted weights may score well here.",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Label, round4(r.Stretch))
	}
	for i := 1; i < len(rows); i++ {
		t.Notes = append(t.Notes, fmt.Sprintf("%s vs exact: %+.1f%%", rows[i].Label, (rows[i].Stretch/rows[0].Stretch-1)*100))
	}
	return t
}

// StalenessTable converts the staleness ablation.
func StalenessTable(p int, rows []StalenessRow) *report.Table {
	t := &report.Table{
		Title:   "Ablation: load-info staleness",
		Columns: []string{"refresh_s", "sf_with_booking", "sf_without_booking"},
		Notes:   []string{fmt.Sprintf("Load-information refresh period with and without placement booking, ADL workload, p=%d.", p)},
	}
	for _, r := range rows {
		t.AddRow(r.RefreshSeconds, round4(r.WithBooking), round4(r.NoBooking))
		t.Notes = append(t.Notes, fmt.Sprintf("Herd cost at refresh %gs (without vs with booking): %+.1f%%",
			r.RefreshSeconds, (r.NoBooking/r.WithBooking-1)*100))
	}
	return t
}

// OpenClosedTable converts the methodology comparison.
func OpenClosedTable(p int, rows []OpenClosedRow) *report.Table {
	t := &report.Table{
		Title:   "Methodology: open vs closed loop",
		Columns: []string{"load_factor", "open_sf", "closed_sf"},
		Notes: []string{
			fmt.Sprintf("Open-loop replay vs closed-loop sessions, KSU workload, p=%d; load_factor is the", p),
			"offered rate relative to cluster capacity. Past saturation (load > 1) the open-loop",
			"stretch diverges with trace length, while closed-loop users self-throttle.",
		},
	}
	for _, r := range rows {
		t.AddRow(r.LoadFactor, round4(r.OpenSF), round4(r.ClosedSF))
	}
	return t
}

// round2/round4 trim float noise for stable cells.
func round2(x float64) float64 { return roundTo(x, 100) }
func round4(x float64) float64 { return roundTo(x, 10000) }

func roundTo(x float64, scale float64) float64 {
	return math.Round(x*scale) / scale
}
