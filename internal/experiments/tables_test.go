package experiments

import (
	"bytes"
	"strings"
	"testing"

	"msweb/internal/report"
)

func TestAllTablesValidate(t *testing.T) {
	t1, err := RunTable1(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	curves := RunFig3()
	t2 := RunTable2(Quick())

	tables := []*report.Table{
		Table1Table(t1),
		Table2Table(t2),
		Fig3Table(curves),
		Fig4Table(32, []Fig4Row{{Trace: "UCB", InvR: 20, Lambda: 100, Masters: 3, MSStretch: 2}}),
		Fig5Table(&Fig5Result{P: 32, NominalM: 5, Rows: []Fig5Row{{Trace: "KSU", InvR: 20, Rho: 0.4, FixedM: 5, AdaptedM: 6, FixedSF: 2, AdaptSF: 2}}}),
		Table3Table([]Table3Row{{Trace: "ADL", Lambda: 20, Versus: "M/S-1", ActualPct: 5, SimPct: 7}}),
		CacheSweepTable(16, []CacheSweepRow{{Capacity: 64, TTL: 120, Stretch: 3}}),
		FailoverTable(16, []FailoverRow{{Scenario: "healthy", Stretch: 2, Completed: 100}}),
		FlashCrowdTable(16, []FlashCrowdRow{{Scenario: "reactive", Stretch: 2, PeakStretch: 4}}),
		HeteroTable(16, []HeteroRow{{Mix: "uniform", AnalyticFlat: 2, AnalyticMS: 1.5, Masters: []int{0}, SimFlat: 3, SimMS: 2}}),
		WSensitivityTable(16, []WSensitivityRow{{Label: "exact", Stretch: 2}, {Label: "noisy", Stretch: 2.2}}),
		StalenessTable(16, []StalenessRow{{RefreshSeconds: 0.2, WithBooking: 2, NoBooking: 3}}),
		OpenClosedTable(16, []OpenClosedRow{{LoadFactor: 0.5, OpenSF: 2, ClosedSF: 1.8}}),
		AutoscaleTable(16, []AutoscaleRow{{Workload: "diurnal", Scenario: "autoscaled", Stretch: 2, SLO: 0.99, NodeHours: 0.1, SavedPct: 30, SlaveOffs: 4, Epochs: 9}}),
		DisciplineTable(32, []DisciplineRow{{InvR: 20, PSFlat: 2, PSMS: 1.8, PSGainPct: 11, FCFSFlat: 30, FCFSMS: 3, FCFSGainPct: 900, FCFSSplitM: 4}}),
		TournamentTable(16, []TournamentRow{{Profile: "KSU", Rho: 0.5, Policy: "ms", MeanMs: 20, P99Ms: 200, Stretch: 6, CPUUtil: 0.5}}),
		ShardScaleTable([]ShardScaleRow{{Nodes: 256, Masters: 4, GlobalPolled: 256, ShardPolled: 65, MaxShard: 70, GlobalSF: 2, ShardSF: 2.1}}),
	}
	for _, tbl := range tables {
		if err := tbl.Validate(); err != nil {
			t.Fatalf("%s: %v", tbl.Title, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: no rows", tbl.Title)
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: csv: %v", tbl.Title, err)
		}
		if !strings.Contains(buf.String(), ",") {
			t.Fatalf("%s: csv has no separators", tbl.Title)
		}
	}
}

func TestTable2TableExpandsPerR(t *testing.T) {
	rows := RunTable2(Quick()) // 6 config rows × 2 quick r values
	tbl := Table2Table(rows)
	if len(tbl.Rows) != 12 {
		t.Fatalf("%d csv rows, want 12", len(tbl.Rows))
	}
}

func TestRounding(t *testing.T) {
	if got := round2(1.006); got != 1.01 {
		t.Fatalf("round2(1.006) = %v", got)
	}
	if got := round2(-1.006); got != -1.01 {
		t.Fatalf("round2(-1.006) = %v", got)
	}
	if got := round4(0.12345); got != 0.1235 {
		t.Fatalf("round4 = %v", got)
	}
}

// column returns the index of the named column, failing the test when
// the table lacks it.
func column(t *testing.T, tbl *report.Table, name string) int {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %q", tbl.Title, name, tbl.Columns)
	return -1
}

// noteContains reports whether any note of tbl contains sub.
func noteContains(tbl *report.Table, sub string) bool {
	for _, n := range tbl.Notes {
		if strings.Contains(n, sub) {
			return true
		}
	}
	return false
}

func TestTournamentTableBestPerBlock(t *testing.T) {
	tbl := TournamentTable(16, []TournamentRow{
		{Profile: "KSU", Rho: 0.5, Policy: "ms", MeanMs: 20.4},
		{Profile: "KSU", Rho: 0.5, Policy: "cmu", MeanMs: 20.9},
		{Profile: "KSU", Rho: 0.8, Policy: "ms", MeanMs: 34.7},
		{Profile: "KSU", Rho: 0.8, Policy: "ms-nr", MeanMs: 33.5},
	})
	want := []string{"Best mean at KSU rho=0.5: ms (20.4 ms).", "Best mean at KSU rho=0.8: ms-nr (33.5 ms)."}
	if got := tbl.Notes[1:]; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("block notes %q, want %q", got, want)
	}
}
