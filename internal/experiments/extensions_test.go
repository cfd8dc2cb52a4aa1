package experiments

import (
	"reflect"
	"strings"
	"testing"

	"msweb/internal/core"
	"msweb/internal/rng"
)

func TestRunFailoverStudy(t *testing.T) {
	rows, err := RunFailoverStudy(8, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	healthy, crash, recruited := rows[0], rows[1], rows[2]
	if healthy.Failovers != 0 {
		t.Fatalf("healthy run recorded %d failovers", healthy.Failovers)
	}
	if crash.Failovers == 0 {
		t.Fatal("crash scenario recorded no failovers")
	}
	// All scenarios must complete the full workload.
	for _, r := range rows {
		if r.Completed != healthy.Completed {
			t.Fatalf("scenario %q completed %d, healthy %d", r.Scenario, r.Completed, healthy.Completed)
		}
	}
	// Recruitment must recover capacity lost to the crash.
	if recruited.Stretch >= crash.Stretch {
		t.Fatalf("recruitment (%v) did not improve on the crash (%v)", recruited.Stretch, crash.Stretch)
	}
	tbl := FailoverTable(8, rows)
	if !strings.Contains(tbl.Title, "recruit") || !strings.Contains(tbl.Rows[2][column(t, tbl, "scenario")], "recruit") {
		t.Fatalf("title %q rows %q", tbl.Title, tbl.Rows)
	}
}

func TestRunHeteroStudy(t *testing.T) {
	rows, err := RunHeteroStudy(8, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.AnalyticMS > r.AnalyticFlat {
			t.Fatalf("%s: analytic M/S %v worse than flat %v", r.Mix, r.AnalyticMS, r.AnalyticFlat)
		}
		if len(r.Masters) == 0 {
			t.Fatalf("%s: empty master set", r.Mix)
		}
		if r.SimMS <= 0 || r.SimFlat <= 0 {
			t.Fatalf("%s: missing simulation results: %+v", r.Mix, r)
		}
	}
	// On every mix the simulated M/S should beat simulated flat.
	wins := 0
	for _, r := range rows {
		if r.SimImprovePct > 0 {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("M/S won only %d/3 heterogeneous mixes", wins)
	}
	if tbl := HeteroTable(8, rows); !strings.Contains(tbl.Title, "heterogeneous") {
		t.Fatalf("title %q", tbl.Title)
	}
}

func TestRunWSensitivity(t *testing.T) {
	rows, err := RunWSensitivity(8, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	// Quick sizing is single-seed and too noisy for ordering claims
	// (the full msbench run asserts the science; see results/wsense.txt)
	// so this test checks structure only.
	for _, r := range rows {
		if r.Stretch < 1 {
			t.Fatalf("impossible stretch in %+v", r)
		}
	}
	if rows[0].Label != "exact sampling" || rows[3].Label != "blind w=0.5 (M/S-ns)" {
		t.Fatalf("row order changed: %+v", rows)
	}
	tbl := WSensitivityTable(8, rows)
	if !strings.Contains(tbl.Title, "sampling") || !noteContains(tbl, "inverted weights vs exact:") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
}

// TestNoisyWDeterministic pins the sampling-error corruption to its
// seed: two applications with same-seed streams must give identical
// tables. Drawing in map-iteration order would not.
func TestNoisyWDeterministic(t *testing.T) {
	exact := core.WTable{}
	for id := 0; id < 40; id++ {
		exact[id] = float64(id+1) / 42
	}
	a := noisyW(0.1)(exact, rng.New(7))
	for i := 0; i < 5; i++ {
		if b := noisyW(0.1)(exact, rng.New(7)); !reflect.DeepEqual(a, b) {
			t.Fatalf("same seed, different noise:\n%v\n%v", a, b)
		}
	}
}

func TestRunStaleness(t *testing.T) {
	rows, err := RunStaleness(8, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// At the stalest setting the booking correction must help clearly.
	last := rows[len(rows)-1]
	if last.NoBooking < last.WithBooking {
		t.Fatalf("at refresh=%vs booking hurt: %v vs %v",
			last.RefreshSeconds, last.WithBooking, last.NoBooking)
	}
	tbl := StalenessTable(8, rows)
	if !strings.Contains(tbl.Title, "staleness") || !noteContains(tbl, "Herd cost at refresh 5s") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
}

func TestRunOpenClosed(t *testing.T) {
	rows, err := RunOpenClosed(8, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// Past saturation the open-loop stretch must exceed closed-loop.
	last := rows[len(rows)-1]
	if last.OpenSF <= last.ClosedSF {
		t.Fatalf("overloaded open loop (%v) not above closed loop (%v)", last.OpenSF, last.ClosedSF)
	}
	// Open-loop stretch grows with load.
	for i := 1; i < len(rows); i++ {
		if rows[i].OpenSF < rows[i-1].OpenSF {
			t.Fatalf("open-loop stretch fell with load: %+v", rows)
		}
	}
	tbl := OpenClosedTable(8, rows)
	if !strings.Contains(tbl.Title, "closed") {
		t.Fatalf("title %q", tbl.Title)
	}
	column(t, tbl, "closed_sf")
}

func TestRunDiscipline(t *testing.T) {
	rows, err := RunDiscipline(32, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // quick InvRs
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.FCFSGainPct <= r.PSGainPct {
			t.Fatalf("1/r=%v: FCFS gain %v not above PS gain %v", r.InvR, r.FCFSGainPct, r.PSGainPct)
		}
		if r.FCFSFlat <= r.PSFlat {
			t.Fatalf("1/r=%v: FCFS flat %v not above PS flat %v", r.InvR, r.FCFSFlat, r.PSFlat)
		}
	}
	tbl := DisciplineTable(32, rows)
	if !strings.Contains(tbl.Title, "FCFS") || !noteContains(tbl, "FCFS charges statics") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}
