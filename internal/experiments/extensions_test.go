package experiments

import (
	"strings"
	"testing"
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
