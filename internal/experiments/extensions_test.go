package experiments

import (
	"fmt"
	"strings"
	"testing"

	"msweb/internal/trace"
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

// TestRunStaleness reads the -quick scorecard's staleness rows (p=16):
// every period must be shorter than the trace's simulated span, so each
// one refreshes within the run. The -quick trace spans under 5 s, so
// the 5 s period is gone and 1 s is the stalest.
func TestRunStaleness(t *testing.T) {
	in, err := quickScorecardInputs()
	if err != nil {
		t.Fatal(err)
	}
	rows, opts := in.Staleness, Quick()
	lambda := LambdaForRho(16, trace.ADL.ArrivalRatio(), 1.0/40, opts.TargetRho)
	tr, err := genTrace(trace.ADL, lambda, 1.0/40, opts.requestCount(lambda), opts.Seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	span := tr.Requests[len(tr.Requests)-1].Arrival
	var periods []float64
	for _, r := range rows {
		periods = append(periods, r.RefreshSeconds)
		if r.RefreshSeconds >= span {
			t.Errorf("refresh %g s is not shorter than the %g s span", r.RefreshSeconds, span)
		}
	}
	if fmt.Sprint(periods) != "[0.05 0.2 1]" {
		t.Fatalf("periods %v, want [0.05 0.2 1] (span %g s)", periods, span)
	}
	// At the stalest setting the booking correction must help clearly.
	last := rows[len(rows)-1]
	if last.NoBooking < last.WithBooking {
		t.Fatalf("at refresh=%vs booking hurt: %v vs %v",
			last.RefreshSeconds, last.WithBooking, last.NoBooking)
	}
	tbl := StalenessTable(16, rows)
	if !strings.Contains(tbl.Title, "staleness") || !noteContains(tbl, "Herd cost at refresh 1s") {
		t.Fatalf("title %q notes %q", tbl.Title, tbl.Notes)
	}
}
