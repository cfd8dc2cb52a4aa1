package experiments

import (
	"reflect"
	"testing"
)

// The autoscaling study's headline claims at quick fidelity: the
// autoscaler saves node-hours on both workloads without giving up SLO
// attainment beyond tolerance, and the study is run-to-run
// deterministic (the msbench CSV diff in CI depends on that).
func TestAutoscaleStudy(t *testing.T) {
	opts := Quick()
	rows, err := RunAutoscale(16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 workloads × 2 scenarios)", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		fixed, auto := rows[i], rows[i+1]
		if fixed.Scenario != "fixed fleet" || auto.Scenario != "autoscaled" || fixed.Workload != auto.Workload {
			t.Fatalf("row pairing broken: %+v / %+v", fixed, auto)
		}
		if auto.NodeHours >= fixed.NodeHours || auto.SavedPct <= 0 {
			t.Errorf("%s: no node-hours saved (%.4f vs %.4f)", auto.Workload, auto.NodeHours, fixed.NodeHours)
		}
		if auto.SLO < fixed.SLO-0.02 {
			t.Errorf("%s: SLO regressed beyond tolerance (%.4f vs %.4f)", auto.Workload, auto.SLO, fixed.SLO)
		}
		if auto.SlaveOffs == 0 || auto.Epochs == 0 {
			t.Errorf("%s: autoscaler idle (offs=%d epochs=%d)", auto.Workload, auto.SlaveOffs, auto.Epochs)
		}
	}

	again, err := RunAutoscale(16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatalf("rows diverged between runs:\n%+v\n%+v", rows, again)
	}
}
