package experiments

import (
	"reflect"
	"testing"

	"msweb/internal/trace"
)

// fig4TestOptions trims the quick sizing further so the determinism
// comparison runs two full grids in a fraction of a second.
func fig4TestOptions() Options {
	opts := Quick()
	opts.InvRs = []float64{40}
	if len(opts.Seeds) > 2 {
		opts.Seeds = opts.Seeds[:2]
	}
	return opts
}

// TestParallelMatchesSequentialFig4 is the harness's core guarantee:
// the parallel grid must be byte-identical to the sequential order, not
// just statistically equivalent, and so must the table built from it.
func TestParallelMatchesSequentialFig4(t *testing.T) {
	opts := fig4TestOptions()
	defer SetParallelism(0)

	SetParallelism(1)
	seq, err := RunFig4(32, opts)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := RunFig4(32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel fig4 rows diverge from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if a, b := Fig4Table(32, seq), Fig4Table(32, par); !reflect.DeepEqual(a, b) {
		t.Fatalf("fig4 tables diverge:\n--- sequential ---\n%+v\n--- parallel ---\n%+v", a, b)
	}
}

// TestParallelMatchesSequentialTable3 checks the validation driver the
// same way without a second set of live replays: each simulated cell of
// the rows RunTable3 gives at -parallel 4 must be the ratio of the
// stretch factors the sequential simulator gives on the same trace (the
// ones TestTable3SimGoldenRows pins), so neither the worker pool nor the
// live replays beside it move a simulated bit. The actual column comes
// from live wall-clock replays and is inherently noisy.
func TestParallelMatchesSequentialTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback replays skipped in -short mode")
	}
	rows, err := table3QuickRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(table3Variants) {
		t.Fatalf("%d rows, want %d", len(rows), len(table3Variants))
	}
	ms, alts := table3QuickSims(t)
	for i, r := range rows {
		if r.Trace != "KSU" || r.Lambda != 20 || r.Versus != table3Variants[i].key {
			t.Fatalf("row %d is %s λ=%g vs %s, want KSU λ=20 vs %s", i, r.Trace, r.Lambda, r.Versus, table3Variants[i].key)
		}
		if want := (alts[i]/ms - 1) * 100; r.SimPct != want {
			t.Fatalf("row %d (%s) simulated %% = %v, sequential simulator gives %v", i, r.Versus, r.SimPct, want)
		}
	}
}

// TestCachedTraceReusesEntry verifies the per-config singleflight: the
// same GenConfig must come back as the same (shared, read-only) trace.
func TestCachedTraceReusesEntry(t *testing.T) {
	cfg := trace.GenConfig{Profile: trace.KSU, Lambda: 5, Requests: 200, MuH: MuH, R: 1.0 / 40, Seed: 99}
	tr1, wt1, err := cachedTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, wt2, err := cachedTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Fatal("identical GenConfig regenerated the trace instead of hitting the cache")
	}
	if len(wt1) == 0 || !reflect.DeepEqual(wt1, wt2) {
		t.Fatal("cached w table mismatch")
	}
	other := cfg
	other.Seed = 100
	tr3, _, err := cachedTrace(other)
	if err != nil {
		t.Fatal(err)
	}
	if tr3 == tr1 {
		t.Fatal("different seed returned the same cached trace")
	}
}

// TestSetParallelismClampsNegative keeps the knob well-defined for any
// flag input.
func TestSetParallelismClampsNegative(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(-3)
	if got := Parallelism(); got != 0 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-3), want 0", got)
	}
}
