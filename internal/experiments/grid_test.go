package experiments

import (
	"reflect"
	"testing"

	"msweb/internal/trace"
)

// fig4TestOptions trims the quick sizing further so the determinism
// comparison runs two full grids in a few seconds.
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
// just statistically equivalent.
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
// same way. Only the simulated column is compared: the actual column
// comes from live wall-clock replays and is inherently noisy.
func TestParallelMatchesSequentialTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback replays skipped in -short mode")
	}
	o := QuickTable3Options()
	o.Duration = 3
	o.TimeScale = 0.25
	defer SetParallelism(0)

	SetParallelism(1)
	seq, err := RunTable3(o)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := RunTable3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts diverge: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Trace != p.Trace || s.Lambda != p.Lambda || s.Versus != p.Versus {
			t.Fatalf("row %d identity diverges: %+v vs %+v", i, s, p)
		}
		if s.SimPct != p.SimPct {
			t.Fatalf("row %d simulated %% diverges: %v vs %v", i, s.SimPct, p.SimPct)
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
