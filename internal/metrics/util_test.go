package metrics

import (
	"testing"
	"testing/quick"
)

func TestUtilizationBasic(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.SetBusy(0, true)
	u.SetBusy(5, false)
	if got := u.BusyFraction(10); !approx(got, 0.5, 1e-12) {
		t.Fatalf("BusyFraction = %v, want 0.5", got)
	}
}

func TestUtilizationIdleStart(t *testing.T) {
	u := NewUtilizationTracker(0)
	if got := u.BusyFraction(10); got != 0 {
		t.Fatalf("idle tracker BusyFraction = %v, want 0", got)
	}
}

func TestUtilizationZeroTime(t *testing.T) {
	u := NewUtilizationTracker(0)
	if got := u.BusyFraction(0); got != 0 {
		t.Fatalf("BusyFraction at t=0 = %v, want 0", got)
	}
}

func TestWindowSampleResets(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.SetBusy(0, true)
	u.SetBusy(2, false)
	if got := u.WindowSample(4); !approx(got, 0.5, 1e-12) {
		t.Fatalf("first window = %v, want 0.5", got)
	}
	// Next window [4, 8] fully idle.
	if got := u.WindowSample(8); got != 0 {
		t.Fatalf("second window = %v, want 0", got)
	}
	u.SetBusy(8, true)
	if got := u.WindowSample(10); !approx(got, 1, 1e-12) {
		t.Fatalf("third window = %v, want 1", got)
	}
}

func TestWindowSampleEmptyWindow(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.SetBusy(0, true)
	_ = u.WindowSample(0) // empty window while busy
	u2 := NewUtilizationTracker(0)
	if got := u2.WindowSample(0); got != 0 {
		t.Fatalf("empty idle window = %v, want 0", got)
	}
}

func TestWindowSampleBounds(t *testing.T) {
	f := func(transitions []bool) bool {
		u := NewUtilizationTracker(0)
		now := 0.0
		for _, b := range transitions {
			now += 1
			u.SetBusy(now, b)
		}
		got := u.WindowSample(now + 1)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationNonMonotonicClamps(t *testing.T) {
	u := NewUtilizationTracker(0)
	u.SetBusy(5, true)
	u.SetBusy(3, false) // time goes backwards; must not corrupt totals
	if got := u.BusyFraction(10); got < 0 || got > 1 {
		t.Fatalf("BusyFraction out of [0,1]: %v", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA claims initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first Update = %v, want 10", got)
	}
	if got := e.Update(0); !approx(got, 5, 1e-12) {
		t.Fatalf("second Update = %v, want 5", got)
	}
	if got := e.Value(); !approx(got, 5, 1e-12) {
		t.Fatalf("Value = %v, want 5", got)
	}
}

func TestEWMAInvalidAlphaDefaults(t *testing.T) {
	e := NewEWMA(0)
	e.Update(10)
	e.Update(0)
	if got := e.Value(); !approx(got, 5, 1e-12) {
		t.Fatalf("EWMA with defaulted alpha = %v, want 5", got)
	}
	e2 := NewEWMA(1.5)
	e2.Update(4)
	e2.Update(2)
	if got := e2.Value(); !approx(got, 3, 1e-12) {
		t.Fatalf("EWMA alpha>1 defaulted = %v, want 3", got)
	}
}

// Property: EWMA value always lies within the min/max of inputs.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		e := NewEWMA(0.3)
		lo, hi := 0.0, 0.0
		first := true
		for _, x := range xs {
			if x != x || x > 1e300 || x < -1e300 {
				continue
			}
			e.Update(x)
			if first {
				lo, hi = x, x
				first = false
			} else {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
		}
		if first {
			return true
		}
		v := e.Value()
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
