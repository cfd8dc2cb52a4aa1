package core

import (
	"testing"

	"msweb/internal/trace"
)

// busyWindow is a one-second window in which every arrival completed:
// statics of 1 ms and dynamics of 50 ms of demand.
func busyWindow(statics, dynamics int64) Window {
	var w Window
	for i := int64(0); i < statics; i++ {
		w.Arrive(trace.Static)
		w.Done(trace.Static, 0.001)
	}
	for i := int64(0); i < dynamics; i++ {
		w.Arrive(trace.Dynamic)
		w.Done(trace.Dynamic, 0.05)
	}
	return w
}

// The law on four nodes with two masters: Theorem 1's m, its clamps,
// the demotion hold and the hold's doubling and halving. The period's
// action is a move of m, as at the live call site.
func TestPlannerLaw(t *testing.T) {
	const period, now = 0.5, 10.0
	cases := []struct {
		name     string
		w        Window
		p        int
		before   Planner
		wantM    int
		wantHeld bool
		after    Planner
	}{
		{"promotion opens the first hold", busyWindow(800, 20), 4,
			Planner{}, 3, false, Planner{hold: 4, until: 11}},
		{"demotion opens the first hold", busyWindow(200, 40), 4,
			Planner{}, 1, false, Planner{hold: 4, until: 11}},
		{"saturated window keeps m, quiet period halves the hold", busyWindow(200, 80), 4,
			Planner{hold: 8}, 2, false, Planner{hold: 4}},
		{"demotion inside the hold is deferred", busyWindow(200, 40), 4,
			Planner{hold: 4, until: 10.5}, 2, true, Planner{hold: 2, until: 10.5}},
		{"promotion passes the hold and doubles it", busyWindow(800, 20), 4,
			Planner{hold: 4, until: 10.5}, 3, true, Planner{hold: 8, until: 12}},
		{"the hold stops doubling at its cap", busyWindow(800, 20), 4,
			Planner{hold: 32}, 3, false, Planner{hold: 32, until: 26}},
		{"quiet period does not halve below the first hold", busyWindow(200, 20), 4,
			Planner{hold: 2}, 2, false, Planner{hold: 2}},
		{"MaxM clamps a promotion", busyWindow(800, 20), 4,
			Planner{MaxM: 2}, 2, false, Planner{MaxM: 2, hold: 2}},
		{"MinM clamps a demotion", busyWindow(200, 40), 4,
			Planner{MinM: 2}, 2, false, Planner{MinM: 2, hold: 2}},
		{"the slave floor clamps m on a small fleet", busyWindow(800, 20), 2,
			Planner{}, 1, false, Planner{hold: 4, until: 11}},
	}
	for _, tc := range cases {
		r, ok := tc.w.Rates(1)
		if !ok {
			t.Fatalf("%s: window has no signal", tc.name)
		}
		r.P = tc.p
		pl := tc.before
		m, held := pl.Plan(r, 2, now)
		if m != tc.wantM || held != tc.wantHeld {
			t.Errorf("%s: Plan = (%d, %v), want (%d, %v)", tc.name, m, held, tc.wantM, tc.wantHeld)
		}
		pl.Settle(m != 2, now, period)
		if pl != tc.after {
			t.Errorf("%s: planner after Settle %+v, want %+v", tc.name, pl, tc.after)
		}
	}
}

// λ comes from arrivals, μ from completions: a window in which half the
// dynamics were shed has the unshed window's rates.
func TestWindowRates(t *testing.T) {
	if _, ok := (Window{ArrivedH: 1, ArrivedC: 1, DoneH: 1, DemandH: 1}).Rates(1); ok {
		t.Fatal("a window without a dynamic completion has no signal")
	}
	if _, ok := (Window{ArrivedH: 1, ArrivedC: 1, DoneH: 1, DoneC: 1, DemandH: 1}).Rates(1); ok {
		t.Fatal("a window whose dynamics declared no demand has no signal")
	}
	w := Window{ArrivedH: 200, ArrivedC: 40, DoneH: 200, DoneC: 20, DemandH: 0.25, DemandC: 1}
	r, _ := w.Rates(2)
	if r.LambdaH != 100 || r.LambdaC != 20 || r.MuH != 800 || r.MuC != 20 {
		t.Fatalf("rates %+v, want λ = (100, 20) and μ = (800, 20)", r)
	}
}

// Fleet sizes for offered erlangs over targetRho, inflates a backlog by
// arrivals over completions up to maxPressure, and stays between MinM
// plus the slave floor and the node count.
func TestPlannerFleet(t *testing.T) {
	w := busyWindow(600, 17) // 0.6 + 0.85 erlangs
	r, _ := w.Rates(1)
	var pl Planner
	if got := pl.Fleet(w, r, 64); got != 3 {
		t.Errorf("fleet %d, want int(1.45 / 0.6) + 1 = 3", got)
	}
	if got := (&Planner{MinM: 4}).Fleet(w, r, 64); got != 5 {
		t.Errorf("fleet %d, want MinM + slave floor = 5", got)
	}
	backlog := w
	backlog.ArrivedH *= 10 // pressure 6017/617, capped at 4
	br, _ := backlog.Rates(1)
	if got := pl.Fleet(backlog, br, 64); got != 46 {
		t.Errorf("fleet %d, want int(6.85 × 4 / 0.6) + 1 = 46", got)
	}
	if got := pl.Fleet(backlog, br, 16); got != 16 {
		t.Errorf("fleet %d, want the 16 nodes there are", got)
	}
}

// One control period of the planner allocates nothing.
func TestPlannerAllocatesNothing(t *testing.T) {
	w := busyWindow(800, 20)
	var pl Planner
	now := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		r, _ := w.Rates(1)
		r.P = pl.Fleet(w, r, 8)
		m, _ := pl.Plan(r, 2, now)
		pl.Settle(m != 2, now, 1)
		now++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per period, want 0", allocs)
	}
}
