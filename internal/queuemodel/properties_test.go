package queuemodel

import (
	"math"
	"testing"
	"testing/quick"
)

// Cross-cutting property tests of the analytic model.

// S_M and S_F grow monotonically with offered load.
func TestStretchMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for _, load := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := NewParams(32, 1, 0.4, 1200, 1.0/40)
		lambda := load / p.FlatUtilization()
		p = NewParams(32, lambda, 0.4, 1200, 1.0/40)
		sf := p.FlatStretch()
		if sf <= prev {
			t.Fatalf("flat stretch not monotone: %v after %v at load %v", sf, prev, load)
		}
		prev = sf
	}
}

// The optimal plan's improvement grows with load (the architecture
// matters more when resources are scarce).
func TestPlanImprovementGrowsWithLoad(t *testing.T) {
	prev := -1.0
	for _, load := range []float64{0.3, 0.5, 0.7, 0.85} {
		p := NewParams(32, 1, 0.4, 1200, 1.0/40)
		lambda := load / p.FlatUtilization()
		p = NewParams(32, lambda, 0.4, 1200, 1.0/40)
		plan, err := p.OptimalPlan()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Improvement() < prev {
			t.Fatalf("improvement fell to %v at load %v (was %v)", plan.Improvement(), load, prev)
		}
		prev = plan.Improvement()
	}
}

// The optimal master count shrinks as CGI work grows (more capacity must
// serve the dynamic tier).
func TestOptimalMastersShrinkWithCGIWeight(t *testing.T) {
	prev := 33
	for _, invR := range []float64{10, 20, 40, 80, 160} {
		r := 1 / invR
		p := NewParams(32, 1, 0.4, 1200, r)
		lambda := 0.6 / p.FlatUtilization()
		p = NewParams(32, lambda, 0.4, 1200, r)
		plan, err := p.OptimalPlan()
		if err != nil {
			t.Fatal(err)
		}
		if plan.M > prev {
			t.Fatalf("masters grew to %d at 1/r=%v (was %d)", plan.M, invR, prev)
		}
		prev = plan.M
	}
}

// Quadratic coefficients: g(θ) evaluated through the returned A, B, C
// must match a direct evaluation of the cleared inequality at arbitrary
// interior points.
func TestQuadraticEvaluationProperty(t *testing.T) {
	p := paperParams(0.4, 1.0/40.0)
	f := func(mRaw, thetaRaw uint8) bool {
		m := 2 + int(mRaw)%29
		theta := float64(thetaRaw) / 255
		A, B, C := p.Quadratic(m)
		got := A*theta*theta + B*theta + C

		a := p.A()
		rho1 := p.MasterUtilization(m, theta)
		rho2 := p.SlaveUtilization(m, theta)
		rhoF := p.FlatUtilization()
		want := (1+a*theta)*(1-rho2)*(1-rhoF) +
			a*(1-theta)*(1-rho1)*(1-rhoF) -
			(1+a)*(1-rho1)*(1-rho2)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Theta2 stays within [0, 1] for every feasible plan on the grid.
func TestPlanThetaRangesOnGrid(t *testing.T) {
	for _, a := range []float64{0.126, 0.41, 0.795} {
		for _, invR := range []float64{20, 40, 80, 160} {
			p := NewParams(32, 1, a, 1200, 1/invR)
			lambda := 0.65 / p.FlatUtilization()
			p = NewParams(32, lambda, a, 1200, 1/invR)
			plan, err := p.OptimalPlan()
			if err != nil {
				t.Fatalf("a=%v 1/r=%v: %v", a, invR, err)
			}
			if plan.Theta < 0 || plan.Theta > 1 {
				t.Fatalf("θ=%v out of range", plan.Theta)
			}
			if plan.Theta2 < 0 || plan.Theta2 > 1 {
				t.Fatalf("θ₂=%v out of range at a=%v 1/r=%v m=%d", plan.Theta2, a, invR, plan.M)
			}
		}
	}
}
