package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestForkDeterminism(t *testing.T) {
	a := New(7).Fork(3)
	b := New(7).Fork(3)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("forked streams with identical lineage diverged at draw %d", i)
		}
	}
}

// TestForkChildrenPinned pins the first two draws of Fork's children for
// one seed. Every trace and simulated schedule descends from these
// derivations, so a change here moves every golden at once.
func TestForkChildrenPinned(t *testing.T) {
	want := [][2]int64{
		{2139450146634436220, 2769961279771748261},
		{6988250790956245674, 4094105578875123008},
		{7593637363364145829, 8712860080988326718},
		{8322561745260480856, 2472410415047603071},
		{3145967718905492506, 2084941735121072309},
		{4877745212501522003, 2632149270378624630},
	}
	s := New(20261016)
	for i, w := range want {
		c := s.Fork(int64(i + 1))
		if got := [2]int64{c.Int63(), c.Int63()}; got != w {
			t.Errorf("Fork(%d) draws %v, want %v", i+1, got, w)
		}
	}
}

// ForkSeed advances the parent exactly as Fork does, and New of its
// result is the stream Fork returns.
func TestForkSeedMatchesFork(t *testing.T) {
	a, b := New(3), New(3)
	for label := int64(1); label <= 6; label++ {
		fa, fb := a.Fork(label), New(b.ForkSeed(label))
		for i := 0; i < 10; i++ {
			if x, y := fa.Int63(), fb.Int63(); x != y {
				t.Fatalf("label %d draw %d: Fork %d, New(ForkSeed) %d", label, i, x, y)
			}
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("ForkSeed left the parent in a different state than Fork")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Fork(1)
	b := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling substreams produced %d identical draws out of 100", same)
	}
}

func TestExpMean(t *testing.T) {
	s := New(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exponential mean = %.4f, want 2.5 ± 0.05", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := New(1)
	if got := s.Exp(0); got != 0 {
		t.Fatalf("Exp(0) = %v, want 0", got)
	}
	if got := s.Exp(-1); got != 0 {
		t.Fatalf("Exp(-1) = %v, want 0", got)
	}
}

func TestNormalTruncation(t *testing.T) {
	s := New(4)
	for i := 0; i < 10000; i++ {
		if v := s.Normal(0.1, 10); v < 0 {
			t.Fatalf("Normal produced negative value %v", v)
		}
	}
}

func TestBoundedParetoWithinBounds(t *testing.T) {
	s := New(6)
	f := func(seed int64) bool {
		st := New(seed)
		for i := 0; i < 100; i++ {
			v := st.BoundedPareto(1, 100, 1.2)
			if v < 1-1e-9 || v > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = s
}

func TestBoundedParetoDegenerate(t *testing.T) {
	s := New(6)
	if v := s.BoundedPareto(5, 3, 1.2); v != 5 {
		t.Fatalf("BoundedPareto with hi<lo = %v, want lo", v)
	}
	if v := s.BoundedPareto(0, 3, 1.2); v != 0 {
		t.Fatalf("BoundedPareto with lo=0 = %v, want 0", v)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(12)
	for i := 0; i < 1000; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestLognormalPositive(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		if v := s.Lognormal(0, 1); v <= 0 {
			t.Fatalf("Lognormal produced non-positive %v", v)
		}
	}
}

func TestBoundedParetoMeanShape(t *testing.T) {
	// For bounded Pareto the mass concentrates near lo for alpha > 1;
	// the empirical mean must sit strictly between lo and hi and below
	// the midpoint for a strongly skewed shape.
	s := New(15)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.BoundedPareto(1, 1000, 1.5)
	}
	mean := sum / n
	if mean <= 1 || mean >= 1000 {
		t.Fatalf("bounded Pareto mean %v escaped bounds", mean)
	}
	if mean > 100 {
		t.Fatalf("bounded Pareto(alpha=1.5) mean %v not skewed toward lo", mean)
	}
}
