package trace

import (
	"math"
	"slices"
	"testing"
)

func genArrival(t *testing.T, cfg GenConfig) *Trace {
	t.Helper()
	cfg.Profile = KSU
	cfg.MuH = 1200
	cfg.R = 1.0 / 40
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// windowCounts counts arrivals in consecutive windows of the given
// width from time 0.
func windowCounts(tr *Trace, window float64) []float64 {
	if len(tr.Requests) == 0 {
		return nil
	}
	end := tr.Requests[len(tr.Requests)-1].Arrival
	counts := make([]float64, int(end/window)+1)
	for _, r := range tr.Requests {
		counts[int(r.Arrival/window)]++
	}
	return counts
}

// indexOfDispersion measures burstiness: counts per window, var/mean.
// Poisson ≈ 1; MMPP substantially above 1.
func indexOfDispersion(tr *Trace, window float64) float64 {
	counts := windowCounts(tr, window)
	if len(counts) == 0 {
		return 0
	}
	mean := 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	varc := 0.0
	for _, c := range counts {
		varc += (c - mean) * (c - mean)
	}
	varc /= float64(len(counts))
	if mean == 0 {
		return 0
	}
	return varc / mean
}

func TestMMPPPreservesMeanRate(t *testing.T) {
	// Short sojourns give enough burst/normal cycles for the long-run
	// rate to converge within the sample.
	tr := genArrival(t, GenConfig{
		Lambda: 200, Requests: 40000, Seed: 1,
		Arrival: MMPPArrivals, BurstFactor: 4,
		BurstDuration: 1, NormalDuration: 4,
	})
	c := Characterize(tr)
	rate := 1 / c.MeanInterval
	if math.Abs(rate-200) > 20 {
		t.Fatalf("MMPP mean rate = %.1f, want ~200", rate)
	}
}

func TestMMPPPeakExceedsMean(t *testing.T) {
	tr := genArrival(t, GenConfig{
		Lambda: 300, Requests: 20000, Seed: 9,
		Arrival: MMPPArrivals, BurstFactor: 4,
		BurstDuration: 2, NormalDuration: 6,
	})
	peak := slices.Max(windowCounts(tr, 1))
	mean := 1 / Characterize(tr).MeanInterval
	if peak < 1.5*mean {
		t.Fatalf("MMPP peak %v not well above mean %v", peak, mean)
	}
}

func TestMMPPIsBurstier(t *testing.T) {
	poisson := genArrival(t, GenConfig{Lambda: 200, Requests: 30000, Seed: 2})
	mmpp := genArrival(t, GenConfig{
		Lambda: 200, Requests: 30000, Seed: 2,
		Arrival: MMPPArrivals, BurstFactor: 4,
		BurstDuration: 2, NormalDuration: 8,
	})
	iodP := indexOfDispersion(poisson, 1.0)
	iodM := indexOfDispersion(mmpp, 1.0)
	if iodP > 2 {
		t.Fatalf("Poisson dispersion %v implausibly high", iodP)
	}
	if iodM < 2*iodP {
		t.Fatalf("MMPP dispersion %v not clearly above Poisson %v", iodM, iodP)
	}
}

func TestDiurnalPreservesMeanRate(t *testing.T) {
	tr := genArrival(t, GenConfig{
		Lambda: 200, Requests: 40000, Seed: 3,
		Arrival: DiurnalArrivals, DiurnalPeriod: 30,
	})
	c := Characterize(tr)
	rate := 1 / c.MeanInterval
	if math.Abs(rate-200) > 25 {
		t.Fatalf("diurnal mean rate = %.1f, want ~200", rate)
	}
}

func TestDiurnalModulates(t *testing.T) {
	tr := genArrival(t, GenConfig{
		Lambda: 300, Requests: 30000, Seed: 4,
		Arrival: DiurnalArrivals, DiurnalPeriod: 40,
	})
	// Rate at the sine peak (t≈10 mod 40) must exceed the trough
	// (t≈30 mod 40).
	var peak, trough int
	for _, r := range tr.Requests {
		phase := math.Mod(r.Arrival, 40)
		if phase >= 5 && phase < 15 {
			peak++
		} else if phase >= 25 && phase < 35 {
			trough++
		}
	}
	if peak <= trough {
		t.Fatalf("diurnal peak count %d not above trough %d", peak, trough)
	}
}

func TestArrivalModelValidation(t *testing.T) {
	bad := GenConfig{Profile: KSU, Lambda: 100, Requests: 10, MuH: 1200, R: 0.025,
		Arrival: MMPPArrivals, BurstFactor: -1}
	if _, err := Generate(bad); err == nil {
		t.Fatal("negative burst factor accepted")
	}
	bad2 := GenConfig{Profile: KSU, Lambda: 100, Requests: 10, MuH: 1200, R: 0.025,
		Arrival: DiurnalArrivals, DiurnalPeriod: -5}
	if _, err := Generate(bad2); err == nil {
		t.Fatal("negative diurnal period accepted")
	}
}

func TestArrivalModelsSortedAndValid(t *testing.T) {
	for _, model := range []ArrivalModel{PoissonArrivals, MMPPArrivals, DiurnalArrivals} {
		tr := genArrival(t, GenConfig{Lambda: 150, Requests: 5000, Seed: 5, Arrival: model})
		if err := tr.Validate(); err != nil {
			t.Fatalf("model %d: %v", model, err)
		}
	}
}
