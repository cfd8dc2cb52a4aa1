package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func genTestTrace(t *testing.T, p Profile, n int, lambda float64) *Trace {
	t.Helper()
	tr, err := Generate(GenConfig{
		Profile: p, Lambda: lambda, Requests: n, MuH: 1200, R: 1.0 / 40, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Generate(%s): %v", p.Name, err)
	}
	return tr
}

func TestClassString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatalf("class strings: %v %v", Static, Dynamic)
	}
	if Class(7).String() != "Class(7)" {
		t.Fatalf("unknown class string: %v", Class(7))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTestTrace(t, UCB, 1000, 100)
	b := genTestTrace(t, UCB, 1000, 100)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same-seed traces differ in length")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("same-seed traces differ at record %d", i)
		}
	}
}

func TestGeneratedTraceValid(t *testing.T) {
	for _, p := range Profiles() {
		tr := genTestTrace(t, p, 5000, 200)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestGeneratedMixMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		tr := genTestTrace(t, p, 20000, 500)
		c := Characterize(tr)
		if math.Abs(c.PctCGI-100*p.DynamicFrac) > 1.5 {
			t.Fatalf("%s: generated %%CGI = %.2f, profile wants %.2f", p.Name, c.PctCGI, 100*p.DynamicFrac)
		}
	}
}

func TestGeneratedArrivalRate(t *testing.T) {
	tr := genTestTrace(t, KSU, 20000, 500)
	c := Characterize(tr)
	if math.Abs(c.MeanInterval-1.0/500) > 0.0002 {
		t.Fatalf("mean interval = %v, want ~0.002", c.MeanInterval)
	}
}

func TestGeneratedDemandMeans(t *testing.T) {
	tr := genTestTrace(t, ADL, 40000, 500)
	c := Characterize(tr)
	wantH := 1.0 / 1200
	wantC := 40.0 / 1200
	if math.Abs(c.MeanDemandH-wantH) > 0.1*wantH {
		t.Fatalf("mean static demand = %v, want ~%v", c.MeanDemandH, wantH)
	}
	if math.Abs(c.MeanDemandC-wantC) > 0.1*wantC {
		t.Fatalf("mean dynamic demand = %v, want ~%v", c.MeanDemandC, wantC)
	}
	if math.Abs(c.R()-1.0/40) > 0.005 {
		t.Fatalf("implied r = %v, want ~1/40", c.R())
	}
}

func TestGeneratedCPUWeightsPerScript(t *testing.T) {
	tr := genTestTrace(t, UCB, 20000, 500)
	// All requests of the same script share one ground-truth w.
	perScript := map[int]float64{}
	for _, r := range tr.Requests {
		if r.Class != Dynamic {
			continue
		}
		if w, ok := perScript[r.Script]; ok {
			if w != r.CPUWeight {
				t.Fatalf("script %d has inconsistent weights %v and %v", r.Script, w, r.CPUWeight)
			}
		} else {
			perScript[r.Script] = r.CPUWeight
		}
		// UCB's replacement scripts are CPU spinners: w near 0.95.
		if r.CPUWeight < 0.8 {
			t.Fatalf("UCB script %d weight %v implausibly low", r.Script, r.CPUWeight)
		}
	}
	if len(perScript) == 0 || len(perScript) > UCB.NumScripts {
		t.Fatalf("saw %d scripts, profile has %d", len(perScript), UCB.NumScripts)
	}
}

func TestGenerateValidation(t *testing.T) {
	base := GenConfig{Profile: UCB, Lambda: 100, Requests: 10, MuH: 1200, R: 0.025}
	bad := base
	bad.Lambda = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("lambda=0 accepted")
	}
	bad = base
	bad.Requests = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("requests=0 accepted")
	}
	bad = base
	bad.R = 2
	if _, err := Generate(bad); err == nil {
		t.Fatal("r=2 accepted")
	}
	bad = base
	bad.Profile.NumScripts = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("no-script profile accepted")
	}
}

func TestDeterministicDemandModel(t *testing.T) {
	tr, err := Generate(GenConfig{
		Profile: KSU, Lambda: 100, Requests: 1000, MuH: 1200, R: 1.0 / 40,
		Demand: DeterministicDemand, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		want := 1.0 / 1200
		if r.Class == Dynamic {
			want = 40.0 / 1200
		}
		if !approx(r.Demand, want, 1e-12) {
			t.Fatalf("deterministic demand %v, want %v", r.Demand, want)
		}
	}
}

func TestParetoDemandMean(t *testing.T) {
	tr, err := Generate(GenConfig{
		Profile: KSU, Lambda: 100, Requests: 60000, MuH: 1200, R: 1.0 / 40,
		Demand: ParetoDemand, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(tr)
	wantC := 40.0 / 1200
	if math.Abs(c.MeanDemandC-wantC) > 0.25*wantC {
		t.Fatalf("Pareto dynamic demand mean %v, want ~%v (±25%%)", c.MeanDemandC, wantC)
	}
}

func TestCharacterizeEmptyAndAllStatic(t *testing.T) {
	empty := &Trace{Name: "empty"}
	c := Characterize(empty)
	if c.Requests != 0 || c.PctCGI != 0 {
		t.Fatalf("empty characteristics: %+v", c)
	}
	allDyn := &Trace{Name: "dyn", Requests: []Request{
		{Arrival: 0, Class: Dynamic, Demand: 1},
		{Arrival: 1, Class: Dynamic, Demand: 1},
	}}
	cd := Characterize(allDyn)
	if !math.IsInf(cd.ArrivalRatio, 1) {
		t.Fatalf("all-dynamic arrival ratio = %v, want +Inf", cd.ArrivalRatio)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bad := &Trace{Name: "bad", Requests: []Request{
		{Arrival: 5}, {Arrival: 3},
	}}
	if bad.Validate() == nil {
		t.Fatal("out-of-order arrivals accepted")
	}
	bad2 := &Trace{Name: "bad2", Requests: []Request{{Arrival: 0, Demand: -1}}}
	if bad2.Validate() == nil {
		t.Fatal("negative demand accepted")
	}
	bad3 := &Trace{Name: "bad3", Requests: []Request{{Arrival: 0, CPUWeight: 1.5}}}
	if bad3.Validate() == nil {
		t.Fatal("cpu weight > 1 accepted")
	}
	bad4 := &Trace{Name: "bad4", Requests: []Request{{Arrival: 0, Class: Class(9)}}}
	if bad4.Validate() == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDuration(t *testing.T) {
	tr := &Trace{Requests: []Request{{Arrival: 3}, {Arrival: 10}}}
	if got := tr.Duration(); got != 7 {
		t.Fatalf("Duration = %v, want 7", got)
	}
	if got := (&Trace{}).Duration(); got != 0 {
		t.Fatalf("empty Duration = %v", got)
	}
}

func TestProfileArrivalRatio(t *testing.T) {
	// Table 2 / Figure 5: a ranges roughly 0.12 (UCB) to 0.78 (ADL).
	if r := UCB.ArrivalRatio(); !approx(r, 0.126, 0.01) {
		t.Fatalf("UCB a = %v", r)
	}
	if r := KSU.ArrivalRatio(); !approx(r, 0.41, 0.01) {
		t.Fatalf("KSU a = %v", r)
	}
	if r := ADL.ArrivalRatio(); !approx(r, 0.795, 0.01) {
		t.Fatalf("ADL a = %v", r)
	}
	all := Profile{DynamicFrac: 1}
	if !math.IsInf(all.ArrivalRatio(), 1) {
		t.Fatal("all-dynamic profile ratio not +Inf")
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("ADL"); !ok || p.Name != "ADL" {
		t.Fatalf("ProfileByName(ADL) = %+v, %v", p, ok)
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile found")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table1 returned %d rows, want 4", len(rows))
	}
	wantOrder := []string{"DEC", "UCB", "KSU", "ADL"}
	for i, row := range rows {
		if row.Name != wantOrder[i] {
			t.Fatalf("row %d = %s, want %s", i, row.Name, wantOrder[i])
		}
		p, _ := ProfileByName(row.Name)
		if math.Abs(row.PctCGI-100*p.DynamicFrac) > 3 {
			t.Fatalf("%s: %%CGI %.1f too far from published %.1f", row.Name, row.PctCGI, 100*p.DynamicFrac)
		}
		if math.Abs(row.MeanInterval-p.LogInterval) > 0.15*p.LogInterval {
			t.Fatalf("%s: interval %.3f too far from published %.3f", row.Name, row.MeanInterval, p.LogInterval)
		}
	}
}

// Property: generated arrivals are always sorted and demands positive,
// for any profile mix and seed.
func TestGenerateInvariantsProperty(t *testing.T) {
	f := func(seed int64, dynFrac uint8) bool {
		p := UCB
		p.DynamicFrac = float64(dynFrac%101) / 100
		tr, err := Generate(GenConfig{
			Profile: p, Lambda: 200, Requests: 300, MuH: 1200, R: 1.0 / 40, Seed: seed,
		})
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	cases := []*Trace{
		{Name: "nanArr", Requests: []Request{{Arrival: nan}}},
		{Name: "infArr", Requests: []Request{{Arrival: math.Inf(1)}}},
		{Name: "nanDem", Requests: []Request{{Arrival: 0, Demand: nan}}},
		{Name: "infDem", Requests: []Request{{Arrival: 0, Demand: math.Inf(1)}}},
		{Name: "nanW", Requests: []Request{{Arrival: 0, CPUWeight: nan}}},
	}
	for _, tr := range cases {
		if tr.Validate() == nil {
			t.Fatalf("%s: non-finite field accepted", tr.Name)
		}
	}
}
