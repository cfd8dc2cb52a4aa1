package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"msweb/internal/trace"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testView(masters, slaves []int) *View {
	p := len(masters) + len(slaves)
	v := &View{Masters: masters, Slaves: slaves, Load: make([]Load, p)}
	for i := range v.Load {
		v.Load[i] = Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	}
	return v
}

func TestRSRCBasic(t *testing.T) {
	// Idle node: cost = w + (1-w) = 1.
	if got := RSRC(0.7, 1, 1); !approx(got, 1, 1e-12) {
		t.Fatalf("idle RSRC = %v, want 1", got)
	}
	// CPU-bound request cares about CPU idle.
	busy := RSRC(0.9, 0.1, 1)
	idle := RSRC(0.9, 1, 1)
	if busy <= idle {
		t.Fatalf("busy CPU not penalized: %v <= %v", busy, idle)
	}
	// I/O-bound request cares about disk.
	if RSRC(0.1, 1, 0.1) <= RSRC(0.1, 1, 1) {
		t.Fatal("busy disk not penalized for I/O-bound request")
	}
}

func TestRSRCFloorsAndClamps(t *testing.T) {
	if got := RSRC(0.5, 0, 0); math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("zero idle ratios produced %v", got)
	}
	if got, want := RSRC(0.5, -1, -1), RSRC(0.5, MinIdleFloor, MinIdleFloor); got != want {
		t.Fatalf("negative ratios not floored: %v vs %v", got, want)
	}
	if got, want := RSRC(2, 1, 1), RSRC(1, 1, 1); got != want {
		t.Fatalf("w>1 not clamped: %v vs %v", got, want)
	}
	if got, want := RSRC(-2, 1, 1), RSRC(0, 1, 1); got != want {
		t.Fatalf("w<0 not clamped: %v vs %v", got, want)
	}
}

// Property: RSRC is monotone non-increasing in both idle ratios.
func TestRSRCMonotoneProperty(t *testing.T) {
	f := func(wRaw, aRaw, bRaw uint8) bool {
		w := float64(wRaw%101) / 100
		lo := float64(aRaw%100) / 100
		hi := lo + float64(bRaw%50)/100
		if hi > 1 {
			hi = 1
		}
		return RSRC(w, hi, 0.5) <= RSRC(w, lo, 0.5)+1e-9 &&
			RSRC(w, 0.5, hi) <= RSRC(w, 0.5, lo)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWTable(t *testing.T) {
	tbl := WTable{3: 0.9}
	if got := tbl.W(3); got != 0.9 {
		t.Fatalf("W(3) = %v", got)
	}
	if got := tbl.W(4); got != DefaultW {
		t.Fatalf("W(missing) = %v, want default", got)
	}
	var nilTbl WTable
	if got := nilTbl.W(1); got != DefaultW {
		t.Fatalf("nil table W = %v", got)
	}
}

func TestSampleW(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Class: trace.Dynamic, Script: 1, CPUWeight: 0.8},
		{Class: trace.Dynamic, Script: 1, CPUWeight: 0.9},
		{Class: trace.Dynamic, Script: 2, CPUWeight: 0.1},
		{Class: trace.Static, Script: 0, CPUWeight: 0.3}, // ignored
	}}
	tbl := SampleW(tr, 16)
	if got := tbl.W(1); !approx(got, 0.85, 1e-12) {
		t.Fatalf("sampled w(1) = %v, want 0.85", got)
	}
	if got := tbl.W(2); !approx(got, 0.1, 1e-12) {
		t.Fatalf("sampled w(2) = %v, want 0.1", got)
	}
	if _, ok := tbl[0]; ok {
		t.Fatal("static requests leaked into the w table")
	}
}

// sampleWMap is the full scan with no early stop: the reference SampleW
// must match exactly.
func sampleWMap(tr *trace.Trace, maxPerScript int) WTable {
	if maxPerScript <= 0 {
		maxPerScript = 16
	}
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, r := range tr.Requests {
		if r.Class != trace.Dynamic {
			continue
		}
		if counts[r.Script] >= maxPerScript {
			continue
		}
		sums[r.Script] += r.CPUWeight
		counts[r.Script]++
	}
	t := make(WTable, len(sums))
	for s, sum := range sums {
		t[s] = sum / float64(counts[s])
	}
	return t
}

func sameWTable(a, b WTable) bool {
	if len(a) != len(b) {
		return false
	}
	for s, w := range a {
		if v, ok := b[s]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// SampleW equals the full scan bit for bit on every profile's traces at
// several sizes, where it stops early at the trace's script count, on
// the same traces with the count unknown, and on odd script numbers.
func TestSampleWMatchesMapVersion(t *testing.T) {
	for _, p := range []trace.Profile{trace.UCB, trace.KSU, trace.ADL, trace.DEC} {
		for seed, n := range map[int64]int{1: 40, 2: 700, 3: 5000, 4: 30000} {
			tr, err := trace.Generate(trace.GenConfig{
				Profile: p, Lambda: 500, Requests: n, MuH: 1200, R: 1.0 / 40, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Scripts != p.NumScripts {
				t.Fatalf("%s: Generate records %d scripts, profile has %d", p.Name, tr.Scripts, p.NumScripts)
			}
			unknown := &trace.Trace{Requests: tr.Requests}
			for _, limit := range []int{0, 1, 16, 1 << 20} {
				want := sampleWMap(tr, limit)
				if got := SampleW(tr, limit); !sameWTable(got, want) {
					t.Fatalf("%s %d requests limit %d: SampleW %v, map version %v", p.Name, n, limit, got, want)
				}
				if got := SampleW(unknown, limit); !sameWTable(got, want) {
					t.Fatalf("%s %d requests limit %d, Scripts 0: SampleW %v, map version %v", p.Name, n, limit, got, want)
				}
			}
		}
	}
	// A converted access log numbers scripts 1..997; a trace file may
	// carry any int32.
	var reqs []trace.Request
	for i, s := range []int{0, 1, 997, 4095, 4096, -1, -7, 1 << 30, 4096, 3, -1, 1 << 30} {
		for k := 0; k < 20; k++ {
			w := float64((i*31+k*17)%100) / 100
			reqs = append(reqs, trace.Request{Class: trace.Dynamic, Script: s, CPUWeight: w})
			reqs = append(reqs, trace.Request{Class: trace.Static, Script: s + 1, CPUWeight: 0.3})
		}
	}
	tr := &trace.Trace{Requests: reqs}
	for _, limit := range []int{1, 16, 100} {
		if got, want := SampleW(tr, limit), sampleWMap(tr, limit); !sameWTable(got, want) {
			t.Fatalf("odd scripts, limit %d: SampleW %v, map version %v", limit, got, want)
		}
	}
}

func TestSampleWLimitsPerScript(t *testing.T) {
	var reqs []trace.Request
	// First 4 instances have w=0.2, later ones 0.9: only the off-line
	// prefix must be sampled.
	for i := 0; i < 4; i++ {
		reqs = append(reqs, trace.Request{Class: trace.Dynamic, Script: 1, CPUWeight: 0.2})
	}
	for i := 0; i < 100; i++ {
		reqs = append(reqs, trace.Request{Class: trace.Dynamic, Script: 1, CPUWeight: 0.9})
	}
	tbl := SampleW(&trace.Trace{Requests: reqs}, 4)
	if got := tbl.W(1); !approx(got, 0.2, 1e-12) {
		t.Fatalf("sampled w = %v, want prefix mean 0.2", got)
	}
}

func TestMSStaticStaysAtMaster(t *testing.T) {
	v := testView([]int{0, 1}, []int{2, 3})
	ms := NewMS(nil, 1)
	for master := 0; master < 2; master++ {
		if got := ms.Place(Request{Class: trace.Static}, master, v); got != master {
			t.Fatalf("static placed at %d, want receiving master %d", got, master)
		}
	}
}

func TestMSDynamicPrefersIdleSlave(t *testing.T) {
	v := testView([]int{0}, []int{1, 2})
	v.Load[1] = Load{CPUIdle: 0.05, DiskAvail: 0.9, Speed: 1} // busy CPU
	v.Load[2] = Load{CPUIdle: 0.95, DiskAvail: 0.9, Speed: 1} // idle
	// Booking disabled: this test checks the pure RSRC preference, not
	// the between-refresh spreading.
	ms := NewPipeline(PipelineConfig{
		Name: "M/S", Seed: 1, WTable: WTable{7: 0.95},
		PlacementImpact: NoPlacementImpact,
	})
	ms.Tick(0, v)
	counts := map[int]int{}
	for i := 0; i < 50; i++ {
		counts[ms.Place(Request{Class: trace.Dynamic, Script: 7}, 0, v)]++
	}
	if counts[1] > 0 {
		t.Fatalf("CPU-bound dynamics sent to busy-CPU slave %d times", counts[1])
	}
}

func TestMSSamplingMatters(t *testing.T) {
	// Node 1: busy CPU, free disk. Node 2: free CPU, busy disk.
	// An I/O-bound script (w=0.1) must prefer node 1 with sampling and
	// may not distinguish correctly without it.
	v := testView([]int{0}, []int{1, 2})
	v.Load[1] = Load{CPUIdle: 0.1, DiskAvail: 0.9, Speed: 1}
	v.Load[2] = Load{CPUIdle: 0.9, DiskAvail: 0.1, Speed: 1}
	tbl := WTable{5: 0.1}

	ms := NewMS(tbl, 1)
	if got := ms.Place(Request{Class: trace.Dynamic, Script: 5}, 0, v); got != 1 {
		t.Fatalf("with sampling: placed at %d, want 1 (free disk)", got)
	}

	// Without sampling w=0.5 and both nodes cost the same; the choice
	// is random — verify both targets occur.
	msns := NewMS(tbl, 1, WithoutSampling(), WithName("M/S-ns"))
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		counts[msns.Place(Request{Class: trace.Dynamic, Script: 5}, 0, v)]++
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("without sampling expected tie-broken spread, got %v", counts)
	}
	if msns.Name() != "M/S-ns" {
		t.Fatalf("name = %q", msns.Name())
	}
}

func TestMSReservationCapsMasterAdmission(t *testing.T) {
	v := testView([]int{0}, []int{1, 2, 3})
	// Master massively idle, slaves busy: without reservation everything
	// would pile onto the master.
	v.Load[0] = Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	for _, id := range v.Slaves {
		v.Load[id] = Load{CPUIdle: 0.2, DiskAvail: 0.2, Speed: 1}
	}
	ms := NewMS(nil, 1)
	ms.Tick(0, v) // initializes θ to m/p = 0.25
	toMaster := 0
	const n = 400
	for i := 0; i < n; i++ {
		if got := ms.Place(Request{Class: trace.Dynamic, Script: 1}, 0, v); got == 0 {
			toMaster++
		}
	}
	frac := float64(toMaster) / n
	if frac > 0.30 {
		t.Fatalf("reservation failed: %.0f%% of dynamics at master, cap ~25%%", frac*100)
	}
	if toMaster == 0 {
		t.Fatal("reservation admitted nothing at an idle master")
	}

	// Without reservation (and without the in-view booking charge, which
	// would make the master look progressively busier between refreshes)
	// the idle master absorbs everything. Rebuild the view: the M/S run
	// above booked its placements into the shared one.
	v = testView([]int{0}, []int{1, 2, 3})
	for _, id := range v.Slaves {
		v.Load[id] = Load{CPUIdle: 0.2, DiskAvail: 0.2, Speed: 1}
	}
	msnr := NewPipeline(PipelineConfig{
		Name:      "M/S-nr",
		Admission: NewTheta2Admission(DefaultReservationConfig()).ObserveOnly(),
		Seed:      1, PlacementImpact: NoPlacementImpact,
	})
	msnr.Tick(0, v)
	toMaster = 0
	for i := 0; i < n; i++ {
		if got := msnr.Place(Request{Class: trace.Dynamic, Script: 1}, 0, v); got == 0 {
			toMaster++
		}
	}
	if toMaster != n {
		t.Fatalf("M/S-nr sent only %d/%d dynamics to the idle master", toMaster, n)
	}
}

func TestMSWithNoSlavesActsAsMS1(t *testing.T) {
	v := testView([]int{0, 1, 2}, nil)
	v.Load[2] = Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	v.Load[0] = Load{CPUIdle: 0.1, DiskAvail: 0.1, Speed: 1}
	v.Load[1] = Load{CPUIdle: 0.1, DiskAvail: 0.1, Speed: 1}
	ms := NewMS(nil, 1, WithName("M/S-1"))
	ms.Tick(0, v)
	if got := ms.Place(Request{Class: trace.Dynamic, Script: 1}, 0, v); got != 2 {
		t.Fatalf("M/S-1 placed at %d, want idle node 2", got)
	}
}

func TestMSHeterogeneousSpeedPreference(t *testing.T) {
	v := testView([]int{0}, []int{1, 2})
	v.Load[1] = Load{CPUIdle: 0.5, DiskAvail: 0.5, Speed: 1}
	v.Load[2] = Load{CPUIdle: 0.5, DiskAvail: 0.5, Speed: 4} // 4x CPU
	ms := NewMS(WTable{9: 0.95}, 1)
	ms.Tick(0, v)
	if got := ms.Place(Request{Class: trace.Dynamic, Script: 9}, 0, v); got != 2 {
		t.Fatalf("CPU-bound dynamic placed at %d, want fast node 2", got)
	}
}

func TestFlatPolicy(t *testing.T) {
	v := testView([]int{0, 1, 2, 3}, nil)
	f := NewFlat()
	if f.Name() != "Flat" {
		t.Fatalf("name = %q", f.Name())
	}
	for master := 0; master < 4; master++ {
		for _, class := range []trace.Class{trace.Static, trace.Dynamic} {
			if got := f.Place(Request{Class: class}, master, v); got != master {
				t.Fatalf("flat placed at %d, want %d", got, master)
			}
		}
	}
	f.ObserveCompletion(trace.Static, 1, 1)
	f.Tick(0, v)
}

// Property: every policy always returns a valid node id.
func TestPoliciesReturnValidNodesProperty(t *testing.T) {
	policies := []Policy{
		NewMS(nil, 1), NewMS(nil, 2, WithoutReservation()),
		NewMS(nil, 3, WithoutSampling()), NewFlat(),
	}
	f := func(masterRaw uint8, dyn bool, idleRaw []uint8) bool {
		v := testView([]int{0, 1}, []int{2, 3, 4})
		for i := range v.Load {
			if i < len(idleRaw) {
				v.Load[i].CPUIdle = float64(idleRaw[i]%101) / 100
				v.Load[i].DiskAvail = float64(idleRaw[i]%97) / 96
			}
		}
		master := int(masterRaw) % 2
		class := trace.Static
		if dyn {
			class = trace.Dynamic
		}
		for _, p := range policies {
			p.Tick(0, v)
			got := p.Place(Request{Class: class, Script: 1}, master, v)
			if got < 0 || got >= v.P() {
				return false
			}
			if class == trace.Static && got != master {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMSPlacementExplanation(t *testing.T) {
	v := testView([]int{0}, []int{1, 2})
	v.Load[1] = Load{CPUIdle: 0.05, DiskAvail: 0.9, Speed: 1}
	v.Load[2] = Load{CPUIdle: 0.95, DiskAvail: 0.9, Speed: 1}
	ms := NewPipeline(PipelineConfig{
		Name: "M/S", Seed: 1, WTable: WTable{7: 0.95},
		PlacementImpact: NoPlacementImpact,
	})
	ms.Tick(0, v)

	var exp PlacementExplainer = ms // compile-time interface check
	node := ms.Place(Request{Class: trace.Dynamic, Script: 7}, 0, v)
	pl := exp.LastPlacement()
	if pl.Node != node {
		t.Fatalf("explained node %d, placed %d", pl.Node, node)
	}
	if pl.W != 0.95 {
		t.Fatalf("explained w %v, want 0.95", pl.W)
	}
	wantCost := RSRC(0.95, v.Load[node].CPUIdle, v.Load[node].DiskAvail)
	if !approx(pl.RSRC, wantCost, 1e-9) {
		t.Fatalf("explained cost %v, want %v", pl.RSRC, wantCost)
	}

	// Static path: the explanation is the receiving master, cost 0.
	if got := ms.Place(Request{Class: trace.Static}, 0, v); got != 0 {
		t.Fatalf("static placed at %d", got)
	}
	if pl := ms.LastPlacement(); pl.Node != 0 || pl.RSRC != 0 || pl.MasterAdmitted {
		t.Fatalf("static placement explanation = %+v", pl)
	}
}

func TestMSAdaptiveStats(t *testing.T) {
	v := testView([]int{0}, []int{1})
	ms := NewMS(nil, 1)
	var st AdaptiveStats = ms // compile-time interface check
	ms.Tick(0, v)
	theta := st.ThetaLimit()
	if theta <= 0 || theta > 1 {
		t.Fatalf("theta %v outside (0,1]", theta)
	}
	if a := st.ArrivalRatio(); a <= 0 {
		t.Fatalf("arrival ratio %v, want positive fallback", a)
	}
	if r := st.ServiceRatio(); r <= 0 {
		t.Fatalf("service ratio %v, want positive fallback", r)
	}
}

func TestLoadJSONRoundTrip(t *testing.T) {
	in := Load{CPUIdle: 0.25, DiskAvail: 0.75, CPUQueue: 3, DiskQueue: 1, Speed: 2}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cpu_idle":0.25`, `"disk_avail":0.75`, `"cpu_queue":3`, `"disk_queue":1`, `"speed":2`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("marshaled load %s missing %s", b, key)
		}
	}
	var out Load
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}
