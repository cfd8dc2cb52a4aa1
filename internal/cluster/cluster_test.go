package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/queuemodel"
	"msweb/internal/sim"
	"msweb/internal/trace"
)

func genTrace(t *testing.T, p trace.Profile, lambda float64, n int, r float64, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GenConfig{
		Profile: p, Lambda: lambda, Requests: n, MuH: 1200, R: r, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(8, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Masters = 0 },
		func(c *Config) { c.Masters = 99 },
		func(c *Config) { c.LoadRefresh = 0 },
		func(c *Config) { c.WarmupFraction = 1 },
		func(c *Config) { c.OS.CPUQuantum = 0 },
		// A non-finite value fails every field that takes one: a NaN
		// or infinite period would panic Simulate, and a NaN gossip
		// period would fall back to the default.
		func(c *Config) { c.LoadRefresh = math.NaN() },
		func(c *Config) { c.LoadRefresh = math.Inf(1) },
		func(c *Config) { c.Autoscale = &Autoscale{Period: math.NaN()} },
		func(c *Config) { c.Autoscale = &Autoscale{Period: math.Inf(1)} },
		func(c *Config) { c.GossipEvery = math.NaN() },
		func(c *Config) { c.GossipEvery = math.Inf(1) },
		func(c *Config) { c.WarmupFraction = math.NaN() },
		func(c *Config) { c.SLOResponse = math.NaN() },
		func(c *Config) { c.SLOResponse = math.Inf(1) },
	}
	for i, mutate := range cases {
		c := DefaultConfig(8, 2)
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestLightLoadStretchNearOne(t *testing.T) {
	// A nearly idle cluster must not stretch anything appreciably.
	tr := genTrace(t, trace.KSU, 20, 400, 1.0/40, 1)
	res, err := Simulate(DefaultConfig(4, 2), core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Fork (3 ms) and remote latency (1 ms) are part of response but
	// not demand, so idle stretch sits slightly above 1.
	if res.StretchFactor < 1 || res.StretchFactor > 2.5 {
		t.Fatalf("idle-cluster stretch = %v, want ≈ 1", res.StretchFactor)
	}
	if res.Summary.Count != 400 {
		t.Fatalf("counted %d samples, want 400", res.Summary.Count)
	}
}

// Cross-validation promised in DESIGN.md: a single-node, CPU-only,
// exponential workload approximates an M/M/1 processor-sharing queue,
// so the measured stretch must be near 1/(1−ρ).
func TestSingleNodeMatchesMM1(t *testing.T) {
	profile := trace.Profile{
		Name: "mm1", DynamicFrac: 1.0, CPUWeight: 0.99, CPUWeightSD: 0,
		MeanHTMLSize: 1000, MeanCGISize: 1000, NumScripts: 1, MemPagesMean: 0,
	}
	// All-dynamic, CPU-bound: μ_c = r·μ_h = 60/s. λ = 42 → ρ = 0.7.
	// Deterministic demands: PS response is insensitive to the size
	// distribution, and round-robin over equal-size jobs approximates
	// PS, whereas the MLFQ treats exponential sizes as feedback (LAS)
	// scheduling, which has a different slowdown profile.
	tr, err := trace.Generate(trace.GenConfig{
		Profile: profile, Lambda: 42, Requests: 12000, MuH: 1200, R: 1.0 / 20, Seed: 7,
		Demand: trace.DeterministicDemand,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(quantum float64) float64 {
		cfg := DefaultConfig(1, 1)
		cfg.OS.ForkOverhead = 0 // isolate queueing from constant overheads
		cfg.OS.ContextSwitch = 0
		cfg.OS.CPUQuantum = quantum
		cfg.WarmupFraction = 0.1
		res, err := Simulate(cfg, core.NewFlat(), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.StretchFactor
	}
	// The MLFQ is a feedback discipline, so it brackets the PS
	// prediction 1/(1−ρ): with a quantum comparable to the job size it
	// leans FCFS (stretch below PS); with a fine quantum it leans LAS
	// (stretch above PS for deterministic sizes). Both must stay in the
	// same regime as the analytic value — this is the promised
	// simulator-vs-queueing-model cross-check.
	ps := 1 / (1 - 0.7) // ≈ 3.33
	coarse := run(0.010)
	fine := run(0.001)
	if coarse > ps+0.4 || coarse < 1.5 {
		t.Fatalf("coarse-quantum stretch %v outside (1.5, PS+0.4=%v)", coarse, ps+0.4)
	}
	if fine < ps-0.4 || fine > 2.5*ps {
		t.Fatalf("fine-quantum stretch %v outside (PS-0.4=%v, 2.5·PS)", fine, ps-0.4)
	}
	if !(coarse <= fine) {
		t.Fatalf("quantum refinement should move FCFS→LAS: coarse=%v fine=%v", coarse, fine)
	}
}

func TestStaticsNeverLeaveMasters(t *testing.T) {
	tr := genTrace(t, trace.KSU, 300, 3000, 1.0/40, 2)
	eng := sim.NewEngine()
	cfg := DefaultConfig(6, 2)
	c, err := New(eng, cfg, core.NewMS(core.SampleW(tr, 16), 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Slaves (nodes 2..5) must have executed no static work: their
	// submissions equal dynamic placements off-master plus master ones.
	var slaveSubmitted uint64
	for i := 2; i < 6; i++ {
		slaveSubmitted += res.NodeStats[i].Submitted
	}
	slaveDyn := uint64(res.TotalDynamics) - uint64(res.MasterDynamics)
	if slaveSubmitted != slaveDyn {
		t.Fatalf("slaves ran %d jobs but only %d dynamics were placed there (statics leaked)",
			slaveSubmitted, slaveDyn)
	}
	// Every slave-executed dynamic is remote; master-executed ones may
	// or may not be (master-to-master).
	if res.RemoteDynamics < int64(slaveDyn) {
		t.Fatalf("remote count %d < slave dynamics %d", res.RemoteDynamics, slaveDyn)
	}
}

func TestReservationBoundsMasterDynamics(t *testing.T) {
	tr := genTrace(t, trace.ADL, 400, 6000, 1.0/40, 3)
	cfg := DefaultConfig(8, 2)
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDynamics == 0 {
		t.Fatal("trace had no dynamics")
	}
	frac := float64(res.MasterDynamics) / float64(res.TotalDynamics)
	// θ₂ with m/p = 0.25 is at most 0.25 + slack; the long-run placed
	// fraction must respect the cap loosely (the controller decays its
	// window, so allow slack).
	if frac > 0.4 {
		t.Fatalf("%.0f%% of dynamics ran at masters despite reservation", frac*100)
	}
}

func TestMSNrOverloadsMastersComparatively(t *testing.T) {
	tr := genTrace(t, trace.ADL, 400, 6000, 1.0/40, 3)
	cfg := DefaultConfig(8, 2)
	ms, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1, core.WithoutReservation(), core.WithName("M/S-nr")), tr)
	if err != nil {
		t.Fatal(err)
	}
	fracMS := float64(ms.MasterDynamics) / float64(ms.TotalDynamics)
	fracNR := float64(nr.MasterDynamics) / float64(nr.TotalDynamics)
	if fracNR <= fracMS {
		t.Fatalf("M/S-nr placed fewer dynamics at masters (%.2f) than M/S (%.2f)", fracNR, fracMS)
	}
}

func TestFlatUsesAllNodes(t *testing.T) {
	tr := genTrace(t, trace.UCB, 400, 4000, 1.0/40, 4)
	cfg := DefaultConfig(8, 8) // flat: every node a master
	res, err := Simulate(cfg, core.NewFlat(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.NodeStats {
		if st.Submitted == 0 {
			t.Fatalf("flat left node %d idle", i)
		}
	}
	if res.RemoteDynamics != 0 {
		t.Fatalf("flat redirected %d requests", res.RemoteDynamics)
	}
}

func TestDeterminism(t *testing.T) {
	tr := genTrace(t, trace.KSU, 300, 2000, 1.0/40, 5)
	run := func() float64 {
		res, err := Simulate(DefaultConfig(6, 2), core.NewMS(core.SampleW(tr, 16), 42), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.StretchFactor
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different stretch: %v vs %v", a, b)
	}
}

func TestWarmupDropsEarlySamples(t *testing.T) {
	tr := genTrace(t, trace.KSU, 300, 2000, 1.0/40, 6)
	cfg := DefaultConfig(6, 2)
	cfg.WarmupFraction = 0.5
	res, err := Simulate(cfg, core.NewMS(nil, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count >= 2000 || res.Summary.Count == 0 {
		t.Fatalf("warmup kept %d samples of 2000", res.Summary.Count)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	bad := &trace.Trace{Name: "bad", Requests: []trace.Request{
		{Arrival: 5}, {Arrival: 1},
	}}
	_, err := Simulate(DefaultConfig(2, 1), core.NewFlat(), bad)
	if err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestEmptyTraceRuns(t *testing.T) {
	res, err := Simulate(DefaultConfig(2, 1), core.NewFlat(), &trace.Trace{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != 0 || res.StretchFactor != 1 {
		t.Fatalf("empty run: %+v", res.Summary)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	tr := genTrace(t, trace.ADL, 500, 5000, 1.0/80, 9)
	res, err := Simulate(DefaultConfig(8, 2), core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	var submitted, completed uint64
	for _, st := range res.NodeStats {
		submitted += st.Submitted
		completed += st.Completed
	}
	if submitted != 5000 || completed != 5000 {
		t.Fatalf("conservation: submitted=%d completed=%d want 5000", submitted, completed)
	}
}

func TestSeparationBeatsMixingUnderCGILoad(t *testing.T) {
	// The core qualitative claim: for a CGI-heavy workload at moderate
	// load, M/S (separated tiers, with m chosen by Theorem 1) yields a
	// lower stretch factor than the flat architecture. A mis-sized
	// master tier saturates the slaves — choosing m is the point of
	// the paper's analytic model, so the test uses it.
	tr := genTrace(t, trace.ADL, 380, 9000, 1.0/40, 10)
	plan, err := queuemodel.NewParams(8, 380, trace.ADL.ArrivalRatio(), 1200, 1.0/40).OptimalPlan()
	if err != nil {
		t.Fatal(err)
	}
	msCfg := DefaultConfig(8, plan.M)
	msCfg.WarmupFraction = 0.1
	ms, err := Simulate(msCfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	flatCfg := DefaultConfig(8, 8)
	flatCfg.WarmupFraction = 0.1
	flat, err := Simulate(flatCfg, core.NewFlat(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if ms.StretchFactor >= flat.StretchFactor {
		t.Fatalf("M/S stretch %v not better than flat %v", ms.StretchFactor, flat.StretchFactor)
	}
}

// newClusterForTest builds an engine+cluster pair for white-box tests.
func newClusterForTest(t *testing.T, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, cfg, core.NewMS(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestNodeUtilizationReported(t *testing.T) {
	tr := genTrace(t, trace.KSU, 400, 4000, 1.0/40, 61)
	res, err := Simulate(DefaultConfig(6, 2), core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeUtilization) != 6 {
		t.Fatalf("%d utilization entries", len(res.NodeUtilization))
	}
	busyAny := false
	for i, u := range res.NodeUtilization {
		if u.CPU < 0 || u.CPU > 1 || u.Disk < 0 || u.Disk > 1 {
			t.Fatalf("node %d utilization out of range: %+v", i, u)
		}
		if u.CPU > 0.01 {
			busyAny = true
		}
	}
	if !busyAny {
		t.Fatal("no node shows CPU activity")
	}
}

// Metamorphic check: doubling both the cluster and the offered load
// keeps the stretch factor in the same regime (per-node utilization is
// invariant; only statistical multiplexing improves slightly).
func TestScaleInvariance(t *testing.T) {
	run := func(p int, lambda float64) float64 {
		tr := genTrace(t, trace.KSU, lambda, 8000, 1.0/40, 62)
		plan, err := queuemodel.NewParams(p, lambda, trace.KSU.ArrivalRatio(), 1200, 1.0/40).OptimalPlan()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(p, plan.M)
		cfg.WarmupFraction = 0.1
		res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.StretchFactor
	}
	small := run(8, 500)
	big := run(16, 1000)
	ratio := big / small
	if ratio < 0.4 || ratio > 1.6 {
		t.Fatalf("scale invariance broken: p=8 SF %v vs p=16 SF %v", small, big)
	}
}

func TestTracedRunEmitsFullLifecycles(t *testing.T) {
	tr := genTrace(t, trace.KSU, 100, 200, 1.0/40, 3)
	var buf bytes.Buffer
	jt := obs.NewJSONL(&buf)
	cfg := DefaultConfig(4, 2)
	cfg.Tracer = jt
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count == 0 {
		t.Fatal("no samples")
	}

	// Every line is JSON; requests follow arrival → decision → dispatch
	// → phases → complete, and every arrival eventually completes.
	kinds := map[int64][]string{}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Ev  string `json:"ev"`
			Req int64  `json:"req"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if ev.Req == 0 {
			t.Fatalf("line %d missing req id: %s", i, line)
		}
		kinds[ev.Req] = append(kinds[ev.Req], ev.Ev)
	}
	if len(kinds) != 200 {
		t.Fatalf("traced %d requests, want 200", len(kinds))
	}
	for req, ks := range kinds {
		if ks[0] != "arrival" {
			t.Fatalf("req %d starts with %q", req, ks[0])
		}
		if ks[len(ks)-1] != "complete" {
			t.Fatalf("req %d ends with %q", req, ks[len(ks)-1])
		}
		var sawDispatch bool
		for _, k := range ks {
			if k == "dispatch" {
				sawDispatch = true
			}
		}
		if !sawDispatch {
			t.Fatalf("req %d never dispatched: %v", req, ks)
		}
	}
}

func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	tr := genTrace(t, trace.KSU, 100, 300, 1.0/40, 5)
	run := func(traced bool) *Result {
		cfg := DefaultConfig(4, 2)
		if traced {
			cfg.Tracer = obs.NewJSONL(io.Discard)
		}
		res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.StretchFactor != traced.StretchFactor || plain.Events != traced.Events {
		t.Fatalf("tracing changed the simulation: %v/%d vs %v/%d",
			plain.StretchFactor, plain.Events, traced.StretchFactor, traced.Events)
	}
}
