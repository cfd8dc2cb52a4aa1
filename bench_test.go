// Benchmarks regenerating every table and figure of the paper, plus
// microbenchmarks of the substrates. Each BenchmarkTableN/BenchmarkFigN
// runs the corresponding experiment end-to-end at reduced fidelity (use
// cmd/msbench for full-fidelity output); the experiment's rows are the
// same ones the paper reports.
//
// Run with: go test -bench=. -benchmem
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/experiments"
	"msweb/internal/queuemodel"
	"msweb/internal/report"
	"msweb/internal/rng"
	"msweb/internal/sim"
	"msweb/internal/simos"
	"msweb/internal/trace"
)

// ---- Paper artifacts -------------------------------------------------

func BenchmarkTable1TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(3000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkFig3Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiments.RunFig3()
		if len(curves) != 3 {
			b.Fatal("missing curves")
		}
	}
}

func BenchmarkTable2Parameters(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable2(opts)
		if len(rows) != 6 {
			b.Fatal("short table")
		}
	}
}

func benchmarkFig4(b *testing.B, p int) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		opts.Seeds = []int64{int64(i + 1)}
		rows, err := experiments.RunFig4(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig4aSimulation(b *testing.B) { benchmarkFig4(b, 32) }
func BenchmarkFig4bSimulation(b *testing.B) { benchmarkFig4(b, 128) }

func BenchmarkFig5Sensitivity(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		opts.Seeds = []int64{int64(i + 1)}
		res, err := experiments.RunFig5(32, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 12 {
			b.Fatal("short figure")
		}
	}
}

func BenchmarkTable3Validation(b *testing.B) {
	opts := experiments.QuickTable3Options()
	opts.Duration = 3
	opts.TimeScale = 0.25
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		rows, err := experiments.RunTable3(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("short table")
		}
	}
}

// ---- Ablations (design choices called out in DESIGN.md) -------------

// benchmarkPolicyStretch replays one fixed workload under a policy and
// reports the measured stretch factor as a custom metric, so ablation
// deltas are visible directly in the bench output.
func benchmarkPolicyStretch(b *testing.B, masters int, mk func(core.WTable, int64) core.Policy, tune func(*cluster.Config)) {
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 700, Requests: 8000, MuH: 1200, R: 1.0 / 40, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	wt := core.SampleW(tr, 16)
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(16, masters)
		cfg.WarmupFraction = 0.1
		if tune != nil {
			tune(&cfg)
		}
		res, err := cluster.Simulate(cfg, mk(wt, int64(i+1)), tr)
		if err != nil {
			b.Fatal(err)
		}
		sum += res.StretchFactor
	}
	b.ReportMetric(sum/float64(b.N), "stretch")
}

func BenchmarkAblationMS(b *testing.B) {
	benchmarkPolicyStretch(b, 3, func(wt core.WTable, s int64) core.Policy {
		return core.NewMS(wt, s)
	}, nil)
}

func BenchmarkAblationNoSampling(b *testing.B) {
	benchmarkPolicyStretch(b, 3, func(wt core.WTable, s int64) core.Policy {
		return core.NewMS(wt, s, core.WithoutSampling())
	}, nil)
}

func BenchmarkAblationNoReservation(b *testing.B) {
	benchmarkPolicyStretch(b, 3, func(wt core.WTable, s int64) core.Policy {
		return core.NewMS(wt, s, core.WithoutReservation())
	}, nil)
}

func BenchmarkAblationAllMasters(b *testing.B) {
	benchmarkPolicyStretch(b, 16, func(wt core.WTable, s int64) core.Policy {
		return core.NewMS(wt, s)
	}, nil)
}

func BenchmarkAblationNoBooking(b *testing.B) {
	benchmarkPolicyStretch(b, 3, func(wt core.WTable, s int64) core.Policy {
		return core.NewPipeline(core.PipelineConfig{
			Name: "M/S", WTable: wt, Seed: s,
			PlacementImpact: core.NoPlacementImpact,
		})
	}, nil)
}

func BenchmarkAblationStaleLoadInfo(b *testing.B) {
	benchmarkPolicyStretch(b, 3, func(wt core.WTable, s int64) core.Policy {
		return core.NewMS(wt, s)
	}, func(cfg *cluster.Config) { cfg.LoadRefresh = 1.0 })
}

// ---- Substrate microbenchmarks ---------------------------------------

// BenchmarkEngineScheduleFire measures the schedule→fire hot path in
// steady state. It must run at 0 allocs/op: every fired event's queue
// entry is reused by the next After call.
func BenchmarkEngineScheduleFire(b *testing.B) {
	eng := sim.NewEngine()
	eng.After(1, func() {}) // prime the queue's arena
	eng.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

// BenchmarkEngineScheduleFireProbed is the same hot path with an engine
// probe installed (the hook the observability layer uses); the probe is
// one indirect call per fired event and must not add allocations.
func BenchmarkEngineScheduleFireProbed(b *testing.B) {
	eng := sim.NewEngine()
	var fired int
	eng.SetProbe(func(sim.Time) { fired++ })
	eng.After(1, func() {}) // prime the queue's arena
	eng.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

// BenchmarkEngineFeedFire is the arrival path: b.N fed events, each
// scheduling one follow-up through the heap the way an arrival schedules
// its dispatch. The 0 allocs/op pin covers the feed as well.
func BenchmarkEngineFeedFire(b *testing.B) {
	eng := sim.NewEngine()
	noop := func(any, float64) {}
	eng.Feed(b.N+1, func(i int) sim.Time { return float64(i) }, func(any, float64) {
		eng.AfterCall(0.5, noop, nil, 0)
	}, nil)
	eng.Step() // prime the queue's arena
	eng.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.Step()
	}
}

// BenchmarkEngineHold is the classic hold model of an event set: each
// fired event schedules one successor at now plus a seeded random
// increment, so the queue stays at a fixed number of pending events
// (64, 600 — a sharded autoscaler cell's mean — and 4 096) and every op
// is one pop and one push at that size. The other engine benchmarks keep
// a single event pending, where no queue has work to do. Shapes: exp
// (exponential increments, mean 1 ms), bimodal (90 % near at ~1 ms, 10 %
// far at ~100 ms, like CPU bursts next to decay ticks), burst (every
// increment 1 ms, so the pending events share one timestamp and fire as
// an equal-time burst in seq order) and drift (exponential, the mean
// alternating between 1 ms and 10 µs every 32 768 increments, so the
// density drifts 100× at a constant queue size and only a re-measure of
// the slot width keeps up).
func BenchmarkEngineHold(b *testing.B) {
	const table = 1 << 16
	shapes := []struct {
		name string
		incr func(r *rand.Rand, i int) float64
	}{
		{"exp", func(r *rand.Rand, _ int) float64 { return 1e-3 * r.ExpFloat64() }},
		{"bimodal", func(r *rand.Rand, _ int) float64 {
			if r.Float64() < 0.9 {
				return 1e-3 * r.ExpFloat64()
			}
			return 0.1 * r.ExpFloat64()
		}},
		{"burst", func(*rand.Rand, int) float64 { return 1e-3 }},
		{"drift", func(r *rand.Rand, i int) float64 {
			if i < table/2 {
				return 1e-3 * r.ExpFloat64()
			}
			return 1e-5 * r.ExpFloat64()
		}},
	}
	for _, shape := range shapes {
		for _, pending := range []int{64, 600, 4096} {
			b.Run(fmt.Sprintf("%s/pending=%d", shape.name, pending), func(b *testing.B) {
				// Increments are drawn up front so the RNG stays out of
				// the timed loop.
				r := rand.New(rand.NewSource(1))
				incr := make([]float64, table)
				for i := range incr {
					incr[i] = shape.incr(r, i)
				}
				eng := sim.NewEngine()
				next := 0
				var hold sim.CallFunc
				hold = func(any, float64) {
					eng.AfterCall(incr[next&(len(incr)-1)], hold, nil, 0)
					next++
				}
				for i := 0; i < pending; i++ {
					hold(nil, 0)
				}
				for i := 0; i < 8*pending; i++ { // reach the steady state
					eng.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}

// BenchmarkParallelGrid runs the Figure 4 grid end-to-end at both pool
// widths; the ratio of the two is the harness speedup on this machine.
func BenchmarkParallelGrid(b *testing.B) {
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			opts := experiments.Quick()
			opts.InvRs = []float64{40}
			experiments.SetParallelism(workers)
			defer experiments.SetParallelism(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFig4(32, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) == 0 {
					b.Fatal("no rows")
				}
			}
		}
	}
	b.Run("sequential", bench(1))
	b.Run("gomaxprocs", bench(0))
}

// BenchmarkNodeJobThroughput runs one job at a time through a node.
// With the process pool, ring queues, and typed burst events this is
// 0 allocs/op after the first iteration warms the pools.
func BenchmarkNodeJobThroughput(b *testing.B) {
	eng := sim.NewEngine()
	node, err := simos.NewNode(eng, 0, simos.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	node.Submit(simos.Job{CPUTime: 0.001, IOTime: 0.002, MemPages: 4})
	eng.Run() // warm the process pool and event slab
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Submit(simos.Job{CPUTime: 0.001, IOTime: 0.002, MemPages: 4})
		eng.Run()
	}
}

// BenchmarkNodeBurstLoop is the steady-state contended-node benchmark:
// a standing mix of CPU-and-disk jobs where every completion immediately
// submits a replacement through the typed DoneCall path, so the node's
// MLFQ, disk queue, decay timer, and event heap all stay hot. The whole
// loop must report 0 allocs/op.
func BenchmarkNodeBurstLoop(b *testing.B) {
	eng := sim.NewEngine()
	node, err := simos.NewNode(eng, 0, simos.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	job := simos.Job{CPUTime: 0.004, IOTime: 0.004, MemPages: 16}
	done := 0
	job.DoneCall = func(any, float64) { done++ }
	const mix = 16 // standing multiprogramming level per iteration
	for i := 0; i < mix; i++ {
		node.Submit(job)
	}
	eng.Run() // warm the pools at full queue depth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < mix; j++ {
			node.Submit(job)
		}
		eng.Run()
	}
	if done != (b.N+1)*mix {
		b.Fatalf("completed %d jobs, want %d", done, (b.N+1)*mix)
	}
}

func BenchmarkMSPlace(b *testing.B) {
	v := &core.View{
		Masters: []int{0, 1},
		Slaves:  []int{2, 3, 4, 5, 6, 7},
		Load:    make([]core.Load, 8),
	}
	s := rng.New(1)
	for i := range v.Load {
		v.Load[i] = core.Load{CPUIdle: s.Float64(), DiskAvail: s.Float64(), Speed: 1}
	}
	ms := core.NewMS(core.WTable{1: 0.9}, 1)
	ms.Tick(0, v)
	req := core.Request{Class: trace.Dynamic, Script: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Place(req, 0, v)
	}
}

func BenchmarkOptimalPlan(b *testing.B) {
	p := queuemodel.NewParams(128, 4000, 0.41, 1200, 1.0/40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.OptimalPlan(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := trace.Generate(trace.GenConfig{
			Profile: trace.ADL, Lambda: 500, Requests: 10000,
			MuH: 1200, R: 1.0 / 40, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleW is the off-line w sampling pass over 20 000 KSU
// requests, the mix the benchmark's core.sample_w_ns_per_req probe reads.
func BenchmarkSampleW(b *testing.B) {
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 500, Requests: 20000, MuH: 1200, R: 1.0 / 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(core.SampleW(tr, 16)) == 0 {
			b.Fatal("empty w table")
		}
	}
}

func BenchmarkClusterSimulation(b *testing.B) {
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 700, Requests: 10000, MuH: 1200, R: 1.0 / 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	wt := core.SampleW(tr, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Simulate(cluster.DefaultConfig(16, 3), core.NewMS(wt, 1), tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events)/float64(res.Summary.Count+1), "events/req")
	}
}

// ---- Extension benchmarks --------------------------------------------

// BenchmarkShardedControlPlane simulates large fleets under the sharded
// control plane and reports per-master per-tick poll work as a custom
// metric. The sharded number must stay flat (≈ shard size + 1) as the
// fleet grows; an unsharded master's equivalent is the fleet size, which
// is reported alongside for the ratio.
func BenchmarkShardedControlPlane(b *testing.B) {
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 400, Requests: 2000, MuH: 1200, R: 1.0 / 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	wt := core.SampleW(tr, 16)
	for _, p := range []int{1024, 4096} {
		m := p / 64
		b.Run(fmt.Sprintf("nodes=%d", p), func(b *testing.B) {
			polled := 0.0
			for i := 0; i < b.N; i++ {
				cfg := cluster.DefaultConfig(p, m)
				cfg.Shards = m
				res, err := cluster.Simulate(cfg, core.NewMS(wt, 1), tr)
				if err != nil {
					b.Fatal(err)
				}
				polled = res.Shards.NodesPolledPerTick
			}
			b.ReportMetric(polled, "polled/tick")
			b.ReportMetric(float64(p), "global-equiv")
		})
	}
}

// BenchmarkAutoscaleChurn replays one cell of the benchmark's
// sim_sharded_autoscale workload: p = 512 under 16 shards, a diurnal KSU
// trace and the online autoscaler, whose c/µ scale-down flips dozens of
// slaves per control period — one shard-map epoch per plan, which the
// epochs metric pins.
func BenchmarkAutoscaleChurn(b *testing.B) {
	const p, shards, seconds = 512, 16, 4.0
	prof, r := trace.KSU, 1.0/40
	lambda := experiments.LambdaForRho(p, prof.ArrivalRatio(), r, 0.65) / 1.6
	tr, err := trace.Generate(trace.GenConfig{
		Profile: prof, Lambda: lambda, Requests: int(lambda * seconds),
		MuH: experiments.MuH, R: r, Seed: 2,
		Arrival: trace.DiurnalArrivals, DiurnalPeriod: seconds / 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	wt := core.SampleW(tr, 16)
	cfg := cluster.DefaultConfig(p, shards)
	cfg.WarmupFraction = 0.15
	cfg.Shards = shards
	cfg.SLOResponse = 2
	cfg.Seed = 2
	cfg.Autoscale = &cluster.Autoscale{Period: 0.5, MinM: 2, MaxM: p / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Simulate(cfg, core.NewMS(wt, 2), tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Shards.EpochChanges), "epochs")
	}
}

func BenchmarkMMPPTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := trace.Generate(trace.GenConfig{
			Profile: trace.KSU, Lambda: 500, Requests: 10000,
			MuH: 1200, R: 1.0 / 40, Seed: int64(i),
			Arrival: trace.MMPPArrivals, BurstFactor: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLFParse(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "h - - [02/Jun/1999:04:%02d:%02d -0700] \"GET /cgi-bin/q?x=%d HTTP/1.0\" 200 %d\n",
			i/60%60, i%60, i, 1000+i)
	}
	log := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := trace.ReadCLF(strings.NewReader(log), trace.CLFOptions{MuH: 1200, R: 1.0 / 40})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace.Requests) != 5000 {
			b.Fatal("short parse")
		}
	}
}

func BenchmarkReportCSV(b *testing.B) {
	tbl := &report.Table{Columns: []string{"a", "b", "c"}}
	for i := 0; i < 1000; i++ {
		tbl.AddRow(i, float64(i)*1.5, "label")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
