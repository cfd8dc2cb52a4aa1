package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"msweb/internal/core"
	"msweb/internal/experiments"
	"msweb/internal/httpcluster"
	"msweb/internal/obs"
	"msweb/internal/policy"
	"msweb/internal/queuemodel"
	"msweb/internal/sim"
	"msweb/internal/simos"
	"msweb/internal/trace"
)

// Per-layer probes: harness-side timings around one exported call each,
// run after the workload in every traced run. A probe runs its call in
// five equal batches and reports the median batch's ns per call and the
// allocations per call over all batches (testing.AllocsPerRun's method,
// without pinning GOMAXPROCS — nothing else runs during a probe).

// probeSink keeps results alive so the compiler cannot drop a call.
var probeSink any

const probeBatches = 5

// timeProbe measures fn for roughly budget.
func timeProbe(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches and lazy set-up
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	if once <= 0 {
		once = time.Nanosecond
	}
	n := int(budget / probeBatches / once)
	if n < 1 {
		n = 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	batch := make([]float64, probeBatches)
	for b := range batch {
		t0 = time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batch[b] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	return median(batch), float64(ms1.Mallocs-ms0.Mallocs) / float64(n*probeBatches)
}

// discardRW is a reusable ResponseWriter that throws the body away, as
// the repository's bench_live_test.go does for the same handlers.
type discardRW struct {
	h    http.Header
	code int
}

func (d *discardRW) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 4)
	}
	return d.h
}
func (d *discardRW) WriteHeader(code int)        { d.code = code }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) reset() {
	d.code = 0
	for k := range d.h {
		delete(d.h, k)
	}
}

// probeSet collects the probes' values and the residuals' arithmetic.
type probeSet struct {
	values     map[string]float64
	arithmetic []string
	budget     time.Duration
	tr         *tracer
	fig4       experiments.Options
}

// run times fn under a span named after the metric and stores ns (and
// allocs, when allocsName is set).
func (ps *probeSet) run(nsName, allocsName string, perCall float64, fn func()) {
	sp := ps.tr.begin("probe."+nsName, 0, 0)
	ns, allocs := timeProbe(ps.budget, fn)
	ps.tr.end(sp)
	ps.values[nsName] = ns / perCall
	if allocsName != "" {
		ps.values[allocsName] = allocs / perCall
	}
}

// handlerProbe times one in-process request through an http.Handler.
func (ps *probeSet) handlerProbe(nsName, allocsName string, h http.Handler, target string) error {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	rw := &discardRW{}
	ps.run(nsName, allocsName, 1, func() {
		rw.reset()
		h.ServeHTTP(rw, req)
	})
	if rw.code != 0 && rw.code != http.StatusOK {
		return fmt.Errorf("%s: status %d", nsName, rw.code)
	}
	return nil
}

// runProbes measures every probe metric. smoke shrinks the budgets.
func runProbes(seed int64, smoke bool, tr *tracer) (*probeSet, error) {
	ps := &probeSet{values: map[string]float64{}, budget: 250 * time.Millisecond, tr: tr, fig4: experiments.Quick()}
	if smoke {
		ps.budget = 5 * time.Millisecond
		ps.fig4.MinRequests, ps.fig4.Duration, ps.fig4.InvRs = 300, 0.2, []float64{40}
	}
	for _, step := range []func(int64) error{
		ps.probeTraceAndCore, ps.probeEnginesAndPrimitives, ps.probeHandlers, ps.probeRoundTrips, ps.probeGrid,
	} {
		if err := step(seed); err != nil {
			return nil, err
		}
	}
	ps.residuals()
	return ps, nil
}

func (ps *probeSet) probeTraceAndCore(seed int64) error {
	const n = 20000
	gen := trace.GenConfig{Profile: trace.KSU, Lambda: 1000, Requests: n, MuH: experiments.MuH, R: 1.0 / 40, Seed: seed}
	mix, err := trace.Generate(gen)
	if err != nil {
		return err
	}
	ps.run("trace.generate_ns_per_req", "", n, func() { probeSink, _ = trace.Generate(gen) })
	ps.run("core.sample_w_ns_per_req", "", n, func() { probeSink = core.SampleW(mix, 16) })

	// Place over a 4-node view (1 master + 3 slaves), preset ms. Place
	// books its placement into the view, so the loads are reset every
	// 64 placements, as a poll round would.
	preset, err := policy.Lookup("ms")
	if err != nil {
		return err
	}
	pol := preset.Build(core.SampleW(mix, 16), seed)
	fresh := []core.Load{
		{CPUIdle: 0.9, DiskAvail: 0.9, Speed: 1}, {CPUIdle: 0.5, DiskAvail: 0.8, Speed: 1},
		{CPUIdle: 0.6, DiskAvail: 0.7, Speed: 1}, {CPUIdle: 0.4, DiskAvail: 0.9, Speed: 1},
	}
	view := core.View{Masters: []int{0}, Slaves: []int{1, 2, 3}, Load: append([]core.Load(nil), fresh...)}
	pol.Tick(0, &view)
	i := 0
	ps.run("core.place_ns", "core.place_allocs", 1, func() {
		if i++; i%64 == 0 {
			copy(view.Load, fresh)
		}
		probeSink = pol.Place(core.Request{Class: trace.Dynamic, Script: 1 + i%4}, 0, &view)
	})

	wire := core.Load{CPUIdle: 0.4375, DiskAvail: 0.8125, CPUQueue: 3, DiskQueue: 1, Speed: 1}.AppendWire(nil)
	ps.run("core.loadwire_parse_ns", "", 1, func() { probeSink, _ = core.ParseLoadWire(wire) })

	// A 64-node shard (the simulated 1024/16 fleet's), top-8 digests.
	loads := make([]core.Load, 64)
	ids := make([]int, 64)
	for id := range loads {
		ids[id] = id
		loads[id] = core.Load{CPUIdle: float64(id%13) / 13, DiskAvail: float64(id%7) / 7, CPUQueue: id % 5, Speed: 1}
	}
	var sum, parsed core.ShardSummary
	ps.run("core.shardsummary_build_ns", "", 1, func() { core.BuildShardSummary(&sum, 3, 1e9, ids, loads, 8) })
	sumWire := sum.AppendWire(nil)
	if err := core.ParseShardSummary(sumWire, &parsed); err != nil {
		return fmt.Errorf("core.ParseShardSummary: %w", err)
	}
	ps.run("core.shardsummary_parse_ns", "", 1, func() { probeSink = core.ParseShardSummary(sumWire, &parsed) })

	lambda := experiments.LambdaForRho(1024, trace.KSU.ArrivalRatio(), 1.0/40, 0.65)
	params := queuemodel.NewParams(1024, lambda, trace.KSU.ArrivalRatio(), experiments.MuH, 1.0/40)
	if _, err := params.OptimalPlan(); err != nil {
		return fmt.Errorf("queuemodel.OptimalPlan: %w", err)
	}
	ps.run("queuemodel.optimal_plan_ns", "", 1, func() { probeSink, _ = params.OptimalPlan() })
	return nil
}

func (ps *probeSet) probeEnginesAndPrimitives(int64) error {
	// Schedule→fire against a standing heap of 1024 far-future events.
	eng := sim.NewEngine()
	noop := func(any, float64) {}
	for i := 0; i < 1024; i++ {
		eng.ScheduleCall(1e12+float64(i), noop, nil, 0)
	}
	ps.run("sim.schedule_fire_ns", "sim.schedule_fire_allocs", 1, func() {
		eng.AfterCall(1e-3, noop, nil, 0)
		eng.Step()
	})

	// One CGI-like job through an otherwise idle simos node.
	neng := sim.NewEngine()
	node, err := simos.NewNode(neng, 0, simos.DefaultConfig())
	if err != nil {
		return err
	}
	done := false
	onDone := func(any, float64) { done = true }
	ps.run("simos.job_ns", "simos.job_allocs", 1, func() {
		done = false
		node.Submit(simos.Job{CPUTime: 0.027, IOTime: 0.003, MemPages: 64, Fork: true, DoneCall: onDone})
		for !done && neng.Step() {
		}
	})

	res := httpcluster.NewFastResource(time.Millisecond, time.Now())
	ps.run("httpcluster.resource.use_fast_ns", "", 1, func() { res.Use(time.Microsecond) })

	h := obs.NewHistogram()
	v := 1e-6
	ps.run("obs.histogram_observe_ns", "", 1, func() {
		if v *= 1.0001; v > 1 {
			v = 1e-6
		}
		h.Observe(v)
	})
	return nil
}

// probeHandlers drives Master.Handler and Node.Handler in-process, with
// zero demands and a master-only topology so dynamics resolve locally —
// the arrangement of the repository's bench_live_test.go.
func (ps *probeSet) probeHandlers(seed int64) error {
	m, err := httpcluster.LaunchMaster(httpcluster.NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, seed),
		TimeScale:   1e-6,
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		return err
	}
	defer m.Shutdown()
	if err := ps.handlerProbe("httpcluster.master.req_static_ns", "httpcluster.master.req_static_allocs",
		m.Handler(), "/req?class=s&demand=0&w=0.5&script=0"); err != nil {
		return err
	}
	if err := ps.handlerProbe("httpcluster.master.req_dynamic_local_ns", "httpcluster.master.req_dynamic_local_allocs",
		m.Handler(), "/req?class=d&demand=0&w=0.9&script=1"); err != nil {
		return err
	}
	n, err := httpcluster.LaunchNode(httpcluster.NodeOptions{ID: 0})
	if err != nil {
		return err
	}
	defer n.Shutdown()
	return ps.handlerProbe("httpcluster.node.exec_ns", "httpcluster.node.exec_allocs",
		n.Handler(), "/exec?demand=0&w=0.5&size=64")
}

// probeRoundTrips times single requests from one client against an
// idle frame_dynamic-shaped cluster: the latency floor of each edge.
func (ps *probeSet) probeRoundTrips(seed int64) error {
	w := liveWorkloads["frame_dynamic"]
	c, err := newLiveCluster(w, nil, seed)
	if err != nil {
		return err
	}
	defer c.Shutdown()
	base := c.MasterURLs()[0]
	fc, err := httpcluster.DialFrame(base, 5*time.Second)
	if err != nil {
		return err
	}
	defer fc.Close()
	var probeErr error
	frame := func(name string, r httpcluster.FrameRequest) {
		batch := []httpcluster.FrameRequest{r}
		ps.run(name, "", 1, func() {
			sts, err := fc.Do(batch, time.Now().Add(5*time.Second))
			if err != nil {
				probeErr = err
			} else if sts[0] != http.StatusOK {
				probeErr = fmt.Errorf("%s: status %d", name, sts[0])
			}
		})
	}
	frame("httpcluster.frame.q_roundtrip_ns", httpcluster.FrameRequest{Demand: 1 / liveMuH, W: 0.3, Idem: true})
	frame("httpcluster.frame.q_dynamic_roundtrip_ns",
		httpcluster.FrameRequest{Demand: 1 / (liveMuH * liveR), W: 0.9, Script: 1, Dynamic: true, Idem: true})

	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/req?class=s&demand=%g&w=0.3&script=0&size=1024", base, 1/liveMuH), nil)
	if err != nil {
		return err
	}
	ps.run("httpcluster.http.req_roundtrip_ns", "", 1, func() {
		resp, err := hc.Do(req)
		if err != nil {
			probeErr = err
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // a short read fails the next Do
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			probeErr = fmt.Errorf("http round trip: status %d", resp.StatusCode)
		}
	})
	return probeErr
}

// probeGrid times what an msbench user waits for: the quick Figure 4
// grid at the machine's width, and the speed-up over one worker. The
// first call fills the experiments package's trace cache, so both timed
// calls replay cached traces.
func (ps *probeSet) probeGrid(int64) error {
	prev := experiments.Parallelism()
	defer experiments.SetParallelism(prev)
	timed := func(width int) (float64, error) {
		experiments.SetParallelism(width)
		sp := ps.tr.begin(fmt.Sprintf("probe.experiments.fig4_quick(parallel=%d)", width), 0, 0)
		t0 := time.Now()
		_, err := experiments.RunFig4(32, ps.fig4)
		ps.tr.end(sp)
		return time.Since(t0).Seconds(), err
	}
	nproc := runtime.NumCPU()
	if _, err := timed(nproc); err != nil {
		return err
	}
	wide, err := timed(nproc)
	if err != nil {
		return err
	}
	one, err := timed(1)
	if err != nil {
		return err
	}
	ps.values["experiments.fig4_quick_s"] = wide
	ps.values["experiments.grid_speedup"] = one / wide
	return nil
}

// residuals derives the gaps the per-layer probes leave unexplained and
// records their arithmetic.
func (ps *probeSet) residuals() {
	v := ps.values
	static := v["httpcluster.master.req_static_ns"]
	derive := func(name, formula string, val float64) {
		v[name] = val
		ps.arithmetic = append(ps.arithmetic, fmt.Sprintf("%s = %s = %.0f ns", name, formula, val))
	}
	q, qd, hr := v["httpcluster.frame.q_roundtrip_ns"], v["httpcluster.frame.q_dynamic_roundtrip_ns"], v["httpcluster.http.req_roundtrip_ns"]
	exec, dyn := v["httpcluster.node.exec_ns"], v["httpcluster.master.req_dynamic_local_ns"]
	derive("httpcluster.edge.frame_residual_ns",
		fmt.Sprintf("q_roundtrip_ns - req_static_ns = %.0f - %.0f", q, static), q-static)
	derive("httpcluster.edge.http_residual_ns",
		fmt.Sprintf("http.req_roundtrip_ns - req_static_ns = %.0f - %.0f", hr, static), hr-static)
	derive("httpcluster.dispatch.hop_residual_ns",
		fmt.Sprintf("q_dynamic_roundtrip_ns - q_roundtrip_ns - node.exec_ns - (req_dynamic_local_ns - req_static_ns) = %.0f - %.0f - %.0f - (%.0f - %.0f)",
			qd, q, exec, dyn, static), qd-q-exec-(dyn-static))
}
