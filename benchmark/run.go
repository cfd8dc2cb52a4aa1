package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// procStart is as close to process start as the harness can see; the
// first set-up sample of a run is timed from it.
var procStart = time.Now()

// options is the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	windows  int
	trace    bool
	smoke    bool
	out      string
}

// shape is how a run's seconds are spent. A live run is split over
// several cluster lifetimes (segments); a traced run spends half its
// seconds on the workload, with every other window traced, and the rest
// on the probes.
type shape struct {
	segments   int
	windows    int // per segment
	window     time.Duration
	warmup     time.Duration
	setupReps  int // set-up samples per run, segments included
	simSeconds float64
	size       simSize
}

func (o options) shape() shape {
	s := shape{segments: 3, warmup: time.Second, setupReps: 21, simSeconds: o.seconds, size: simFull}
	windows := o.windows
	if o.trace {
		// One segment, traced and untraced windows alternating.
		s.segments, windows, s.simSeconds = 1, 8, o.seconds/2
		s.window = time.Duration(o.seconds / 16 * float64(time.Second))
	} else {
		if windows < s.segments {
			s.segments = 1
		}
		windows -= windows % s.segments
		s.window = time.Duration(o.seconds / float64(windows) * float64(time.Second))
	}
	s.windows = windows / s.segments
	if o.smoke {
		s.warmup, s.setupReps, s.size = 100*time.Millisecond, s.segments+1, simSmoke
	}
	return s
}

// metricValue is one reported metric: the value the driver reads, and
// for metrics taken over windows or passes the spread behind it.
type metricValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	*Spread
}

// tailValue is the highest percentile the sample supports.
type tailValue struct {
	Percentile float64 `json:"percentile"`
	ValueUs    float64 `json:"value_us"`
	Samples    int64   `json:"samples"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Valid     bool                   `json:"valid"`
	Invalid   string                 `json:"invalid,omitempty"`
	Checks    []check                `json:"checks"`
	Digest    string                 `json:"digest,omitempty"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   int                    `json:"samples"`
	Dropped   int                    `json:"dropped_windows"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Tail      *tailValue             `json:"latency_tail,omitempty"`
	Residuals []string               `json:"residuals,omitempty"`
	SelfTimes []selfTime             `json:"self_times,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

func (r *workloadResult) correct() bool { return r.Valid && allPassed(r.Checks) }

func (r *workloadResult) invalidate(format string, a ...any) {
	r.Valid = false
	if r.Invalid == "" {
		r.Invalid = fmt.Sprintf(format, a...)
	}
}

// sample is one window's (or pass's) end-to-end values.
type sample struct {
	reqPerS, p50us, p99us, okShare float64
	traced                         bool
}

// setEndToEnd fills the end-to-end metrics from the kept samples.
func (r *workloadResult) setEndToEnd(samples []sample, setups []float64) {
	col := func(f func(sample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	cols := map[string][]float64{
		"req_per_s":      col(func(s sample) float64 { return s.reqPerS }),
		"latency_p50_us": col(func(s sample) float64 { return s.p50us }),
		"latency_p99_us": col(func(s sample) float64 { return s.p99us }),
		"ok_share":       col(func(s sample) float64 { return s.okShare }),
		"setup_s":        setups,
		"peak_rss_mb":    {peakRSSMB()},
	}
	r.EndToEnd = map[string]metricValue{}
	for _, m := range endToEnd {
		sp := summarise(cols[m.Name])
		r.EndToEnd[m.Name] = metricValue{Unit: m.Unit, Value: sp.Median, Spread: &sp}
	}
	r.Samples = len(samples)
}

// setPerLayer stores the per-layer values under their declared units;
// a declared metric nobody measured reads 0.
func (r *workloadResult) setPerLayer(values map[string]float64) {
	r.PerLayer = map[string]metricValue{}
	for _, m := range perLayer {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.PerLayer[m.Name] = metricValue{Unit: m.Unit, Value: v}
	}
}

// dropStalled removes windows whose throughput fell below half the
// median — a stalled box, not the program — and reports how many went.
func dropStalled(samples []sample) (kept []sample, dropped int) {
	rps := make([]float64, len(samples))
	for i, s := range samples {
		rps[i] = s.reqPerS
	}
	floor := median(rps) / 2
	for _, s := range samples {
		if s.reqPerS < floor {
			dropped++
			continue
		}
		kept = append(kept, s)
	}
	return kept, dropped
}

// clientCount is min(nproc, 4) client goroutines per CPU share asked
// for: each owns exactly one connection.
func clientCount(perCPU int) int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n * perCPU
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceOverhead is 1 − traced/untraced median throughput over the
// samples of one traced run.
func traceOverhead(samples []sample) float64 {
	var traced, untraced []float64
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s.reqPerS)
		} else {
			untraced = append(untraced, s.reqPerS)
		}
	}
	return 1 - ratio(median(traced), median(untraced))
}

// procLayer adds the process costs between two readings, over done
// completed requests, to the per-layer values.
func procLayer(v map[string]float64, p0, p1 procSample, done float64, goroutines int) {
	wall := p1.at.Sub(p0.at).Seconds()
	cpu := p1.cpuS - p0.cpuS
	v["proc.cpu_s_per_kreq"] = ratio(cpu, done/1000)
	v["proc.cpu_util"] = ratio(cpu, wall*float64(runtime.NumCPU()))
	v["proc.allocs_per_req"] = ratio(float64(p1.mallocs-p0.mallocs), done)
	v["proc.gc_pause_share"] = ratio(float64(p1.pauseNs-p0.pauseNs)/1e9, wall)
	v["proc.goroutines_peak"] = float64(goroutines)
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*workloadResult, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := &workloadResult{Workload: o.workload, Seed: o.seed, Traced: o.trace, Valid: true}
	var layer map[string]float64
	var err error
	switch {
	case liveWorkloads[o.workload].nodes > 0:
		layer, err = runLive(res, o, tr)
	case simBuilders[o.workload] != nil:
		layer, err = runSim(res, o, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}
	ps, err := runProbes(o.seed, o.smoke, tr)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range ps.values {
		layer[k] = v
	}
	layer["fail_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	layer["trace.spans"] = float64(len(tr.spans))
	res.Residuals = ps.arithmetic
	res.SelfTimes = selfTimes(tr.spans)
	res.setPerLayer(layer)
	return res, writeTrace(o, res, tr.spans)
}

// runLive runs a live workload's segments and fills res; it returns the
// workload-side per-layer values of a traced run.
func runLive(res *workloadResult, o options, tr *tracer) (map[string]float64, error) {
	w := liveWorkloads[o.workload]
	sh := o.shape()
	cfg := liveSegmentConfig{
		seed: o.seed, clients: clientCount(w.clientsPerCPU), warmup: sh.warmup,
		window: sh.window, windows: sh.windows, procStart: procStart, tr: tr,
	}
	var samples []sample
	var setups []float64
	var last *liveSegment
	tail := newHist()
	want := 0
	for si := 0; si < sh.setupReps; si++ {
		if si >= sh.segments {
			cfg.windows = 0 // a set-up sample without load
		}
		runtime.GC() // the previous lifetime's garbage is not this one's set-up cost
		seg, err := runLiveSegment(w, cfg)
		if err != nil {
			return nil, err
		}
		cfg.procStart = time.Time{}
		setups = append(setups, seg.setupS)
		res.Checks = append(res.Checks, seg.checks...)
		if cfg.windows == 0 {
			continue
		}
		last = seg
		for wi, v := range seg.windowValues() {
			want++
			res.Attempted += v.sent
			res.Failed += v.sent - v.ok
			samples = append(samples, sample{
				reqPerS: v.reqPerS, p50us: v.p50us, p99us: v.p99us,
				okShare: ratio(float64(v.ok), float64(v.sent)),
				traced:  o.trace && tracedWindow(wi),
			})
			tail.merge(v.lat)
		}
	}
	kept, dropped := dropStalled(samples)
	res.Dropped = dropped
	if len(kept)*4 < want*3 {
		res.invalidate("%d of %d windows stalled (throughput below half the median)", dropped, want)
	}
	if res.Attempted == 0 {
		res.invalidate("no request completed inside a window")
	}
	res.setEndToEnd(kept, setups)
	if p := tailPercentile(tail.n); p > 0 {
		res.Tail = &tailValue{Percentile: p * 100, ValueUs: tail.quantile(p) / 1e3, Samples: tail.n}
	}
	if !o.trace {
		return nil, nil
	}
	return liveLayer(w, last, kept), nil
}

// liveLayer derives the live plane's per-layer values from the traced
// segment: accessor deltas over the measured windows, /metrics scraped
// before and after, and process costs.
func liveLayer(w liveWorkload, seg *liveSegment, samples []sample) map[string]float64 {
	b, e := seg.before, seg.end
	served := float64(e.served - b.served)
	wall := seg.proc1.at.Sub(seg.proc0.at).Seconds()
	v := map[string]float64{
		"httpcluster.master.accepted":     float64(e.accepted - b.accepted),
		"httpcluster.master.served":       served,
		"httpcluster.master.shed":         float64(e.shed - b.shed),
		"httpcluster.master.exhausted":    float64(e.exhausted - b.exhausted),
		"httpcluster.master.retries":      float64(e.retries - b.retries),
		"httpcluster.master.hedges":       float64(e.hedges - b.hedges),
		"httpcluster.master.failovers":    float64(e.failovers - b.failovers),
		"httpcluster.master.remote_share": ratio(float64(e.slaveExecuted-b.slaveExecuted), float64(e.cgi-b.cgi)),
		"trace_overhead_share":            traceOverhead(samples),
	}
	procLayer(v, seg.proc0, seg.proc1, served, seg.gorPeak)

	// Useful placements over attempts: how evenly the slaves were used.
	var per []float64
	for id := w.masters; id < w.nodes; id++ {
		per = append(per, float64(e.executed[id]-b.executed[id]))
	}
	v["httpcluster.node.executed_cv"] = coefficientOfVariation(per)

	var p50 []float64
	for _, s := range samples {
		p50 = append(p50, s.p50us)
	}

	if seg.pagesBefore == nil || seg.pagesAfter == nil {
		return v
	}
	delta := func(name string) float64 {
		return sumPages(seg.pagesAfter, name) - sumPages(seg.pagesBefore, name)
	}
	refresh := liveLoadRefresh.Seconds()
	gossip := 4 * refresh // httpcluster's default GossipEvery
	masters := seg.pagesAfter[:w.masters]
	slaves := seg.pagesAfter[w.masters:]
	v["httpcluster.master.piggyback_per_req"] = ratio(delta("msweb_master_piggyback_total"), served)
	v["httpcluster.master.poll_skipped_share"] = ratio(delta("msweb_master_poll_skipped_total"), wall/refresh*float64(len(slaves)))
	v["httpcluster.master.frame_dials"] = delta("msweb_master_frame_dials_total")
	v["httpcluster.master.placement_local"] = delta("msweb_master_placement_local_total")
	v["httpcluster.master.placement_spilled"] = delta("msweb_master_placement_spilled_total")
	v["httpcluster.master.shard_summaries"] = delta("msweb_master_shard_summaries_total")
	var stale, age, epoch, respUs float64
	for _, p := range masters {
		stale += p.meanNonNegative("msweb_master_view_staleness_seconds") / float64(len(masters))
		age += p.meanNonNegative("msweb_master_shard_summary_age_seconds") / float64(len(masters))
		epoch = math.Max(epoch, p.sum("msweb_master_epoch"))
		// The exporter reports unscaled seconds; the wall-clock time
		// inside serveReq is that times the workload's time scale.
		respUs += p.histQuantile("msweb_master_response_seconds", 0.5) * w.timeScale * 1e6 / float64(len(masters))
	}
	v["httpcluster.master.view_staleness_refreshes"] = stale / refresh
	v["httpcluster.master.shard_summary_age_gossips"] = age / gossip
	v["httpcluster.master.epoch"] = epoch
	v["httpcluster.master.response_share"] = ratio(respUs, median(p50))
	var busy float64
	for _, p := range slaves {
		busy += p.sum("msweb_node_cpu_busy_fraction") / float64(len(slaves))
	}
	v["httpcluster.node.cpu_busy_fraction"] = busy
	return v
}

func coefficientOfVariation(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var mean float64
	for _, x := range vals {
		mean += x / float64(len(vals))
	}
	var ss float64
	for _, x := range vals {
		ss += (x - mean) * (x - mean) / float64(len(vals))
	}
	return ratio(math.Sqrt(ss), mean)
}

// runSim runs a simulator workload's passes and fills res; it returns
// the workload-side per-layer values of a traced run.
func runSim(res *workloadResult, o options, tr *tracer) (map[string]float64, error) {
	sh := o.shape()
	build := simBuilders[o.workload]

	// Set-up: generate every cell's trace and w table, several times.
	var cells []simCell
	var setups []float64
	for rep := 0; rep < sh.setupReps; rep++ {
		cells = nil
		runtime.GC() // the previous repetition's traces are not this one's set-up cost
		t0 := time.Now()
		if rep == 0 {
			t0 = procStart
		}
		sp := tr.begin("setup.generate", 0, 0)
		var err error
		cells, err = build(o.seed, sh.size, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var requests int
	for _, c := range cells {
		requests += len(c.tr.Requests)
	}

	var samples []sample
	var first *simPass
	var events uint64
	var hostS float64
	p0 := sampleProc()
	deadline := time.Now().Add(time.Duration(sh.simSeconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		traced := o.trace && tracedWindow(pass)
		var ptr *tracer
		if traced {
			ptr = tr
		}
		sp := ptr.begin("sim.pass", 0, int64(pass+1))
		p, err := runSimPass(cells, ptr, sp)
		ptr.end(sp)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p
			res.Digest = p.digest
		} else if p.digest != first.digest {
			res.Checks = append(res.Checks, failed("every pass produces the same digest",
				fmt.Sprintf("pass %d: %s != %s", pass+1, p.digest, first.digest)))
		}
		res.Attempted += p.requests
		res.Failed += p.shed
		events += p.events
		hostS += p.hostS
		samples = append(samples, sample{
			reqPerS: float64(p.requests-p.shed) / p.hostS,
			// The simulator has no per-request host latency; its latency
			// rows are host µs per simulated request of the pass's median
			// and slowest (nearest-rank p99) cell.
			p50us: median(p.cellUsPerReq), p99us: quantileOf(p.cellUsPerReq, 1),
			okShare: ratio(float64(p.requests-p.shed), float64(p.requests)), traced: traced,
		})
	}
	p1 := sampleProc()
	res.Checks = append(res.Checks, passed(fmt.Sprintf("every pass produces the same digest (%d passes, first: %s)", len(samples), first.digest)))
	res.Notes = append(res.Notes, fmt.Sprintf("%d passes of %d cells, %d simulated requests per pass", len(samples), len(cells), requests))
	minPasses := sh.size.minPasses
	if o.trace && minPasses > 4 {
		minPasses = 4 // half the seconds; two traced and two untraced passes carry the overhead ratio
	}
	if len(samples) < minPasses {
		res.invalidate("%d passes in %.0f s; at least %d are required (shrink the cell)", len(samples), sh.simSeconds, minPasses)
	}
	res.setEndToEnd(samples, setups)
	if !o.trace {
		return nil, nil
	}

	done := float64(res.Attempted - res.Failed)
	f := first
	v := map[string]float64{
		"sim_stretch_factor":                ratio(f.stretchSum, float64(f.counted)),
		"sim_slo_attainment":                ratio(f.sloSum, float64(f.sloN)),
		"sim_node_hours":                    f.nodeHours,
		"cluster.events_per_req":            ratio(float64(f.events), float64(f.requests)),
		"cluster.events_per_s":              ratio(float64(events), hostS),
		"cluster.allocs_per_req":            ratio(float64(p1.mallocs-p0.mallocs), done),
		"cluster.shard.polled_per_tick":     f.polledPerTick,
		"cluster.shard.summary_age_gossips": ratio(f.summaryAgeS, f.gossipS),
		"cluster.shard.spilled":             float64(f.spilled),
		"cluster.autoscale.promotions":      float64(f.promotions),
		"cluster.autoscale.demotions":       float64(f.demotions),
		"cluster.remote_dynamic_share":      ratio(float64(f.remoteDyn), float64(f.totalDyn)),
		"trace_overhead_share":              traceOverhead(samples),
	}
	procLayer(v, p0, p1, done, runtime.NumGoroutine())
	return v, nil
}
