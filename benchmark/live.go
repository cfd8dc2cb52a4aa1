package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/policy"
	"msweb/internal/trace"
)

// Live-plane workloads: a loopback httpcluster driven closed-loop by
// min(nproc, 4) client goroutines (twice that on http_static), each
// owning one connection. A client sends its next request when the
// previous reply arrives — the callers are front-end proxies that wait
// for replies.

const (
	liveLoadRefresh = 50 * time.Millisecond
	livePolicyTick  = 100 * time.Millisecond
	// Demand calibration of the live plane (httpcluster's 110 static
	// requests/s per node, 1/r = 40), as cmd/loadgen uses.
	liveMuH = 110.0
	liveR   = 1.0 / 40
	// mixSize requests are generated per segment; each client walks the
	// mix from its own offset and wraps.
	mixSize = 16384
	// One request in traceSample carries spans in a traced window.
	traceSample = 64
)

// liveWorkload describes one live workload. timeScale is fixed per
// workload so that the virtual CPU utilisation the slaves report sits
// in 0.4–0.7 at the seed commit on the 2-core reference box: RSRC then
// sees distinguishable, unsaturated nodes (see README.md).
type liveWorkload struct {
	nodes, masters, shards int
	// clientsPerCPU is 1 except on http_static. There, with one client
	// per CPU the reply latencies fall into two wake-up regimes of about
	// equal weight and the median flips between them from run to run
	// (24 % spread over ten runs); with two per CPU a runnable goroutine
	// always exists and the distribution has one mode (2.6 %).
	clientsPerCPU int
	useHTTP       bool
	profile       trace.Profile
	timeScale     float64
}

func withDynamicFrac(p trace.Profile, f float64) trace.Profile {
	p.DynamicFrac = f
	return p
}

var liveWorkloads = map[string]liveWorkload{
	"frame_dynamic": {nodes: 4, masters: 1, clientsPerCPU: 1, profile: withDynamicFrac(trace.KSU, 1), timeScale: 6.5e-5},
	"http_static":   {nodes: 4, masters: 1, clientsPerCPU: 2, useHTTP: true, profile: withDynamicFrac(trace.UCB, 0), timeScale: 6.5e-5},
	"sharded_mix":   {nodes: 8, masters: 2, shards: 2, clientsPerCPU: 1, profile: trace.KSU, timeScale: 3.0e-4},
}

// liveClient is one client goroutine's connection and its pre-encoded
// share of the request mix.
type liveClient interface {
	// do sends request i and returns the reply's status (HTTP codes on
	// both transports).
	do(i int) (int, error)
	close()
}

type frameClient struct {
	base string
	fc   *httpcluster.FrameClient
	reqs []httpcluster.FrameRequest
}

func (c *frameClient) do(i int) (int, error) {
	if c.fc == nil {
		fc, err := httpcluster.DialFrame(c.base, 5*time.Second)
		if err != nil {
			return 0, err
		}
		c.fc = fc
	}
	sts, err := c.fc.Do(c.reqs[i:i+1], time.Now().Add(30*time.Second))
	if err != nil {
		// A transport error poisons the connection: redial on next use.
		c.fc.Close() //nolint:errcheck
		c.fc = nil
		return 0, err
	}
	return sts[0], nil
}

func (c *frameClient) close() {
	if c.fc != nil {
		c.fc.Close() //nolint:errcheck
	}
}

// httpClient is a minimal HTTP/1.1 keep-alive client on one connection:
// it writes a pre-encoded GET and reads the reply on the caller's own
// goroutine. net/http's client would add two goroutine hand-offs per
// request on the client side and widen the run-to-run spread of
// latency_p99_us to 19 %, without exercising anything more of the
// server's edge.
type httpClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	reqs [][]byte
}

func (c *httpClient) do(i int) (int, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	status, err := c.roundTrip(c.reqs[i])
	if err != nil {
		c.conn.Close() //nolint:errcheck // already failed; redial on next use
		c.conn = nil
	}
	return status, err
}

var contentLength = []byte("content-length:")

// roundTrip sends one request and consumes one Content-Length-framed
// reply (the only framing the cluster's handlers produce).
func (c *httpClient) roundTrip(req []byte) (int, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a failed deadline shows as an I/O error below
	if _, err := c.conn.Write(req); err != nil {
		return 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, fmt.Errorf("http: short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("http: bad status line %q", line)
	}
	length := int64(-1)
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if cl := len(contentLength); len(line) > cl && bytes.EqualFold(line[:cl], contentLength) {
			length, err = strconv.ParseInt(string(bytes.TrimSpace(line[cl:])), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("http: bad Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("http: reply without Content-Length")
	}
	if _, err := c.br.Discard(int(length)); err != nil {
		return 0, err
	}
	return status, nil
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck
	}
}

// newClients pre-encodes the mix once per master; client i talks to
// master i mod masters and only reads the shared encoding.
func newClients(w liveWorkload, clients int, masterURLs []string, mix *trace.Trace) []liveClient {
	frames := make([]httpcluster.FrameRequest, len(mix.Requests))
	for i, r := range mix.Requests {
		frames[i] = httpcluster.FrameRequest{
			Demand: r.Demand, W: r.CPUWeight, Script: r.Script,
			Dynamic: r.Class == trace.Dynamic, Idem: true,
		}
	}
	encoded := make(map[string][][]byte) // by master address, HTTP only
	out := make([]liveClient, clients)
	for ci := range out {
		base := masterURLs[ci%len(masterURLs)]
		if !w.useHTTP {
			out[ci] = &frameClient{base: base, reqs: frames}
			continue
		}
		addr := strings.TrimPrefix(base, "http://")
		if encoded[addr] == nil {
			reqs := make([][]byte, len(mix.Requests))
			for i, r := range mix.Requests {
				cls := "s"
				if r.Class == trace.Dynamic {
					cls = "d"
				}
				reqs[i] = []byte(fmt.Sprintf("GET /req?class=%s&demand=%g&w=%g&script=%d&size=%d HTTP/1.1\r\nHost: %s\r\n\r\n",
					cls, r.Demand, r.CPUWeight, r.Script, r.Size, addr))
			}
			encoded[addr] = reqs
		}
		out[ci] = &httpClient{addr: addr, reqs: encoded[addr]}
	}
	return out
}

// liveCounters is one reading of the cluster's exported accessors.
type liveCounters struct {
	accepted, served, shed, exhausted, retries, hedges, failovers int64
	executed                                                      []int64 // by node id
	slaveExecuted, cgi                                            int64
}

func readCounters(c *httpcluster.Cluster) liveCounters {
	var lc liveCounters
	for _, m := range c.Masters {
		lc.accepted += m.Accepted()
		lc.served += m.Served()
		lc.shed += m.Shed()
		lc.exhausted += m.Exhausted()
		lc.retries += m.Retries()
		lc.hedges += m.Hedges()
		lc.failovers += m.Failovers()
		lc.cgi += m.CGIServed()
	}
	for _, s := range c.Slaves {
		lc.slaveExecuted += s.Executed()
		lc.cgi += s.CGIServed()
	}
	lc.executed = c.NodeExecuted()
	return lc
}

func sum64(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// windowStat accumulates one client's replies that completed in one
// measurement window.
type windowStat struct {
	sent, ok int64
	lat      *hist
}

// clientStat is everything one client goroutine records. Only that
// goroutine writes it until the segment's WaitGroup is done.
type clientStat struct {
	windows   []windowStat
	sent, ok  int64         // whole cluster lifetime, warm-up and priming included
	statuses  map[int]int64 // replies other than 200, by status
	transport int64
	lastErr   error
}

// liveSegment is one cluster lifetime: set-up, warm-up, measured windows,
// shutdown. A run is made of several, so that medians are taken over
// more than one placement of goroutines, connections and heap.
type liveSegment struct {
	setupS      float64
	window      time.Duration
	clients     []*clientStat
	before, end liveCounters // at measurement start / after the last reply
	proc0       procSample
	proc1       procSample
	gorPeak     int
	pagesBefore []promPage // traced runs only: /metrics of every node, masters first
	pagesAfter  []promPage
	checks      []check
}

// liveSegmentConfig sizes one segment. windows = 0 sets up, primes the
// connections and shuts down again: a set-up sample without load.
type liveSegmentConfig struct {
	seed      int64
	clients   int
	warmup    time.Duration
	window    time.Duration
	windows   int
	procStart time.Time // zero: time set-up from the segment's own start
	// tr is nil with tracing off. A traced segment records spans in every
	// other window and scrapes /metrics before and after the windows.
	tr *tracer
}

// tracedWindow says whether window (or pass) i of a traced run records
// spans: every other one, so that the same run yields the untraced
// throughput the tracing overhead is taken against.
func tracedWindow(i int) bool { return i%2 == 0 }

// newLiveCluster starts a workload's cluster with the settings every
// live workload shares: uncalibrated resources at a fixed time scale,
// preset ms, binary framing on every master→slave hop, no batching, no
// chaos, default resilience.
func newLiveCluster(w liveWorkload, wt core.WTable, seed int64) (*httpcluster.Cluster, error) {
	preset, err := policy.Lookup("ms")
	if err != nil {
		return nil, err
	}
	return httpcluster.Start(httpcluster.Config{
		Nodes: w.nodes, Masters: w.masters, Shards: w.shards,
		TimeScale:   w.timeScale,
		LoadRefresh: liveLoadRefresh, PolicyTick: livePolicyTick,
		MakePolicy: func(id int) core.Policy {
			return preset.Build(wt, seed<<8+int64(id)+1)
		},
		Uncalibrated:  true,
		BinaryFraming: true,
	})
}

// startLive does the work setup_s times: generate the request mix,
// start the cluster, open every client's connection with one priming
// request. The caller owns the returned cluster and clients.
func startLive(w liveWorkload, cfg liveSegmentConfig) (*httpcluster.Cluster, []liveClient, []*clientStat, error) {
	sp := cfg.tr.begin("setup.generate", 0, 0)
	mix, err := trace.Generate(trace.GenConfig{
		Profile: w.profile, Lambda: 100, Requests: mixSize,
		MuH: liveMuH, R: liveR, Seed: cfg.seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	wt := core.SampleW(mix, 16)
	cfg.tr.end(sp)

	sp = cfg.tr.begin("setup.start_cluster", 0, 0)
	c, err := newLiveCluster(w, wt, cfg.seed)
	cfg.tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}

	sp = cfg.tr.begin("setup.dial", 0, 0)
	defer cfg.tr.end(sp)
	clients := newClients(w, cfg.clients, c.MasterURLs(), mix)
	stats := make([]*clientStat, len(clients))
	for ci, cl := range clients {
		st := &clientStat{windows: make([]windowStat, cfg.windows), statuses: map[int]int64{}}
		for wi := range st.windows {
			st.windows[wi].lat = newHist()
		}
		stats[ci] = st
		status, err := cl.do(0)
		st.sent++
		if err != nil {
			c.Shutdown()
			return nil, nil, nil, fmt.Errorf("client %d: priming request: %w", ci, err)
		}
		if status == http.StatusOK {
			st.ok++
		} else {
			st.statuses[status]++
		}
	}
	return c, clients, stats, nil
}

// runLiveSegment runs one cluster lifetime and returns what it measured.
func runLiveSegment(w liveWorkload, cfg liveSegmentConfig) (*liveSegment, error) {
	baseline := runtime.NumGoroutine()
	t0 := time.Now()
	if !cfg.procStart.IsZero() {
		t0 = cfg.procStart
	}
	c, clients, stats, err := startLive(w, cfg)
	if err != nil {
		return nil, err
	}
	seg := &liveSegment{window: cfg.window, clients: stats}
	seg.setupS = time.Since(t0).Seconds()

	if cfg.windows > 0 {
		sp := cfg.tr.begin("setup.warmup", 0, 0)
		measureStart := time.Now().Add(cfg.warmup)
		end := measureStart.Add(time.Duration(cfg.windows) * cfg.window)
		var wg sync.WaitGroup
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				runClient(ci, clients[ci], stats[ci], len(clients), measureStart, end, cfg)
			}(ci)
		}
		time.Sleep(time.Until(measureStart))
		cfg.tr.end(sp)
		seg.proc0 = sampleProc()
		seg.before = readCounters(c)
		if cfg.tr != nil {
			if seg.pagesBefore, err = scrapeAll(c); err != nil {
				seg.checks = append(seg.checks, failed("scrape /metrics before", err.Error()))
			}
		}
		for wi := 1; wi <= cfg.windows; wi++ {
			time.Sleep(time.Until(measureStart.Add(time.Duration(wi) * cfg.window)))
			if g := runtime.NumGoroutine(); g > seg.gorPeak {
				seg.gorPeak = g
			}
		}
		wg.Wait()
		seg.proc1 = sampleProc()
		if cfg.tr != nil {
			if seg.pagesAfter, err = scrapeAll(c); err != nil {
				seg.checks = append(seg.checks, failed("scrape /metrics after", err.Error()))
			}
		}
	}
	seg.end = readCounters(c)
	for _, cl := range clients {
		cl.close()
	}
	c.Shutdown()
	seg.checks = append(seg.checks, seg.conservation()...)
	seg.checks = append(seg.checks, goroutinesSettle(baseline))
	return seg, nil
}

// runClient is one client goroutine: closed loop until the last window
// ends. Replies are booked to the window in which they arrive.
func runClient(ci int, cl liveClient, st *clientStat, clients int, measureStart, end time.Time, cfg liveSegmentConfig) {
	i := ci * mixSize / clients
	for seq := int64(0); ; seq++ {
		t0 := time.Now()
		var reqSpan, doSpan int64
		if cfg.tr != nil && seq%traceSample == 0 {
			if d := t0.Sub(measureStart); d >= 0 && tracedWindow(int(d/cfg.window)) {
				id := int64(ci)<<40 | seq
				reqSpan = cfg.tr.begin("client.request", 0, id)
				doSpan = cfg.tr.begin("client.do", reqSpan, id)
				t0 = time.Now()
			}
		}
		status, err := cl.do(i)
		t1 := time.Now()
		cfg.tr.end(doSpan)

		st.sent++
		ok := err == nil && status == http.StatusOK
		switch {
		case ok:
			st.ok++
		case err != nil:
			st.transport++
			st.lastErr = err
		default:
			st.statuses[status]++
		}
		if d := t1.Sub(measureStart); d >= 0 {
			wi := int(d / cfg.window)
			if wi >= len(st.windows) {
				cfg.tr.end(reqSpan)
				return
			}
			ws := &st.windows[wi]
			ws.sent++
			if ok {
				ws.ok++
				ws.lat.record(int64(t1.Sub(t0)))
			}
		}
		cfg.tr.end(reqSpan)
		if !t1.Before(end) {
			return
		}
		if i++; i == mixSize {
			i = 0
		}
	}
}

// conservation is the live output check: every accepted request reached
// exactly one terminal outcome, the clients saw exactly the served ones,
// and nothing executed twice.
func (s *liveSegment) conservation() []check {
	var sent, ok, transport int64
	statuses := map[int]int64{}
	for _, st := range s.clients {
		sent += st.sent
		ok += st.ok
		transport += st.transport
		for code, n := range st.statuses {
			statuses[code] += n
		}
	}
	e := s.end
	out := []check{
		checkEq("accepted = served + shed + exhausted", e.accepted, e.served+e.shed+e.exhausted),
		checkEq("client 200-count = served", ok, e.served),
		checkEq("client sent = accepted + transport errors", sent, e.accepted+transport),
	}
	if e.retries == 0 && e.hedges == 0 {
		out = append(out, checkEq("node executed = served (nothing executed twice)", sum64(e.executed), e.served))
	}
	for code, n := range statuses {
		switch code {
		case http.StatusBadGateway, http.StatusServiceUnavailable:
		default:
			out = append(out, failed("every status in {200, 502, 503}", fmt.Sprintf("%d replies with status %d", n, code)))
		}
	}
	if transport > 0 {
		for _, st := range s.clients {
			if st.lastErr != nil {
				out = append(out, failed("no transport errors", fmt.Sprintf("%d errors, last: %v", transport, st.lastErr)))
				break
			}
		}
	}
	return out
}

// goroutinesSettle waits for the goroutine count to return to the
// pre-segment baseline: clusters must shut down completely between
// phases, or the next phase measures their leftovers too.
func goroutinesSettle(baseline int) check {
	deadline := time.Now().Add(5 * time.Second)
	g := runtime.NumGoroutine()
	for g > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		g = runtime.NumGoroutine()
	}
	if g > baseline {
		return failed("goroutines return to baseline after shutdown", fmt.Sprintf("%d > %d", g, baseline))
	}
	return passed("goroutines return to baseline after shutdown")
}

// windowValues merges the clients' per-window records of one segment
// into the end-to-end samples.
type windowValue struct {
	sent, ok int64
	reqPerS  float64
	p50us    float64
	p99us    float64
	lat      *hist
}

func (s *liveSegment) windowValues() []windowValue {
	n := len(s.clients[0].windows)
	out := make([]windowValue, n)
	for wi := 0; wi < n; wi++ {
		h := newHist()
		v := windowValue{lat: h}
		for _, st := range s.clients {
			v.sent += st.windows[wi].sent
			v.ok += st.windows[wi].ok
			h.merge(st.windows[wi].lat)
		}
		v.reqPerS = float64(v.ok) / s.window.Seconds()
		v.p50us = h.quantile(0.50) / 1e3
		v.p99us = h.quantile(0.99) / 1e3
		out[wi] = v
	}
	return out
}
