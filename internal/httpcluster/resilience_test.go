package httpcluster

import (
	"bufio"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/policy"
	"msweb/internal/trace"
)

// firstSlave is a deterministic test policy: always the first live
// slave, falling back to the master. It removes the MS tie-break RNG
// from resilience tests so each asserts exactly one dispatch order.
type firstSlave struct{}

func (firstSlave) Name() string { return "first-slave" }
func (firstSlave) Place(_ core.Request, master int, v *core.View) int {
	if len(v.Slaves) > 0 {
		return v.Slaves[0]
	}
	return master
}
func (firstSlave) ObserveCompletion(trace.Class, float64, float64) {}
func (firstSlave) Tick(float64, *core.View)                        {}

// denyingMaster is firstSlave with a θ₂ reservation that never admits a
// dynamic at the master, so it sheds whenever every slave is open.
type denyingMaster struct{ firstSlave }

func (denyingMaster) AdmitsAtMaster() bool { return false }

// launchTestMaster wires a master over the given fake-slave URLs with
// polling effectively disabled, so only the request path drives breaker
// state.
func launchTestMaster(t *testing.T, slaveURLs ...string) *Master {
	t.Helper()
	urls := append([]string{""}, slaveURLs...)
	slaves := make([]int, len(slaveURLs))
	for i := range slaves {
		slaves[i] = i + 1
	}
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0},
		Slaves:      slaves,
		NodeURLs:    urls,
		Policy:      firstSlave{},
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func getStatus(t *testing.T, url string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// fakeFrameSlave is a scripted slave on the real frame codec: it answers
// the /frame upgrade, then reads 'E' frames and answers every entry with
// reply. hits counts the exec frames it has read. Test cleanup closes
// the listener and every accepted connection.
type fakeFrameSlave struct {
	URL  string
	hits atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

// frameReply scripts a fakeFrameSlave: after delay, every entry gets
// status — unless drop is set, which closes the connection as soon as
// the frame is read (the work may have run; the master cannot know).
type frameReply struct {
	status int
	delay  time.Duration
	drop   bool
}

func newFakeFrameSlave(t *testing.T, r frameReply) *fakeFrameSlave {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeFrameSlave{URL: "http://" + l.Addr().String()}
	t.Cleanup(func() {
		l.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			go s.serve(c, r)
		}
	}()
	return s
}

func (s *fakeFrameSlave) serve(c net.Conn, r frameReply) {
	defer c.Close()
	br := bufio.NewReader(c)
	if req, err := http.ReadRequest(br); err != nil || req.URL.Path != "/frame" {
		return
	}
	if _, err := io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+
		frameProtocol+"\r\n\r\n"); err != nil {
		return
	}
	var buf, out []byte
	var reqs []frameExec
	for {
		payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			return
		}
		if reqs, err = parseExecPayload(payload, reqs[:0]); err != nil {
			return
		}
		s.hits.Add(1)
		if r.drop {
			return
		}
		time.Sleep(r.delay)
		sts := make([]int, len(reqs))
		for i := range sts {
			sts[i] = r.status
		}
		out = appendRespFrame(out[:0], sts, core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}, nil)
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// hijackClose kills the TCP connection as soon as a request head
// arrives: a master's /frame upgrade fails before any 'E' frame is sent.
func hijackClose(w http.ResponseWriter, _ *http.Request) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

// An idempotent request retries across distinct slaves and ultimately
// falls back to local execution; a non-idempotent one must stop at the
// first ambiguous failure with 502.
func TestRetryDistinctNodesAndIdempotency(t *testing.T) {
	bad1 := newFakeFrameSlave(t, frameReply{drop: true})
	bad2 := newFakeFrameSlave(t, frameReply{drop: true})

	m := launchTestMaster(t, bad1.URL, bad2.URL)
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", resp.StatusCode)
	}
	if bad1.hits.Load() != 1 || bad2.hits.Load() != 1 {
		t.Fatalf("slave hits %d/%d, want one each (distinct-node retries)", bad1.hits.Load(), bad2.hits.Load())
	}
	if m.Failovers() != 2 {
		t.Fatalf("failovers=%d, want 2", m.Failovers())
	}

	// Non-idempotent: the dropped connection is ambiguous (the frame
	// reached the node), so no retry and no local rerun — a 502.
	m2 := launchTestMaster(t, bad1.URL, bad2.URL)
	resp, _ = getStatus(t, m2.URL+"/req?class=d&demand=0&w=0.5&idem=0", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 for ambiguous non-idempotent failure", resp.StatusCode)
	}
	if m2.Exhausted() != 1 {
		t.Fatalf("exhausted=%d, want 1", m2.Exhausted())
	}
	if bad1.hits.Load() != 2 || bad2.hits.Load() != 1 {
		t.Fatalf("slave hits %d/%d after the non-idempotent request, want 2/1 (no retry)", bad1.hits.Load(), bad2.hits.Load())
	}
}

// A dispatch that fails before its 'E' frame is written cannot have run,
// so even a non-idempotent request fails over to the next slave; one
// whose frame reached the slave may have run, so it stops with 502 even
// though a healthy slave is next in line.
func TestPreSendFailureFailsOver(t *testing.T) {
	good, err := LaunchNode(NodeOptions{ID: 2, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Shutdown()
	closes := httptest.NewServer(http.HandlerFunc(hijackClose))
	defer closes.Close()
	refuses := httptest.NewServer(http.NotFoundHandler())
	defer refuses.Close()

	for _, tc := range []struct{ name, url string }{
		{"closes before the 101", closes.URL},
		{"refuses the upgrade", refuses.URL},
	} {
		executed := good.Executed()
		m := launchTestMaster(t, tc.url, good.URL)
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5&idem=0", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 from the failover slave", tc.name, resp.StatusCode)
		}
		if m.Exhausted() != 0 || m.Failovers() != 1 || good.Executed() != executed+1 {
			t.Fatalf("%s: exhausted=%d failovers=%d good executed %d, want 0/1/%d",
				tc.name, m.Exhausted(), m.Failovers(), good.Executed(), executed+1)
		}
	}

	drops := newFakeFrameSlave(t, frameReply{drop: true})
	m := launchTestMaster(t, drops.URL, good.URL)
	executed := good.Executed()
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5&idem=0", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("post-send drop: status %d, want 502", resp.StatusCode)
	}
	if drops.hits.Load() != 1 || good.Executed() != executed {
		t.Fatalf("post-send drop: frames read %d, good executed %d more, want 1/0", drops.hits.Load(), good.Executed()-executed)
	}
}

// With every slave circuit-open and the θ₂ reservation denying master
// admission, dynamics are shed with 503 + Retry-After instead of
// silently overrunning the master tier.
func TestShedsWhenAllSlavesOpen(t *testing.T) {
	bad := newFakeFrameSlave(t, frameReply{status: http.StatusInternalServerError})

	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0},
		Slaves:      []int{1},
		NodeURLs:    []string{"", bad.URL},
		Policy:      core.NewMS(nil, 1),
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	// First dynamic: dispatch fails, breaker opens, local fallback serves.
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via fallback while the breaker is closed", resp.StatusCode)
	}
	if m.BreakerState(1) != breakerOpen || bad.hits.Load() != 1 {
		t.Fatalf("breaker state %d after %d refused frames, want open after one", m.BreakerState(1), bad.hits.Load())
	}

	// Now every slave is open. The fresh reservation admits no dynamics at
	// masters until the estimators move, so requests shed until some are
	// denied — drive a few and require at least one 503 with Retry-After.
	sawShed := false
	for i := 0; i < 5 && !sawShed; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawShed = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("shed response missing Retry-After")
			}
		}
	}
	if !sawShed {
		t.Fatal("no dynamic was shed with every slave circuit-open")
	}
	if m.Shed() == 0 {
		t.Fatal("shed counter did not move")
	}
	if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
		t.Fatalf("accepted=%d served=%d shed=%d exhausted=%d: outcomes do not add up",
			m.Accepted(), m.Served(), m.Shed(), m.Exhausted())
	}

	// Statics keep flowing through the degraded master.
	resp, _ = getStatus(t, m.URL+"/req?class=s&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static got %d during degradation, want 200", resp.StatusCode)
	}
}

// With every slave's breaker open, a dynamic the θ₂ reservation admits
// at the master runs there instead of being shed. Two dynamics served by
// the slave bring the ms preset's master share under θ₂, so it admits
// the third.
func TestLaunchMasterForwardsShedRSRC(t *testing.T) {
	preset, err := policy.Lookup("ms")
	if err != nil {
		t.Fatal(err)
	}
	slave := newFakeFrameSlave(t, frameReply{status: http.StatusOK})
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0},
		Slaves:      []int{1},
		NodeURLs:    []string{"", slave.URL},
		Policy:      preset.Build(nil, 1),
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	for i := 0; i < 2; i++ {
		if resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("dynamic %d got %d with a healthy slave", i, resp.StatusCode)
		}
	}
	m.placeMu.Lock()
	admits := m.policy.(core.MasterAdmission).AdmitsAtMaster()
	m.placeMu.Unlock()
	if slave.hits.Load() != 2 || !admits {
		t.Fatalf("slave read %d frames, θ₂ admits %v; want 2 and true", slave.hits.Load(), admits)
	}
	m.brk.open(&m.brk.slots[1], time.Now().UnixNano())

	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the master", resp.StatusCode)
	}
	if m.Executed() != 1 || slave.hits.Load() != 2 {
		t.Fatalf("master executed %d, slave read %d frames; want 1 and 2", m.Executed(), slave.hits.Load())
	}
}

// Slaves refuse work whose propagated deadline already expired.
func TestNodeShedAndDeadline(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	// Expired deadline → 504 without touching the resources.
	h := http.Header{}
	h.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixNano(), 10))
	resp, _ := getStatus(t, n.URL+"/exec?w=0.5&demand=0", h)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 for an expired deadline", resp.StatusCode)
	}
	if n.DeadlineExpired() != 1 {
		t.Fatalf("deadlineExpired=%d, want 1", n.DeadlineExpired())
	}
}

// Retries stop at the client's deadline: the first slave refuses after
// 20 ms, the retry on the second (which would answer after 1 s) is cut
// off at the 150 ms budget, and neither a third attempt nor the local
// fallback runs after it.
func TestBackoffRespectsDeadline(t *testing.T) {
	fast := newFakeFrameSlave(t, frameReply{status: http.StatusInternalServerError, delay: 20 * time.Millisecond})
	slow := newFakeFrameSlave(t, frameReply{status: http.StatusInternalServerError, delay: time.Second})
	m := launchTestMaster(t, fast.URL, slow.URL)
	h := http.Header{}
	h.Set(TimeoutHeader, "150")
	start := time.Now()
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", h)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 once the budget ran out", resp.StatusCode)
	}
	if elapsed < 150*time.Millisecond || elapsed >= time.Second {
		t.Fatalf("request held for %v, want it to end at its 150 ms deadline", elapsed)
	}
	if fast.hits.Load() != 1 || slow.hits.Load() != 1 || m.Executed() != 0 {
		t.Fatalf("slave frames %d/%d, master executed %d; want 1/1 and 0",
			fast.hits.Load(), slow.hits.Load(), m.Executed())
	}
	if m.Exhausted() != 1 {
		t.Fatalf("exhausted=%d, want 1", m.Exhausted())
	}
}

// A client budget at or above core.DispatchTimeout resolves to
// core.DispatchTimeout, however large: converting it to a Duration first
// would overflow from 9 223 372 036 855 ms on and yield an already
// expired (or, further up, a sub-millisecond) deadline.
func TestReqDeadlineCapsLongBudgets(t *testing.T) {
	start := time.Now()
	for _, c := range []struct {
		timeoutMs int64
		want      time.Duration
	}{
		{0, core.DispatchTimeout},
		{80, 80 * time.Millisecond},
		{core.DispatchTimeout.Milliseconds() - 1, core.DispatchTimeout - time.Millisecond},
		{core.DispatchTimeout.Milliseconds(), core.DispatchTimeout},
		{9223372036854, core.DispatchTimeout},  // the last budget that fits a Duration
		{9223372036855, core.DispatchTimeout},  // the first that wraps negative
		{18446744073710, core.DispatchTimeout}, // wraps to about 448 µs
		{math.MaxInt64, core.DispatchTimeout},
	} {
		if got := reqDeadline(start, c.timeoutMs).Sub(start); got != c.want {
			t.Errorf("budget %d ms: deadline in %v, want %v", c.timeoutMs, got, c.want)
		}
	}
}

// recordingTracer keeps every lifecycle event a master emits; masters
// emit from concurrent handlers, so Emit locks.
type recordingTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recordingTracer) Emit(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// A traced master emits each request's lifecycle in order — arrival,
// one retry per failed attempt, then exactly one terminal event — and
// the terminal events add up to the outcome counters. The four requests
// reuse the retry and shedding setups above: two slaves that drop every
// frame, and a reservation that denies the master every dynamic once
// both slaves' breakers are open.
func TestMasterTracerLifecycle(t *testing.T) {
	bad1 := newFakeFrameSlave(t, frameReply{drop: true})
	bad2 := newFakeFrameSlave(t, frameReply{drop: true})
	tr := &recordingTracer{}
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0},
		Slaves:      []int{1, 2},
		NodeURLs:    []string{"", bad1.URL, bad2.URL},
		Policy:      denyingMaster{},
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
		Tracer:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	type ev struct {
		kind  obs.EventKind
		node  int
		value float64 // checked for retries: the attempt number
	}
	for i, c := range []struct {
		name   string
		query  string
		status int
		want   []ev
	}{
		// Slave 1 drops the frame after reading it: the work may have
		// run, so a non-idempotent request stops there (and slave 1's
		// breaker opens).
		{"exhausted", "class=d&demand=0&w=0.5&idem=0", http.StatusBadGateway,
			[]ev{{obs.KindArrival, 0, 0}, {obs.KindRetry, 1, 1}, {obs.KindExhausted, 0, 0}}},
		// Slave 2 drops it too; with both breakers open the second
		// attempt runs locally.
		{"retried then served", "class=d&demand=0&w=0.5", http.StatusOK,
			[]ev{{obs.KindArrival, 0, 0}, {obs.KindRetry, 2, 1}, {obs.KindComplete, 0, 0}}},
		{"shed", "class=d&demand=0&w=0.5", http.StatusServiceUnavailable,
			[]ev{{obs.KindArrival, 0, 0}, {obs.KindShed, 0, 0}}},
		{"served", "class=s&demand=0&w=0.5", http.StatusOK,
			[]ev{{obs.KindArrival, 0, 0}, {obs.KindComplete, 0, 0}}},
	} {
		if resp, _ := getStatus(t, m.URL+"/req?"+c.query, nil); resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		req := int64(i + 1)
		tr.mu.Lock()
		var got []obs.Event
		for _, e := range tr.events {
			if e.Req == req {
				got = append(got, e)
			}
		}
		tr.mu.Unlock()
		if len(got) != len(c.want) {
			t.Fatalf("%s: request %d emitted %v, want %d events", c.name, req, got, len(c.want))
		}
		for j, w := range c.want {
			e := got[j]
			if e.Kind != w.kind || e.Node != w.node || (w.kind == obs.KindRetry && e.Value != w.value) {
				t.Errorf("%s: event %d is %v on node %d (value %v), want %v on node %d",
					c.name, j, e.Kind, e.Node, e.Value, w.kind, w.node)
			}
		}
	}

	counts := map[obs.EventKind]int64{}
	tr.mu.Lock()
	for _, e := range tr.events {
		counts[e.Kind]++
	}
	tr.mu.Unlock()
	if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
		t.Fatalf("accepted=%d served=%d shed=%d exhausted=%d: outcomes do not add up",
			m.Accepted(), m.Served(), m.Shed(), m.Exhausted())
	}
	if counts[obs.KindArrival] != m.Accepted() || counts[obs.KindComplete] != m.Served() ||
		counts[obs.KindShed] != m.Shed() || counts[obs.KindExhausted] != m.Exhausted() ||
		counts[obs.KindRetry] != m.Failovers() {
		t.Fatalf("event counts %v disagree with accepted=%d served=%d shed=%d exhausted=%d failovers=%d",
			counts, m.Accepted(), m.Served(), m.Shed(), m.Exhausted(), m.Failovers())
	}
}

// The user-facing documents name none of the resilience settings that
// became constants, nor the simulator and shard-map surfaces that went
// with them.
func TestDocsNameNoRemovedResilienceKnob(t *testing.T) {
	removed := []string{"httpcluster.Resilience", "Resilience{", "BreakerConfig", "HedgeAfter", "RetryBackoff",
		"MaxInflight", "MaxQueue", "ShedRSRC", "DisableShedding", "DefaultOpenFor",
		"AdaptiveMasters", "ScriptAffinity", "View.Affinity", "ShardStatic", "ShardMapMode", "-shard-map",
		"HoldInitial", "MinSlaves", "ListenerShards", "-listener-shards", "msweb_node_listener_shards",
		"mayHaveExecuted", "notSentError"}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range removed {
			if strings.Contains(string(raw), name) {
				t.Errorf("%s still names %s", doc, name)
			}
		}
	}
}
