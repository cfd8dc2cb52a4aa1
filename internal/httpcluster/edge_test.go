package httpcluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"msweb/internal/core"
)

// rawClient speaks HTTP/1.1 on one TCP connection, byte for byte as the
// test writes it, so a test controls which heads share a connection.
type rawClient struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, base string) *rawClient {
	t.Helper()
	c, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	return &rawClient{t: t, c: c, br: bufio.NewReader(c)}
}

func (r *rawClient) send(s string) {
	r.t.Helper()
	if _, err := io.WriteString(r.c, s); err != nil {
		r.t.Fatal(err)
	}
}

// reply reads one response and its whole body.
func (r *rawClient) reply() (*http.Response, []byte) {
	r.t.Helper()
	resp, err := http.ReadResponse(r.br, nil)
	if err != nil {
		r.t.Fatalf("reading reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		r.t.Fatalf("reading body: %v", err)
	}
	return resp, body
}

// get is one GET on the connection.
func (r *rawClient) get(target string) (*http.Response, []byte) {
	r.t.Helper()
	r.send("GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n")
	return r.reply()
}

// expectEOF requires the server to have closed the connection.
func (r *rawClient) expectEOF() {
	r.t.Helper()
	if b, err := r.br.ReadByte(); err != io.EOF {
		r.t.Fatalf("connection still open (read %q, %v), want EOF", b, err)
	}
}

// fromEdge tells the two /req adapters apart: net/http stamps a reply
// with Date (a handler's) or Content-Type (its own 400s), the edge with
// neither.
func fromEdge(resp *http.Response) bool {
	return resp.Header.Get("Date") == "" && resp.Header.Get("Content-Type") == ""
}

func launchEdgeMaster(t *testing.T, o NodeOptions) *Master {
	t.Helper()
	if o.Masters == nil {
		o.Masters, o.NodeURLs = []int{0}, []string{""}
	}
	if o.Policy == nil {
		o.Policy = core.NewMS(nil, 1)
	}
	o.TimeScale, o.LoadRefresh, o.PolicyTick = 1e-6, time.Hour, time.Hour
	m, err := LaunchMaster(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// One keep-alive connection doing /req → /metrics → /req: the first is
// the edge's, /metrics hands the connection to net/http mid-stream, and
// the later /req is served by the net/http adapter with the same status
// and headers.
func TestEdgeHandoffMidConnection(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	rc := dialRaw(t, m.URL)

	first, body := rc.get("/req?class=s&demand=0&w=0.5&size=100")
	if first.StatusCode != http.StatusOK || len(body) != 100 || !fromEdge(first) {
		t.Fatalf("first /req: status %d, %d bytes, fromEdge=%v", first.StatusCode, len(body), fromEdge(first))
	}
	if got := m.EdgeConns(); got != 1 {
		t.Fatalf("EdgeConns() = %d while the edge serves the connection, want 1", got)
	}

	metrics, page := rc.get("/metrics")
	if metrics.StatusCode != http.StatusOK || fromEdge(metrics) {
		t.Fatalf("/metrics: status %d, fromEdge=%v", metrics.StatusCode, fromEdge(metrics))
	}
	for _, want := range []string{
		`msweb_node_edge_conns{node="0"} 0`,
		`msweb_node_edge_handoffs_total{node="0"} 1`,
		`msweb_master_accepted_total{node="0"} 1`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	later, body := rc.get("/req?class=s&demand=0&w=0.5&size=100")
	if later.StatusCode != http.StatusOK || len(body) != 100 || fromEdge(later) {
		t.Fatalf("later /req: status %d, %d bytes, fromEdge=%v", later.StatusCode, len(body), fromEdge(later))
	}
	if later.ContentLength != first.ContentLength {
		t.Fatalf("adapters disagree: Content-Length %d vs %d", first.ContentLength, later.ContentLength)
	}
	if m.Served() != 2 || m.EdgeConns() != 0 {
		t.Fatalf("served=%d EdgeConns=%d, want 2 and 0", m.Served(), m.EdgeConns())
	}
}

// Three pipelined /req in one write are answered in order, and a fourth
// head that arrives behind them goes to net/http with the rest.
func TestEdgePipelined(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	rc := dialRaw(t, m.URL)
	var batch strings.Builder
	sizes := []int{64, 2049, 5}
	for _, size := range sizes {
		fmt.Fprintf(&batch, "GET /req?class=s&demand=0&w=0.5&size=%d HTTP/1.1\r\nHost: test\r\n\r\n", size)
	}
	batch.WriteString("GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
	rc.send(batch.String())
	for i, size := range sizes {
		resp, body := rc.reply()
		if resp.StatusCode != http.StatusOK || len(body) != size || !fromEdge(resp) {
			t.Fatalf("reply %d: status %d, %d bytes (want %d), fromEdge=%v", i, resp.StatusCode, len(body), size, fromEdge(resp))
		}
	}
	if resp, body := rc.reply(); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `msweb_node_executed_total{node="0"} 3`) {
		t.Fatalf("/metrics behind the pipeline: status %d body %q", resp.StatusCode, body)
	}
}

func TestEdgeConnectionClose(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	rc := dialRaw(t, m.URL)
	rc.send("GET /req?class=s&demand=0&w=0.5 HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
	resp, body := rc.reply()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" || !fromEdge(resp) || !resp.Close {
		t.Fatalf("status %d body %q fromEdge=%v close=%v", resp.StatusCode, body, fromEdge(resp), resp.Close)
	}
	rc.expectEOF()
	waitFor(t, "the closed connection to leave the registry", func() bool { return m.EdgeConns() == 0 })
}

// What the edge does not serve itself keeps net/http's behaviour.
func TestEdgeHandsOff(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	cases := []struct {
		name, base, head string
		status           int
		proto            string
	}{
		{"HTTP/1.0", m.URL, "GET /req?class=s&demand=0&w=0.5 HTTP/1.0\r\n\r\n", 200, "HTTP/1.0"},
		{"POST /req", m.URL, "POST /req?class=s&demand=0&w=0.5 HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n\r\nhi", 200, "HTTP/1.1"},
		{"bare LF", m.URL, "GET /req?class=s&demand=0&w=0.5 HTTP/1.1\nHost: test\n\n", 200, "HTTP/1.1"},
		{"absolute-form", m.URL, "GET http://test/req?class=s&demand=0&w=0.5 HTTP/1.1\r\nHost: test\r\n\r\n", 200, "HTTP/1.1"},
		{"no Host", m.URL, "GET /req?class=s&demand=0&w=0.5 HTTP/1.1\r\n\r\n", 400, "HTTP/1.1"},
		{"/frame without Upgrade", m.URL, "GET /frame HTTP/1.1\r\nHost: test\r\n\r\n", 404, "HTTP/1.1"},
		{"/req on a slave", n.URL, "GET /req?class=s&demand=0&w=0.5 HTTP/1.1\r\nHost: test\r\n\r\n", 404, "HTTP/1.1"},
		{"/exec on a slave", n.URL, "GET /exec?w=0.5&demand=0 HTTP/1.1\r\nHost: test\r\n\r\n", 200, "HTTP/1.1"},
	}
	for _, c := range cases {
		rc := dialRaw(t, c.base)
		rc.send(c.head)
		resp, _ := rc.reply()
		if resp.StatusCode != c.status || resp.Proto != c.proto || fromEdge(resp) {
			t.Errorf("%s: %s %d fromEdge=%v, want %s %d from net/http", c.name, resp.Proto, resp.StatusCode, fromEdge(resp), c.proto, c.status)
		}
	}
	if got := m.edgeHandoffs.Load(); got != 6 {
		t.Errorf("master handed off %d connections, want 6", got)
	}
	if m.Served() != 4 {
		t.Errorf("master served %d, want the 4 handed-off /req", m.Served())
	}
}

// The edge's reply and Master.Handler()'s reply to the same query agree
// on everything a client can act on. This is what keeps the two /req
// adapters one implementation.
func TestEdgeReplyMatchesHandler(t *testing.T) {
	plain := launchEdgeMaster(t, NodeOptions{})
	sharded := launchEdgeMaster(t, NodeOptions{
		Masters: []int{0, 1}, NodeURLs: []string{"", ""}, Shards: 2,
		Policy: core.NewMS(nil, 1, core.WithoutReservation()),
	})
	// One slave that refuses every frame: the first dynamic opens its
	// breaker and runs at the master, which puts the master's dynamic
	// share (1 of 2) over θ₂ (0.475), so the reservation then sheds every
	// dynamic.
	refusing := newFakeFrameSlave(t, frameReply{status: http.StatusInternalServerError})
	shedding := launchEdgeMaster(t, NodeOptions{
		Masters: []int{0}, Slaves: []int{1}, NodeURLs: []string{"", refusing.URL},
	})
	if resp, _ := dialRaw(t, shedding.URL).get("/req?class=d&demand=0&w=0.5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-opening dynamic: status %d", resp.StatusCode)
	}
	if shedding.BreakerState(1) != breakerOpen {
		t.Fatal("the dead slave's breaker did not open")
	}

	type row struct {
		name   string
		m      *Master
		query  string
		status int
		length int
	}
	rows := []row{
		{"static", plain, "class=s&demand=0&w=0.5&script=0", 200, 3},
		{"dynamic", plain, "class=d&demand=0&w=0.9&script=1", 200, 3},
		{"escaped values", plain, "class=%64&demand=%30&w=0%2e9", 200, 3},
		{"no demand", plain, "w=0.5", 400, len("bad demand\n")},
		{"negative demand", plain, "demand=-1&w=0.5", 400, len("bad demand\n")},
		{"huge demand", plain, "demand=1e10&w=0.5", 400, len("bad demand\n")},
		{"bad demand escape", plain, "demand=%zz&w=0.5", 400, len("bad demand\n")},
		{"bad w", plain, "demand=0&w=x", 400, len("bad w\n")},
		{"NaN w", plain, "demand=0&w=NaN", 400, len("bad w\n")},
		{"empty query", plain, "", 400, len("bad demand\n")},
		{"size 0", plain, "demand=0&w=0.5&size=0", 200, 3},
		{"size 64", plain, "demand=0&w=0.5&size=64", 200, 64},
		{"size 2048", plain, "demand=0&w=0.5&size=2048", 200, 2048},
		{"size 2049", plain, "demand=0&w=0.5&size=2049", 200, 2049},
		{"size 40000", plain, "demand=0&w=0.5&size=40000", 200, 40000},
		{"size 9 MiB", plain, "demand=0&w=0.5&size=9437184", 200, 3},
		{"size -1", plain, "demand=0&w=0.5&size=-1", 200, 3},
		{"sharded static", sharded, "class=s&demand=0&w=0.5&size=64", 200, 64},
		{"sharded dynamic", sharded, "class=d&demand=0&w=0.9", 200, 3},
		{"sharded bad w", sharded, "demand=0", 400, len("bad w\n")},
		{"shed", shedding, "class=d&demand=0&w=0.5", 503, len(msgShed) + 1},
		{"static while shedding", shedding, "class=s&demand=0&w=0.5", 200, 3},
	}
	for _, r := range rows {
		target := "/req"
		if r.query != "" {
			target += "?" + r.query
		}
		edge, edgeBody := dialRaw(t, r.m.URL).get(target)
		if !fromEdge(edge) {
			t.Errorf("%s: not served by the edge", r.name)
		}
		rec := httptest.NewRecorder()
		r.m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		adapter := rec.Result()

		if edge.StatusCode != r.status || adapter.StatusCode != r.status {
			t.Errorf("%s: status edge %d, handler %d, want %d", r.name, edge.StatusCode, adapter.StatusCode, r.status)
		}
		if len(edgeBody) != r.length || rec.Body.Len() != r.length || edge.ContentLength != int64(r.length) {
			t.Errorf("%s: body edge %d (Content-Length %d), handler %d, want %d",
				r.name, len(edgeBody), edge.ContentLength, rec.Body.Len(), r.length)
		}
		if cl := adapter.Header.Get("Content-Length"); cl != "" && cl != strconv.Itoa(r.length) {
			t.Errorf("%s: handler Content-Length %s, want %d", r.name, cl, r.length)
		}
		if r.status != 200 && string(edgeBody) != rec.Body.String() {
			t.Errorf("%s: error body edge %q, handler %q", r.name, edgeBody, rec.Body.String())
		}
		for _, h := range []http.Header{edge.Header, adapter.Header} {
			for name := range h {
				if strings.HasPrefix(name, "X-Msweb-") {
					t.Errorf("%s: reply carries %s", r.name, name)
				}
			}
		}
		if e, a := edge.Header.Get("Retry-After"), adapter.Header.Get("Retry-After"); e != a || (e != "") != (r.status == 503) {
			t.Errorf("%s: Retry-After edge %q, handler %q", r.name, e, a)
		}
	}
	for _, m := range []*Master{plain, sharded, shedding} {
		if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
			t.Errorf("accepted %d != served %d + shed %d + exhausted %d", m.Accepted(), m.Served(), m.Shed(), m.Exhausted())
		}
		if m.edgeHandoffs.Load() != 0 {
			t.Errorf("%d hand-offs in a table of native requests", m.edgeHandoffs.Load())
		}
	}
}

// A dynamic /req whose X-Msweb-Timeout-Ms budget overflows a Duration
// is served under the dispatch timeout, not refused as already expired.
func TestEdgeLongTimeoutBudgetServes(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	rc := dialRaw(t, m.URL)
	rc.send("GET /req?class=d&demand=0&w=0.5 HTTP/1.1\r\nHost: test\r\n" + TimeoutHeader + ": 9223372036855\r\n\r\n")
	if resp, body := rc.reply(); resp.StatusCode != http.StatusOK || !fromEdge(resp) {
		t.Fatalf("status %d (fromEdge=%v, body %q), want 200 from the edge", resp.StatusCode, fromEdge(resp), body)
	}
}

// A head split across two reads at every byte is served exactly as a
// whole one, on one keep-alive connection. net.Pipe delivers each Write
// as its own Read, which TCP would not promise.
func TestEdgeHeadSplitAtEveryByte(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	client, server := net.Pipe()
	defer client.Close()
	if !m.trackEdgeConn(server) {
		t.Fatal("registry refused the connection")
	}
	go m.serveEdgeConn(server)

	client.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(client)
	head := edgeSeedHeads[0]
	for cut := 1; cut < len(head); cut++ {
		for _, part := range []string{head[:cut], head[cut:]} {
			if _, err := io.WriteString(client, part); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK || n != 1024 {
			t.Fatalf("cut %d: status %d, %d body bytes", cut, resp.StatusCode, n)
		}
	}
	if got := m.Served(); got != int64(len(head)-1) {
		t.Fatalf("served %d, want %d", got, len(head)-1)
	}
	client.Close()
	waitFor(t, "the pipe's loop to exit", func() bool { return m.EdgeConns() == 0 })
}

// A head that fills the reader without ending is answered 431 and the
// connection closed; one byte less still parses.
func TestEdgeRefusesLargeHead(t *testing.T) {
	m := launchEdgeMaster(t, NodeOptions{})
	const open = "GET /req?class=s&demand=0&w=0.5 HTTP/1.1\r\nHost: test\r\nX-Pad: "
	const end = "\r\n\r\n"

	rc := dialRaw(t, m.URL)
	rc.send(open + strings.Repeat("a", edgeMaxHead-len(open)-len(end)) + end)
	if resp, _ := rc.reply(); resp.StatusCode != http.StatusOK || !fromEdge(resp) {
		t.Fatalf("head of exactly %d bytes: status %d fromEdge=%v", edgeMaxHead, resp.StatusCode, fromEdge(resp))
	}

	rc = dialRaw(t, m.URL)
	rc.send(open + strings.Repeat("a", edgeMaxHead+1000))
	resp, _ := rc.reply()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close {
		t.Fatalf("oversized head: status %d close=%v, want 431 and close", resp.StatusCode, resp.Close)
	}
	rc.expectEOF()
	if m.Accepted() != 1 {
		t.Fatalf("accepted %d, want only the head that fit", m.Accepted())
	}
}
