package httpcluster

import (
	"bufio"
	"bytes"
	"math"
	"net/http"
	"testing"
	"time"

	"msweb/internal/core"
)

// The codec must round-trip exec batches and responses exactly.
func TestFrameCodecRoundTrip(t *testing.T) {
	reqs := []frameExec{
		{demand: 0.25, w: 0.5, deadlineNs: 123456789, fork: true},
		{demand: 0, w: 1, deadlineNs: 0, fork: false},
		{demand: math.MaxFloat64, w: 0, deadlineNs: -1, fork: true},
	}
	b := appendExecFrame(nil, reqs)
	payload, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseExecPayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}

	sts := []int{200, 503, 504}
	load := core.Load{CPUIdle: 0.75, DiskAvail: 0.5, CPUQueue: 3, DiskQueue: 1, Speed: 1}
	sum := (&core.ShardSummary{Shard: 2, AtNs: 42, Nodes: 3, CPUIdle: 0.5}).AppendWire(nil)
	rb := appendRespFrame(nil, sts, load, sum)
	payload, _, err = readFrame(bufio.NewReader(bytes.NewReader(rb)), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotSts, gotLoad, hasLoad, gotSum, err := parseRespPayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasLoad || gotLoad != load {
		t.Fatalf("load round trip: got %+v (hasLoad=%v) want %+v", gotLoad, hasLoad, load)
	}
	if !bytes.Equal(gotSum, sum) {
		t.Fatalf("summary round trip: got %q want %q", gotSum, sum)
	}
	for i := range sts {
		if gotSts[i] != sts[i] {
			t.Fatalf("status %d: got %d want %d", i, gotSts[i], sts[i])
		}
	}

	// Summary-less responses carry an explicit empty block…
	rb = appendRespFrame(nil, sts, load, nil)
	if _, _, _, gotSum, err = parseRespPayload(rb[4:], nil); err != nil || gotSum != nil {
		t.Fatalf("summary-less response: sum=%q err=%v", gotSum, err)
	}
	// …and responses from peers predating the block (ending right after
	// the load report) still parse.
	if _, _, hasLoad, gotSum, err = parseRespPayload(rb[4:len(rb)-1], nil); err != nil || !hasLoad || gotSum != nil {
		t.Fatalf("pre-extension response: hasLoad=%v sum=%q err=%v", hasLoad, gotSum, err)
	}
}

// The client-request ('Q') codec must round-trip batches exactly.
func TestReqFrameCodecRoundTrip(t *testing.T) {
	reqs := []frameReq{
		{demand: 0.25, w: 0.5, script: 7, timeoutMs: 1500, dynamic: true, idem: true},
		{demand: 0, w: 1, script: 0, timeoutMs: 0, dynamic: false, idem: false},
		{demand: 3, w: 0.9, script: 1 << 20, timeoutMs: 1, dynamic: true, idem: false},
	}
	b := appendReqFrame(nil, reqs)
	payload, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseReqPayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
	// Kind confusion must fail loudly, not mis-decode.
	if _, err := parseExecPayload(payload, nil); err == nil {
		t.Fatal("exec parser accepted a 'Q' payload")
	}
	if _, err := parseReqPayload(appendExecFrame(nil, []frameExec{{w: 0.5}})[4:], nil); err == nil {
		t.Fatal("req parser accepted an 'E' payload")
	}
}

// A dynamic request over binary framing is executed by the slave's
// frame loop, and the response's piggybacked load lands in the
// master's report table.
func TestFrameTransportEndToEnd(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	for i := 0; i < 3; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if n.framesServed.Load() != 3 {
		t.Fatalf("slave served %d frames, want one per request", n.framesServed.Load())
	}
	if m.frameDials.Load() != 1 {
		t.Fatalf("master dialed %d frame connections, want one reused", m.frameDials.Load())
	}
	if m.piggyTotal.Load() == 0 {
		t.Fatal("no piggybacked load report arrived over the frame transport")
	}
	if _, at := m.report(1); at == 0 {
		t.Fatal("report stamp for the slave never touched")
	}
}

// An entry whose propagated deadline already passed is refused with 504
// by the slave's frame loop — deadline propagation is per entry, not
// per connection.
func TestFrameDeadlinePropagation(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	reqs := []frameExec{
		{demand: 0, w: 0.5, deadlineNs: time.Now().Add(-time.Second).UnixNano(), fork: true},
		{demand: 0, w: 0.5, deadlineNs: time.Now().Add(time.Minute).UnixNano(), fork: true},
	}
	sts, out := m.frames.exchange(1, reqs, nil, time.Now().Add(5*time.Second))
	if out != core.Served {
		t.Fatalf("exchange: outcome %d, want a reply", out)
	}
	if sts[0] != http.StatusGatewayTimeout || sts[1] != http.StatusOK {
		t.Fatalf("statuses %v, want [504 200]", sts)
	}
	if n.DeadlineExpired() != 1 {
		t.Fatalf("slave deadline_expired=%d, want 1", n.DeadlineExpired())
	}
	if n.Executed() != 1 {
		t.Fatalf("slave executed=%d, want only the live entry", n.Executed())
	}
}

// A demand past maxDemand is refused with 400 in an E entry (the
// slave's frame loop) and in a Q entry (the master's), static or
// dynamic.
func TestFrameHugeDemandRefused(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	sts, out := m.frames.exchange(1, []frameExec{
		{demand: 1e10, w: 0.5},
		{demand: 1e300, w: 0.5},
		{demand: 0, w: 0.5},
	}, nil, time.Now().Add(5*time.Second))
	if out != core.Served {
		t.Fatalf("exchange: outcome %d, want a reply", out)
	}
	if sts[0] != http.StatusBadRequest || sts[1] != http.StatusBadRequest || sts[2] != http.StatusOK {
		t.Fatalf("E statuses %v, want [400 400 200]", sts)
	}
	if n.Executed() != 1 {
		t.Fatalf("slave executed=%d, want only the zero-demand entry", n.Executed())
	}

	fc, err := DialFrame(m.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	sts, err = fc.Do([]FrameRequest{
		{Demand: 1e10, W: 0.5},
		{Demand: 1e10, W: 0.5, Dynamic: true},
	}, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if sts[0] != http.StatusBadRequest || sts[1] != http.StatusBadRequest {
		t.Fatalf("Q statuses %v, want [400 400]", sts)
	}
}

// A client deadline tighter than a slow slave's service turns into a 502
// (exhausted), not an unbounded wait.
func TestFrameClientDeadlineExhausts(t *testing.T) {
	// Calibrated slave: demand 0.3 really takes ~300 ms.
	n, err := LaunchNode(NodeOptions{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	h := http.Header{}
	h.Set(TimeoutHeader, "50")
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0.3&w=0.5&idem=0", h)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 for an expired deadline", resp.StatusCode)
	}
	if m.Exhausted() != 1 || m.Served() != 0 {
		t.Fatalf("exhausted=%d served=%d, want 1/0", m.Exhausted(), m.Served())
	}
	if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
		t.Fatal("terminal outcomes do not add up to accepted")
	}
}

// A slave that drops the connection mid-exchange fails the request over
// to a distinct node and feeds the failing node's breaker.
func TestFrameRetryFailoverAndBreaker(t *testing.T) {
	bad := newFakeFrameSlave(t, frameReply{drop: true})
	good, err := LaunchNode(NodeOptions{ID: 2, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Shutdown()

	m := launchTestMaster(t, bad.URL, good.URL)
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after failover", resp.StatusCode)
	}
	if m.Failovers() == 0 || bad.hits.Load() != 1 {
		t.Fatalf("failovers=%d after %d frames read by the dead slave, want a failover after one", m.Failovers(), bad.hits.Load())
	}
	if good.framesServed.Load() == 0 {
		t.Fatal("failover target did not serve over the frame transport")
	}
	// One failure opens a breaker: the dead pair's must be open.
	if m.BreakerState(1) != breakerOpen {
		t.Fatalf("bad slave breaker state %d, want open (%d)", m.BreakerState(1), breakerOpen)
	}
	if m.BreakerState(2) != breakerClosed {
		t.Fatalf("good slave breaker state %d, want closed (%d)", m.BreakerState(2), breakerClosed)
	}
}

// A reply whose load trailer decodes but fails core.Load.Validate is
// malformed, like a truncated one: the master never folds it into its
// view.
func TestRespPayloadRangeCheck(t *testing.T) {
	for _, c := range []struct {
		load core.Load
		ok   bool
	}{
		{core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}, true},
		{core.Load{}, true},
		{core.Load{CPUIdle: 1e300, DiskAvail: 1e300, Speed: 1}, false},
		{core.Load{CPUIdle: math.NaN(), DiskAvail: 1, Speed: 1}, false},
		{core.Load{CPUIdle: 1, DiskAvail: math.Inf(1), Speed: 1}, false},
		{core.Load{CPUIdle: -0.5, DiskAvail: 1, Speed: 1}, false},
		{core.Load{CPUIdle: 1, DiskAvail: 1, CPUQueue: -1, Speed: 1}, false},
		{core.Load{CPUIdle: 1, DiskAvail: 1, DiskQueue: -1, Speed: 1}, false},
		{core.Load{CPUIdle: 1, DiskAvail: 1, Speed: -1}, false},
		{core.Load{CPUIdle: 1, DiskAvail: 1, Speed: math.Inf(1)}, false},
	} {
		frame := appendRespFrame(nil, []int{200}, c.load, nil)
		_, _, _, _, err := parseRespPayload(frame[4:], nil)
		if (err == nil) != c.ok {
			t.Errorf("load %+v: err %v, want accepted=%v", c.load, err, c.ok)
		}
	}
}
