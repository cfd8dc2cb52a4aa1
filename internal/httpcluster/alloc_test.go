package httpcluster

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"msweb/internal/core"
)

// nullRW is a reusable ResponseWriter for allocation pinning.
type nullRW struct {
	h    http.Header
	code int
}

func (d *nullRW) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 4)
	}
	return d.h
}
func (d *nullRW) WriteHeader(code int) { d.code = code }
func (d *nullRW) Write(p []byte) (int, error) {
	return len(p), nil
}

// Allocation pins for the serving hot path, the contract behind
// BenchmarkMasterReqPath and BenchmarkNodeExec (bench_live_test.go at
// the repo root): the master's /req pipeline — parse, placement over the
// live view, completion observation, piggybacked load header, response —
// and a node's /exec allocate nothing per request. The only allocations
// left are the load-stamp refresh (a handful every loadStampTTL,
// amortized to ~0 per op), hence the pins are a small fraction rather
// than exactly zero. TimeScale shrinks the virtual fork charge below
// the sleep resolution so the measurement is deterministic (no sleeps,
// no serve-goroutine handoff).
func TestReqPathAllocPins(t *testing.T) {
	m, err := LaunchMaster(NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6,
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	// Sharded master (2 shards, master 0 owning an empty shard): the /req
	// pipeline plus the shard-stamp header attach must stay pinned too.
	ms, err := LaunchMaster(NodeOptions{
		ID: 0, Masters: []int{0, 1}, NodeURLs: []string{"", ""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6,
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
		Shards:     2,
		Resilience: Resilience{DisableShedding: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Shutdown()

	cases := []struct {
		name    string
		handler http.Handler
		target  string
		maxAvg  float64
	}{
		{"master /req static", m.Handler(), "/req?class=s&demand=0&w=0.5&script=0", 0.1},
		{"master /req dynamic", m.Handler(), "/req?class=d&demand=0&w=0.9&script=1", 0.1},
		{"sharded /req static", ms.Handler(), "/req?class=s&demand=0&w=0.5&script=0", 0.1},
		{"sharded /req dynamic", ms.Handler(), "/req?class=d&demand=0&w=0.9&script=1", 0.1},
		{"node /exec", n.Handler(), "/exec?w=0.5&demand=0&size=64", 0.1},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.target, nil)
		rw := &nullRW{}
		run := func() {
			rw.code = 0
			c.handler.ServeHTTP(rw, req)
			if rw.code != 0 && rw.code != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, rw.code)
			}
		}
		run() // warm scratch buffers (alive filter, candidate union, header map)
		if allocs := testing.AllocsPerRun(100, run); allocs > c.maxAvg {
			t.Errorf("%s: %.2f allocs/op, pinned at ≤ %.2f", c.name, allocs, c.maxAvg)
		}
	}
}

// replayConn feeds an edge connection loop one scripted read at a time
// and discards what it writes.
type replayConn struct {
	net.Conn // unused: the loop only reads, writes and sets deadlines
	rd       bytes.Reader
	wrote    int
}

func (c *replayConn) Read(p []byte) (int, error) { return c.rd.Read(p) }
func (c *replayConn) Write(p []byte) (int, error) {
	c.wrote += len(p)
	return len(p), nil
}

// One static /req on the edge — head parsed in place, parseReqQuery,
// serveReq, the reply assembled with its load stamp and written with the
// body — allocates nothing server-side once the connection's scratch is
// warm: the steady state of (*edgeConn).next on a keep-alive connection.
func TestEdgeHotPathAllocPin(t *testing.T) {
	m, err := LaunchMaster(NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6,
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	head := []byte("GET /req?class=s&demand=0&w=0.5&script=0&size=1024 HTTP/1.1\r\nHost: 127.0.0.1:40001\r\n\r\n")
	conn := &replayConn{}
	ec := &edgeConn{n: m.Node, c: conn, br: bufio.NewReaderSize(conn, edgeMaxHead)}
	run := func() {
		conn.rd.Reset(head)
		conn.wrote = 0
		if !ec.next() {
			t.Fatal("the edge ended a keep-alive connection")
		}
		if conn.wrote < 1024 {
			t.Fatalf("reply of %d bytes, want a head and 1024 body bytes", conn.wrote)
		}
	}
	run() // warm the reply buffer and the writev vector
	// Same amortized load-stamp budget as the pins above.
	if allocs := testing.AllocsPerRun(100, run); allocs > 0.1 {
		t.Errorf("edge /req: %.2f allocs/op, pinned at ≤ 0.10", allocs)
	}
	if m.edgeHandoffs.Load() != 0 {
		t.Fatal("the pinned request was handed off")
	}
}

// The binary frame service loop — length-prefixed read, exec decode,
// admission + execution, response encode with the piggybacked load —
// must also run allocation-free once its scratch buffers are warm.
// This is the steady state of (*Node).serveFrames for a persistent
// connection.
func TestFrameHotPathAllocPin(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	src := []frameExec{{demand: 0, w: 0.5, deadlineNs: time.Now().Add(time.Hour).UnixNano(), fork: true}}
	var frame, buf, payload []byte
	reqs := make([]frameExec, 0, 1)
	sts := make([]int, 0, 1)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	run := func() {
		frame = appendExecFrame(frame[:0], src)
		rd.Reset(frame)
		br.Reset(rd)
		var err error
		payload, buf, err = readFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err = parseExecPayload(payload, reqs[:0])
		if err != nil {
			t.Fatal(err)
		}
		st := n.execOne(reqs[0])
		if st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
		sts = append(sts[:0], st)
		frame = appendRespFrame(frame[:0], sts, n.currentLoad().load, nil)
	}
	run() // warm the scratch buffers
	// Same amortized load-stamp budget as the HTTP pins above.
	if allocs := testing.AllocsPerRun(100, run); allocs > 0.1 {
		t.Errorf("frame hot path: %.2f allocs/op, pinned at ≤ 0.10", allocs)
	}

	// The 'Q'-frame (client-request) loop — the steady state a
	// frame-native load driver exercises against a master — must hold the
	// same pin: encode, length-prefixed read, decode, the full /req
	// pipeline (admission, placement, completion), response encode with
	// the piggybacked load, and the client-side status decode.
	m, err := LaunchMaster(NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6,
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	qsrc := []frameReq{{demand: 0, w: 0.5, script: 1, dynamic: true}}
	qreqs := make([]frameReq, 0, 1)
	qsts := make([]int, 1)
	dec := make([]int, 0, 1)
	runQ := func() {
		frame = appendReqFrame(frame[:0], qsrc)
		rd.Reset(frame)
		br.Reset(rd)
		var err error
		payload, buf, err = readFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		qreqs, err = parseReqPayload(payload, qreqs[:0])
		if err != nil {
			t.Fatal(err)
		}
		m.runFrameReqs(qreqs, qsts)
		if qsts[0] != http.StatusOK {
			t.Fatalf("status %d", qsts[0])
		}
		frame = appendRespFrame(frame[:0], qsts, m.currentLoad().load, nil)
		rd.Reset(frame)
		br.Reset(rd)
		payload, buf, err = readFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, _, _, err = parseRespPayload(payload, dec[:0])
		if err != nil || dec[0] != http.StatusOK {
			t.Fatalf("decode: %v %v", dec, err)
		}
	}
	runQ() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(100, runQ); allocs > 0.1 {
		t.Errorf("'Q' frame hot path: %.2f allocs/op, pinned at ≤ 0.10", allocs)
	}
}
