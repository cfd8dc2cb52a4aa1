package chaos

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
)

func launchLoneMaster(t *testing.T) *httpcluster.Master {
	t.Helper()
	m, err := httpcluster.LaunchMaster(httpcluster.NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		LoadRefresh: 50 * time.Millisecond, PolicyTick: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dialEdge opens a raw client connection; reads give up after wait.
func dialEdge(t *testing.T, base string, wait time.Duration) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(wait)) //nolint:errcheck
	return c, bufio.NewReader(c)
}

func mustGet(t *testing.T, c net.Conn, br *bufio.Reader, target string) {
	t.Helper()
	if _, err := io.WriteString(c, "GET "+target+" HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", target, resp.StatusCode)
	}
}

// A head that trickles in is dropped ten seconds after its first byte on
// both paths — by the edge when the connection is still its own, by
// net/http's ReadHeaderTimeout once it was handed off — while an idle
// keep-alive connection, which has no head under way, is left alone.
func TestSlowLorisHeadIsDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 10 s head timeout")
	}
	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs(t)
	m := launchLoneMaster(t)

	// 250 ms per byte: both heads need more than 13 s to arrive. The
	// edge's is one it would serve itself — a head it hands off mid-way
	// starts net/http's ten seconds afresh.
	const perByte = 250 * time.Millisecond
	type victim struct {
		name, head string
		proxy      *Proxy
		c          net.Conn
		br         *bufio.Reader
	}
	victims := []*victim{
		{name: "edge", head: "GET /req?class=s&demand=0&w=0.5&script=0&size=64 HTTP/1.1\r\nHost: test\r\n\r\n"},
		{name: "net/http", head: "GET /load HTTP/1.1\r\nHost: test\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n"},
	}
	for _, v := range victims {
		p, err := NewProxy(m.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		v.proxy = p
		v.c, v.br = dialEdge(t, p.URL, 20*time.Second)
	}
	// The second connection is handed to net/http before it turns slow.
	mustGet(t, victims[1].c, victims[1].br, "/metrics")
	idle, idleBr := dialEdge(t, m.URL, 20*time.Second)
	mustGet(t, idle, idleBr, "/req?class=s&demand=0&w=0.5")

	start := time.Now()
	dropped := make(chan string, len(victims))
	for _, v := range victims {
		v.proxy.SetMode(ModeSlowRequest, perByte)
		go func(v *victim) {
			if _, err := io.WriteString(v.c, v.head); err != nil {
				dropped <- v.name + ": write: " + err.Error()
				return
			}
			if b, err := v.br.ReadByte(); err != io.EOF {
				dropped <- fmt.Sprintf("%s: read %q, %v; want the connection closed without a reply", v.name, b, err)
				return
			}
			dropped <- ""
		}(v)
	}
	for range victims {
		if msg := <-dropped; msg != "" {
			t.Error(msg)
		}
	}
	if d := time.Since(start); d < 9*time.Second || d > 13*time.Second {
		t.Errorf("slow heads dropped after %v, want about 10 s", d.Round(time.Millisecond))
	}
	if got := m.EdgeConns(); got != 1 {
		t.Errorf("EdgeConns() = %d, want only the idle connection", got)
	}
	if m.Accepted() != 1 {
		t.Errorf("accepted %d requests, want only the idle connection's first", m.Accepted())
	}
	mustGet(t, idle, idleBr, "/req?class=s&demand=0&w=0.5")

	idle.Close()
	for _, v := range victims {
		v.proxy.Close()
	}
	m.Shutdown()
	checkNoLeaks(t, goroutinesBefore, fdsBefore)
}

// Shutdown with edge connections in every state — idle, mid-head, inside
// serveReq, upgraded to frames — and one handed to net/http returns
// promptly, closes them all, and leaves no goroutine or fd behind.
func TestShutdownClosesEdgeConns(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs(t)
	m := launchLoneMaster(t) // real-time resources: demand=30 blocks for 30 s

	idle, idleBr := dialEdge(t, m.URL, 5*time.Second)
	mustGet(t, idle, idleBr, "/req?class=s&demand=0&w=0.5")
	midHead, midHeadBr := dialEdge(t, m.URL, 5*time.Second)
	io.WriteString(midHead, "GET /req?class=s&dem") //nolint:errcheck
	working, workingBr := dialEdge(t, m.URL, 5*time.Second)
	io.WriteString(working, "GET /req?class=s&demand=30&w=0.5 HTTP/1.1\r\nHost: test\r\n\r\n") //nolint:errcheck
	handed, handedBr := dialEdge(t, m.URL, 5*time.Second)
	mustGet(t, handed, handedBr, "/load")
	fc, err := httpcluster.DialFrame(m.URL, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	deadline := time.Now().Add(3 * time.Second)
	for m.Accepted() != 2 || m.EdgeConns() != 4 || m.FrameConns() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("accepted=%d EdgeConns=%d FrameConns=%d, want 2, 4 and 1", m.Accepted(), m.EdgeConns(), m.FrameConns())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	m.Shutdown()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Shutdown took %v", d)
	}
	if m.EdgeConns() != 0 || m.FrameConns() != 0 {
		t.Errorf("after Shutdown: EdgeConns=%d FrameConns=%d", m.EdgeConns(), m.FrameConns())
	}
	for name, br := range map[string]*bufio.Reader{"idle": idleBr, "mid-head": midHeadBr, "mid-serveReq": workingBr, "handed-off": handedBr} {
		// The interrupted request may or may not get its reply out; either
		// way the connection must end rather than hang.
		if _, err := io.Copy(io.Discard, br); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Errorf("%s connection still open after Shutdown", name)
			}
		}
	}
	if _, err := fc.Do([]httpcluster.FrameRequest{{Demand: 0, W: 0.5}}, time.Now().Add(time.Second)); err == nil {
		t.Error("frame connection still served after Shutdown")
	}
	for _, c := range []net.Conn{idle, midHead, working, handed} {
		c.Close()
	}
	fc.Close()
	checkNoLeaks(t, goroutinesBefore, fdsBefore)
}
