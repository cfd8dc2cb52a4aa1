// Live-cluster serving-path benchmarks: the master's /req pipeline and a
// node's /exec pipeline, driven straight through the HTTP mux with a
// reusable discard ResponseWriter. No TCP round trip is included — on
// loopback the net/http client machinery costs ~150 µs/op and would
// drown the scheduling and parsing work these benchmarks pin down; the
// full network path is measured end-to-end by benchmark/ and, for one
// connection against the edge, by BenchmarkEdgeReq below.
package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
)

// discardRW is a reusable ResponseWriter that counts bytes.
type discardRW struct {
	h    http.Header
	code int
	n    int
}

func (d *discardRW) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 4)
	}
	return d.h
}
func (d *discardRW) WriteHeader(code int) { d.code = code }
func (d *discardRW) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}
func (d *discardRW) reset() {
	d.code = 0
	d.n = 0
	for k := range d.h {
		delete(d.h, k)
	}
}

// BenchmarkMasterReqPath measures the master's client-facing /req
// pipeline: query parsing, placement over the live view (with failure
// filtering), completion observation, and response write. Demands are
// zero so the virtual resources add no sleep time; the topology is
// master-only (M/S-1) so dynamic placements resolve locally rather than
// forwarding over TCP.
func BenchmarkMasterReqPath(b *testing.B) {
	m, err := httpcluster.LaunchMaster(httpcluster.NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6, // keep the virtual fork charge in the path, at ns scale
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	h := m.Handler()
	bench := func(target string) func(*testing.B) {
		return func(b *testing.B) {
			req := httptest.NewRequest("GET", target, nil)
			rw := &discardRW{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw.reset()
				h.ServeHTTP(rw, req)
			}
			if rw.code != 0 && rw.code != http.StatusOK {
				b.Fatalf("status %d", rw.code)
			}
		}
	}
	b.Run("static", bench("/req?class=s&demand=0&w=0.5&script=0"))
	b.Run("dynamic", bench("/req?class=d&demand=0&w=0.9&script=1"))
}

// BenchmarkEdgeReq measures one static /req round trip through the
// master's own HTTP/1.1 edge over a real loopback connection, with the
// benchmark harness's raw client: pre-encoded GET, one write, one
// Content-Length-framed reply. Unlike BenchmarkMasterReqPath it
// includes the kernel's share (two syscalls and a wake-up per side), so
// read it against httpcluster.http.req_roundtrip_ns in the benchmark's
// ledger, not against the in-process figures above.
func BenchmarkEdgeReq(b *testing.B) {
	m, err := httpcluster.LaunchMaster(httpcluster.NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6,
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	addr := strings.TrimPrefix(m.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	req := []byte("GET /req?class=s&demand=0&w=0.5&script=0&size=1024 HTTP/1.1\r\nHost: " + addr + "\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if err := discardReply(br, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackRoundTrip is the floor under every frame figure: a
// raw Go TCP ping-pong of one frame-sized message each way (a one-entry
// 'E' frame out, its 'R' reply back) on pairs concurrent loopback
// connections, with no msweb code on either side. ns/op is wall time per
// round trip over all pairs, so pairs=2 shows whether loopback messaging
// gains from a second core. A static 'Q' request costs one such round
// trip plus a residual, a dynamic one two (DESIGN.md §10).
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	const reqSize, respSize = 33, 44 // one-entry 'E' frame; 'R' reply with its load report
	for _, pairs := range []int{1, 2} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					go func() {
						defer c.Close()
						req, resp := make([]byte, reqSize), make([]byte, respSize)
						for {
							if _, err := io.ReadFull(c, req); err != nil {
								return
							}
							if _, err := c.Write(resp); err != nil {
								return
							}
						}
					}()
				}
			}()
			conns := make([]net.Conn, pairs)
			for i := range conns {
				if conns[i], err = net.Dial("tcp", l.Addr().String()); err != nil {
					b.Fatal(err)
				}
				defer conns[i].Close()
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, c := range conns {
				n := b.N / pairs
				if i < b.N%pairs {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					req, resp := make([]byte, reqSize), make([]byte, respSize)
					for j := 0; j < n; j++ {
						if _, err := c.Write(req); err != nil {
							b.Error(err)
							return
						}
						if _, err := io.ReadFull(c, resp); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "roundtrips/s")
		})
	}
}

// discardReply consumes one 200 reply whose body is bodyLen bytes,
// without allocating, so BenchmarkEdgeReq's allocs/op are the server's.
func discardReply(br *bufio.Reader, bodyLen int) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return fmt.Errorf("status line %q", line)
	}
	framed := false
	for len(line) > 2 { // until the blank line
		if line, err = br.ReadSlice('\n'); err != nil {
			return err
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n := 0
			for _, c := range bytes.TrimSpace(v) {
				n = n*10 + int(c-'0')
			}
			framed = n == bodyLen
		}
	}
	if !framed {
		return fmt.Errorf("reply without Content-Length: %d", bodyLen)
	}
	_, err = br.Discard(bodyLen)
	return err
}

// BenchmarkNodeExec measures a slave node's /exec pipeline: query
// parsing, the (zero-demand) resource walk, counter and histogram
// updates, and a 64-byte response body.
func BenchmarkNodeExec(b *testing.B) {
	n, err := httpcluster.LaunchNode(httpcluster.NodeOptions{ID: 0})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Shutdown()
	h := n.Handler()
	req := httptest.NewRequest("GET", "/exec?w=0.5&demand=0&size=64", nil)
	rw := &discardRW{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.reset()
		h.ServeHTTP(rw, req)
	}
	if rw.code != 0 && rw.code != http.StatusOK {
		b.Fatalf("status %d", rw.code)
	}
}
