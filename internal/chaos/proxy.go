// Package chaos drives a live msweb cluster through scripted and
// randomized fault schedules. It is the live-cluster counterpart of the
// simulator's availability events (cluster.AvailabilityEvent): where the
// simulator flips a node's availability bit, chaos interposes a real TCP
// proxy on the master→slave link and makes the failure physical — dead
// listeners, stalled connections, injected latency, slow-loris trickle —
// so the data plane's breakers, retries and shedding are exercised the
// way a switch or kernel would exercise them.
package chaos

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a proxy's current fault injection mode.
type Mode int32

const (
	// ModeOK passes traffic through untouched.
	ModeOK Mode = iota
	// ModeDown refuses new connections and kills established ones — a
	// node crash or reclaimed non-dedicated machine.
	ModeDown
	// ModePaused accepts connections but stalls all traffic — a wedged
	// process or a partitioned switch port.
	ModePaused
	// ModeLatency delays each client→server read burst by the configured
	// amount — a congested or degraded link.
	ModeLatency
	// ModeSlowLoris trickles server→client bytes one at a time — the
	// classic slow-consumer attack shape, from the node's side.
	ModeSlowLoris
	// ModeSlowRequest trickles client→server bytes one at a time — the
	// slow-loris client itself, as the node's edge sees it: a request head
	// that never quite arrives. Random schedules do not draw it (it faults
	// the requester's side of a link, not the node behind it).
	ModeSlowRequest
)

func (m Mode) String() string {
	switch m {
	case ModeOK:
		return "ok"
	case ModeDown:
		return "down"
	case ModePaused:
		return "paused"
	case ModeLatency:
		return "latency"
	case ModeSlowLoris:
		return "slowloris"
	case ModeSlowRequest:
		return "slowrequest"
	default:
		return "mode?"
	}
}

// Proxy is a TCP fault-injection proxy in front of one node. Mode
// changes apply to in-flight connections (pumps poll the mode between
// read bursts), and ModeDown additionally kills tracked connections so
// keepalive pools feel the crash immediately.
type Proxy struct {
	// URL is the proxy's client-facing base URL (http://host:port).
	URL    string
	target string
	lis    net.Listener
	mode   atomic.Int32
	delay  atomic.Int64 // ns, for ModeLatency / ModeSlowLoris pacing
	done   chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewProxy starts a proxy forwarding to targetURL (an http:// base URL
// or a bare host:port) in ModeOK.
func NewProxy(targetURL string) (*Proxy, error) {
	target := strings.TrimPrefix(targetURL, "http://")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		URL:    "http://" + lis.Addr().String(),
		target: target,
		lis:    lis,
		done:   make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// SetMode switches the fault mode; delay paces ModeLatency (per read
// burst) and ModeSlowLoris / ModeSlowRequest (per byte). ModeDown kills
// live connections.
func (p *Proxy) SetMode(m Mode, delay time.Duration) {
	p.delay.Store(int64(delay))
	p.mode.Store(int32(m))
	if m == ModeDown {
		p.killConns()
	}
}

// Mode returns the current fault mode.
func (p *Proxy) Mode() Mode { return Mode(p.mode.Load()) }

// Close stops the proxy and severs every connection.
func (p *Proxy) Close() {
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	p.lis.Close() //nolint:errcheck
	p.killConns()
	p.wg.Wait()
}

func (p *Proxy) killConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close() //nolint:errcheck
	}
	p.mu.Unlock()
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		if p.Mode() == ModeDown {
			conn.Close() //nolint:errcheck
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			conn.Close() //nolint:errcheck
			continue
		}
		p.track(conn)
		p.track(up)
		p.wg.Add(2)
		go p.pump(up, conn, true)
		go p.pump(conn, up, false)
	}
}

// sleep waits d unless the proxy is closing.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.done:
		return false
	case <-t.C:
		return true
	}
}

// pump copies one direction of a proxied connection, applying the
// current fault mode per read burst. The read deadline doubles as the
// poll interval, so a mode change (or Close) takes effect within ~100 ms
// even on an idle keepalive connection.
func (p *Proxy) pump(dst, src net.Conn, toServer bool) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer p.untrack(dst)
	defer src.Close() //nolint:errcheck
	defer dst.Close() //nolint:errcheck
	buf := make([]byte, 32<<10)
	for {
		select {
		case <-p.done:
			return
		default:
		}
		for p.Mode() == ModePaused {
			if !p.sleep(20 * time.Millisecond) {
				return
			}
		}
		src.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
		n, err := src.Read(buf)
		if n > 0 {
			delay := time.Duration(p.delay.Load())
			switch mode := p.Mode(); {
			case mode == ModeLatency:
				if toServer && !p.sleep(delay) {
					return
				}
			case mode == ModeSlowLoris && !toServer, mode == ModeSlowRequest && toServer:
				if delay <= 0 {
					delay = 2 * time.Millisecond
				}
				wrote := true
				for i := 0; i < n && wrote; i++ {
					if _, werr := dst.Write(buf[i : i+1]); werr != nil {
						return
					}
					wrote = p.sleep(delay)
				}
				if !wrote {
					return
				}
				continue
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
	}
}
