package httpcluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// FrameClient is an external driver's persistent binary-frame connection
// to a master: the 'Q'-frame analogue of GET /req over HTTP. One client
// owns one upgraded connection and its scratch buffers; Do serializes
// callers, so drivers wanting concurrency hold several clients. Statuses
// reuse HTTP codes (200 OK, 400 bad entry, 502 exhausted, 503 shed), so
// a driver's success accounting is transport-independent.
type FrameClient struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	qs   []frameReq
	sts  []int
}

// FrameRequest is one client request sent over a frame connection — the
// binary analogue of the /req query parameters. TimeoutMs > 0 caps the
// server-side deadline budget (the X-Msweb-Timeout-Ms semantics).
type FrameRequest struct {
	Demand    float64
	W         float64
	Script    int
	TimeoutMs int
	Dynamic   bool
	Idem      bool
}

// DialFrame connects to a master's base URL (e.g.
// "http://127.0.0.1:40001"), negotiates the msweb-frame/1 upgrade on
// GET /frame, and returns a persistent client. Peers that refuse the
// upgrade return an error — the caller falls back to HTTP.
func DialFrame(base string, timeout time.Duration) (*FrameClient, error) {
	addr := strings.TrimPrefix(base, "http://")
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	br, err := upgradeFrame(c, addr)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.SetDeadline(time.Time{}) //nolint:errcheck
	return &FrameClient{conn: c, br: br}, nil
}

// Do sends one 'Q' batch and returns per-entry statuses, in request
// order. The returned slice is reused by the next Do on this client.
// Any transport or protocol error poisons the connection; the caller
// should Close and dial fresh.
func (c *FrameClient) Do(reqs []FrameRequest, deadline time.Time) ([]int, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("frame: empty batch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.qs = c.qs[:0]
	for _, r := range reqs {
		c.qs = append(c.qs, frameReq{
			demand: r.Demand, w: r.W,
			script: r.Script, timeoutMs: r.TimeoutMs,
			dynamic: r.Dynamic, idem: r.Idem,
		})
	}
	c.conn.SetDeadline(deadline) //nolint:errcheck
	c.buf = appendReqFrame(c.buf[:0], c.qs)
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, err
	}
	payload, nbuf, err := readFrame(c.br, c.buf)
	c.buf = nbuf
	if err != nil {
		return nil, err
	}
	c.sts, _, _, _, err = parseRespPayload(payload, c.sts[:0])
	if err != nil {
		return nil, err
	}
	if len(c.sts) != len(reqs) {
		return nil, errFrameCount
	}
	return c.sts, nil
}

// Close tears the connection down.
func (c *FrameClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
