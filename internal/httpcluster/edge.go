package httpcluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// The node's HTTP/1.1 edge.
//
// net/http spends ~20 µs around a static /req whose handler runs for
// half a microsecond: a header map, a background-read goroutine per
// request, content sniffing, a header flush apart from the body write.
// The θ₂ reservation exists so that masters can serve statics cheaply,
// so every node accepts its own connections and runs a request loop per
// connection that reads heads in place from a connection-owned reader
// and dispatches each one three ways:
//
//	GET /req?… HTTP/1.1    → parseReqQuery + serveReq, the reply built in a
//	                         connection-owned buffer, one writev with the body
//	GET /frame + Upgrade   → 101, then serveFrames on the same reader
//	anything else          → the connection, with the bytes already buffered,
//	                         goes to the http.Server and stays there
//
// "Anything else" is every other path and method, HTTP/1.0, any framing
// header (Content-Length, Transfer-Encoding, Expect, Upgrade on /req),
// bare-LF line ends, folded headers, a byte outside printable ASCII, a
// missing or repeated Host — whatever parseEdgeHead is not certain
// net/http would read exactly as it does. The edge therefore implements
// no cold route and rejects nothing except an oversized or overdue
// head; FuzzEdgeHead holds its parser to http.ReadRequest, and
// TestEdgeReplyMatchesHandler holds its replies to handleRequest's.
//
// An edge reply carries the status line, Content-Length, the load and
// shard stamps on a 200, Retry-After on a 503 and Connection: close when
// the client asked for it — no Date and no Content-Type (the bodies are
// filler).

const (
	// edgeMaxHead bounds a request head on both paths: the edge's reader
	// holds at most this much, and the http.Server gets it as
	// MaxHeaderBytes.
	edgeMaxHead = 8 << 10
	// edgeHeadTimeout bounds how long a started head may stay incomplete
	// (ReadHeaderTimeout on the http.Server; a head handed off after its
	// request line starts that clock afresh, so twice this at worst). An
	// idle keep-alive connection has no started head and is not bounded.
	edgeHeadTimeout = 10 * time.Second
	// edgeLinger is how long a connection refused with 431 stays readable
	// after its reply, so that closing it with unread request bytes does
	// not reset the reply away.
	edgeLinger = 500 * time.Millisecond
)

// edgeRoute is parseEdgeHead's verdict on the buffered bytes.
type edgeRoute uint8

const (
	edgeIncomplete edgeRoute = iota // no decision yet: read more
	edgeHandoff                     // not certainly native: net/http serves it
	edgeReq                         // GET /req, no body
	edgeFrame                       // GET /frame upgrading to frameProtocol
)

// edgeHead is one parsed head. query and timeout alias the read buffer.
type edgeHead struct {
	route   edgeRoute
	n       int    // bytes of the head, blank line included (native routes)
	query   []byte // RawQuery of /req
	timeout []byte // first TimeoutHeader value
	close   bool   // the client sent Connection: close
}

// Byte classes of the heads the edge keeps. Each is a subset of what
// net/http accepts, so a byte outside it costs a hand-off, never a
// disagreement.
func edgeNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_'
}

func edgeHostByte(c byte) bool {
	return edgeNameByte(c) || c == '.' || c == ':' || c == '[' || c == ']'
}

func edgeAll(b []byte, class func(byte) bool) bool {
	for _, c := range b {
		if !class(c) {
			return false
		}
	}
	return true
}

func edgeVisible(c byte) bool { return 0x21 <= c && c <= 0x7e }

func edgeValueByte(c byte) bool { return edgeVisible(c) || c == ' ' || c == '\t' }

// foldEq reports whether b equals the lower-case ASCII string s,
// ignoring b's case.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// edgeLine cuts the line starting at b[pos]. more is false when its LF
// has not arrived; strict is false when it does not end in CRLF.
func edgeLine(b []byte, pos int) (line []byte, next int, more, strict bool) {
	i := bytes.IndexByte(b[pos:], '\n')
	if i < 0 {
		return nil, pos, false, false
	}
	line, next = b[pos:pos+i], pos+i+1
	if len(line) == 0 || line[len(line)-1] != '\r' {
		return line, next, true, false
	}
	return line[:len(line)-1], next, true, true
}

// parseEdgeHead classifies the head at the start of b. It accepts a head
// natively only when every line is one net/http reads the same way; b
// may hold more than one head (pipelining) or less (edgeIncomplete).
func parseEdgeHead(b []byte) edgeHead {
	handoff := edgeHead{route: edgeHandoff}
	line, pos, more, strict := edgeLine(b, 0)
	if !more {
		return edgeHead{}
	}
	const version = " HTTP/1.1"
	if !strict || !bytes.HasSuffix(line, []byte(version)) {
		return handoff
	}
	var h edgeHead
	target := line[:len(line)-len(version)]
	const req = "GET /req"
	switch {
	case string(target) == "GET /frame":
		h.route = edgeFrame
	case bytes.HasPrefix(target, []byte(req)):
		if rest := target[len(req):]; len(rest) > 0 {
			if rest[0] != '?' || !edgeAll(rest[1:], edgeVisible) {
				return handoff
			}
			h.query = rest[1:]
		}
		h.route = edgeReq
	default:
		return handoff
	}

	// Connection may appear once, with one token.
	const (
		connAbsent = iota
		connKeepAlive
		connClose
		connUpgrade
	)
	conn, hosts, upgrade, timeout := connAbsent, 0, false, false
	for {
		line, pos, more, strict = edgeLine(b, pos)
		if !more {
			return edgeHead{}
		}
		if !strict {
			return handoff
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return handoff
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		if !edgeAll(name, edgeNameByte) || !edgeAll(val, edgeValueByte) {
			return handoff
		}
		switch {
		case foldEq(name, "host"):
			if hosts++; len(val) == 0 || !edgeAll(val, edgeHostByte) {
				return handoff
			}
		case foldEq(name, "connection"):
			switch {
			case conn != connAbsent:
				return handoff
			case foldEq(val, "keep-alive"):
				conn = connKeepAlive
			case foldEq(val, "close"):
				conn = connClose
			case foldEq(val, "upgrade"):
				conn = connUpgrade
			default:
				return handoff
			}
		case foldEq(name, "upgrade"):
			if upgrade || !foldEq(val, frameProtocol) {
				return handoff
			}
			upgrade = true
		case foldEq(name, "x-msweb-timeout-ms"):
			if !timeout {
				h.timeout, timeout = val, true
			}
		case foldEq(name, "content-length"), foldEq(name, "transfer-encoding"),
			foldEq(name, "expect"), foldEq(name, "trailer"):
			return handoff
		}
	}
	if hosts != 1 {
		return handoff
	}
	if h.route == edgeFrame {
		if !upgrade || conn == connClose || conn == connKeepAlive {
			return handoff
		}
	} else if upgrade || conn == connUpgrade {
		return handoff
	}
	h.n, h.close = pos, conn == connClose
	return h
}

// str views b as a string without copying it. The edge hands such views
// to parsers that return numbers (parseReqQuery, parseTimeoutMs) and
// drops them before the next read reuses the buffer.
func str(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// handoffListener is the in-memory net.Listener through which the edge
// gives a connection to the node's http.Server.
type handoffListener struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newHandoffListener(addr net.Addr) *handoffListener {
	return &handoffListener{addr: addr, conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *handoffListener) Addr() net.Addr { return l.addr }

// push gives c to the server; false means the server has shut down and
// c is still the caller's.
func (l *handoffListener) push(c net.Conn) bool {
	select {
	case l.conns <- c:
		return true
	case <-l.done:
		return false
	}
}

// handedConn is a connection net/http takes over mid-stream: reads
// drain what the edge had buffered, then go to the socket.
type handedConn struct {
	net.Conn
	br *bufio.Reader // nil once drained
}

func (c *handedConn) Read(p []byte) (int, error) {
	if c.br != nil {
		if c.br.Buffered() > 0 {
			return c.br.Read(p)
		}
		c.br = nil
	}
	return c.Conn.Read(p)
}

// CloseWrite keeps the half-close net/http uses after an error reply
// reachable through the wrapper.
func (c *handedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// trackEdgeConn registers an accepted connection so Shutdown can close
// it. ok is false when the node is already shutting down.
func (n *Node) trackEdgeConn(c net.Conn) (ok bool) {
	n.edgeMu.Lock()
	defer n.edgeMu.Unlock()
	if n.edgeClosed.Load() {
		return false
	}
	n.edgeConns[c] = struct{}{}
	n.edgeWG.Add(1)
	return true
}

func (n *Node) untrackEdgeConn(c net.Conn) {
	n.edgeMu.Lock()
	delete(n.edgeConns, c)
	n.edgeMu.Unlock()
	n.edgeWG.Done()
}

// EdgeConns reports the live connections the edge owns, upgraded frame
// connections included. Connections handed to net/http are not among
// them.
func (n *Node) EdgeConns() int {
	n.edgeMu.Lock()
	defer n.edgeMu.Unlock()
	return len(n.edgeConns)
}

// FrameConns reports the live connections upgraded to the frame
// protocol.
func (n *Node) FrameConns() int { return int(n.frameConns.Load()) }

// closeEdgeConns kills every connection the edge owns and waits for
// their loops and the accept loop to exit. Shutdown has flipped
// edgeClosed first, so a track racing the walk either lands in the map
// before the walk locks it (and is closed by it) or observes the flag
// and refuses.
func (n *Node) closeEdgeConns() {
	n.edgeMu.Lock()
	for c := range n.edgeConns {
		c.Close() //nolint:errcheck // unblocks the connection's loop
	}
	n.edgeMu.Unlock()
	n.edgeWG.Wait()
}

// acceptLoop owns the node's listener until Shutdown closes it.
func (n *Node) acceptLoop() {
	defer n.edgeWG.Done()
	var delay time.Duration
	for {
		c, err := n.lis.Accept()
		if err != nil {
			if n.edgeClosed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors or the like: back off, as net/http does.
			if delay = max(2*delay, 5*time.Millisecond); delay > time.Second {
				delay = time.Second
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		if !n.trackEdgeConn(c) {
			c.Close() //nolint:errcheck // shutting down
			return
		}
		go n.serveEdgeConn(c)
	}
}

// edgeConn is one connection's loop state; all of its scratch is
// connection-owned, so a steady-state /req exchange allocates nothing.
type edgeConn struct {
	n     *Node
	c     net.Conn
	br    *bufio.Reader
	out   []byte      // reply head (and error body)
	vec   [][]byte    // out + body chunks, rebuilt per reply
	bufs  net.Buffers // the writev cursor over vec
	armed bool        // a head deadline is set on c
	// handoff: the loop ended on a head for net/http, still buffered.
	handoff bool
}

// serveEdgeConn runs one tracked connection until it ends or changes
// hands.
func (n *Node) serveEdgeConn(c net.Conn) {
	ec := &edgeConn{n: n, c: c, br: bufio.NewReaderSize(c, edgeMaxHead)}
	for ec.next() {
	}
	// Leave the registry before net/http can run a handler on the
	// connection, so /metrics never counts the connection it is served on.
	n.untrackEdgeConn(c)
	if ec.handoff {
		n.edgeHandoffs.Add(1)
		if n.handoff.push(&handedConn{Conn: c, br: ec.br}) {
			return
		}
	}
	c.Close() //nolint:errcheck // nothing left to flush
}

// next reads and serves one head; false ends the connection's loop.
func (ec *edgeConn) next() bool {
	var h edgeHead
	for {
		buf, _ := ec.br.Peek(ec.br.Buffered())
		if h = parseEdgeHead(buf); h.route != edgeIncomplete {
			break
		}
		if len(buf) >= edgeMaxHead {
			ec.refuseLargeHead()
			return false
		}
		if len(buf) > 0 && !ec.armed {
			// Only a started head is on the clock; the hot path (an empty
			// buffer filled by one whole head) never sets a deadline.
			ec.c.SetReadDeadline(time.Now().Add(edgeHeadTimeout)) //nolint:errcheck // a failure shows as a read error
			ec.armed = true
		}
		if _, err := ec.br.Peek(len(buf) + 1); err != nil {
			return false // closed, reset, or the head ran out of time
		}
	}
	if ec.armed {
		ec.c.SetReadDeadline(time.Time{}) //nolint:errcheck // as above
		ec.armed = false
	}
	switch {
	case h.route == edgeFrame:
		ec.br.Discard(h.n) //nolint:errcheck // h.n bytes are buffered
		ec.n.frameConns.Add(1)
		defer ec.n.frameConns.Add(-1)
		if _, err := io.WriteString(ec.c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+
			frameProtocol+"\r\n\r\n"); err == nil {
			ec.n.serveFrames(ec.c, ec.br)
		}
		return false
	case h.route == edgeReq && ec.n.serveClientReq != nil:
		p := parseReqQuery(str(h.query))
		timeoutMs := parseTimeoutMs(str(h.timeout))
		ec.br.Discard(h.n) //nolint:errcheck // h.n bytes are buffered
		return ec.serveReq(p, timeoutMs, h.close) == nil && !h.close
	default:
		ec.handoff = true
		return false
	}
}

// serveReq answers one native /req — the edge's counterpart of
// handleRequest over the same serveReq.
func (ec *edgeConn) serveReq(p reqParams, timeoutMs int64, closeAfter bool) error {
	if msg := p.badField(); msg != "" {
		return ec.replyError(http.StatusBadRequest, 0, msg, closeAfter)
	}
	status, retryAfter := ec.n.serveClientReq(p, time.Now(), timeoutMs)
	switch status {
	case 0:
		return ec.replyOK(p.size, closeAfter)
	case http.StatusServiceUnavailable:
		return ec.replyError(status, retryAfter, msgShed, closeAfter)
	default:
		return ec.replyError(status, 0, msgExhausted, closeAfter)
	}
}

// replyOK sends a 200 with a body under writeBody's size rule, head and
// body in one writev.
func (ec *edgeConn) replyOK(size int64, closeAfter bool) error {
	size = bodySize(size)
	length := size
	if size == 0 {
		length = int64(len(okBody))
	}
	b := append(ec.out[:0], "HTTP/1.1 200 OK\r\nContent-Length: "...)
	b = strconv.AppendInt(b, length, 10)
	b = append(b, "\r\n"...)
	b = appendReplyEnd(b, closeAfter)
	ec.out = b
	ec.vec = append(ec.vec[:0], b)
	if size == 0 {
		ec.vec = append(ec.vec, okBody)
	}
	for size > 0 {
		chunk := min(size, int64(len(bodyChunk)))
		ec.vec = append(ec.vec, bodyChunk[:chunk])
		size -= chunk
	}
	ec.bufs = ec.vec
	_, err := ec.bufs.WriteTo(ec.c)
	return err
}

// replyError sends a status with http.Error's body: the message and a
// newline.
func (ec *edgeConn) replyError(status, retryAfter int, msg string, closeAfter bool) error {
	b := append(ec.out[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(msg)+1), 10)
	b = append(b, "\r\n"...)
	if status == http.StatusServiceUnavailable {
		b = append(b, "Retry-After: "...)
		b = strconv.AppendInt(b, int64(retryAfter), 10)
		b = append(b, "\r\n"...)
	}
	b = appendReplyEnd(b, closeAfter)
	b = append(b, msg...)
	b = append(b, '\n')
	ec.out = b
	_, err := ec.c.Write(b)
	return err
}

// appendReplyEnd closes a reply head.
func appendReplyEnd(b []byte, closeAfter bool) []byte {
	if closeAfter {
		b = append(b, "Connection: close\r\n"...)
	}
	return append(b, "\r\n"...)
}

// refuseLargeHead answers 431 to a head that fills the reader without
// completing, then lets the client read the reply before the close.
func (ec *edgeConn) refuseLargeHead() {
	const status = http.StatusRequestHeaderFieldsTooLarge
	if ec.replyError(status, 0, http.StatusText(status), true) != nil {
		return
	}
	if tc, ok := ec.c.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck // the close that follows is what counts
	}
	ec.c.SetReadDeadline(time.Now().Add(edgeLinger))  //nolint:errcheck // a failure ends the drain at once
	io.CopyN(io.Discard, ec.c, 32*int64(edgeMaxHead)) //nolint:errcheck // draining only
}
