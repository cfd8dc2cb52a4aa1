package httpcluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// Persistent binary framing: the one master→slave dispatch transport.
//
// A master runs a dynamic request on a slave by writing one 'E' frame on
// a long-lived connection and reading the 'R' frame back. Each
// connection is upgraded once (HTTP/1.1 Upgrade on GET /frame, so the
// protocol rides the node's one port; the serving side is the edge loop
// in edge.go) and then pooled per target. A peer that refuses or drops
// the upgrade is a dispatch failure like any other (core.NotSent): it
// feeds the breaker and core.Attempts, and the request fails over.
// Frame buffers are connection-owned and reused, so the steady-state
// exchange allocates nothing on either side.
//
// Wire format (all integers little-endian):
//
//	frame    := u32 payloadLen | payload        (payloadLen ≤ 1 MiB)
//	exec     := ver(1) 'E' count(u16) count × entry
//	entry    := demand f64 | w f64 | deadlineNs i64 | flags u8
//	req      := ver(1) 'Q' count(u16) count × qentry
//	qentry   := demand f64 | w f64 | script u32 | timeoutMs u32 | flags u8
//	resp     := ver(1) 'R' count(u16) count × status(u16)
//	            hasLoad u8 [ cpuIdle f64 | diskAvail f64 |
//	                         cpuQueue i32 | diskQueue i32 | speed f64 ]
//	            [ hasSum u8 [ sumLen u16 | sumLen × byte ] ]
//
// 'E' frames carry master→slave exec dispatches (masters send one entry
// per frame; slaves accept up to maxFrameBatch); 'Q' frames carry
// client→master requests (the /req analogue, so external load drivers
// skip HTTP entirely — qentry flags: bit0 dynamic, bit1 idempotent).
// Statuses reuse HTTP codes (200 OK, 400 bad entry, 502 exhausted, 503
// shed, 504 deadline expired) so the master's retry/breaker
// classification is transport-independent. Every response carries the
// node's piggybacked load report, replacing a /load poll round trip;
// sharded masters append their own-shard summary (an s2 line) as the
// optional trailing block, which old readers simply never see (the
// block is absent, not truncated, when the server predates it). A load
// trailer that fails core.Load.Validate makes the whole reply malformed,
// like a short one; a summary that fails to parse is dropped.

const (
	// frameProtocol is the Upgrade token negotiated on GET /frame.
	frameProtocol = "msweb-frame/1"
	// frameVersion versions the payload layout.
	frameVersion = 1
	// frameKindExec / frameKindReq / frameKindResp tag payloads.
	frameKindExec = 'E'
	frameKindReq  = 'Q'
	frameKindResp = 'R'
	// maxFramePayload bounds a frame so a corrupt length prefix cannot
	// make a reader allocate unbounded memory.
	maxFramePayload = 1 << 20
	// maxFrameBatch bounds entries per exec frame.
	maxFrameBatch = 1024
	// execEntrySize is the fixed wire size of one exec entry.
	execEntrySize = 8 + 8 + 8 + 1
	// reqEntrySize is the fixed wire size of one client-request entry.
	reqEntrySize = 8 + 8 + 4 + 4 + 1
	// frameLoadSize is the fixed wire size of a piggybacked load report.
	frameLoadSize = 8 + 8 + 4 + 4 + 8

	execFlagFork = 1 << 0

	reqFlagDynamic = 1 << 0
	reqFlagIdem    = 1 << 1
)

// frameExec is one exec entry: the binary analogue of the /exec query.
type frameExec struct {
	demand, w  float64
	deadlineNs int64 // absolute UnixNano; 0 = none
	fork       bool
}

// frameReq is one client-request entry: the binary analogue of the
// /req query. timeoutMs is the relative deadline budget (0 = server
// default), matching the X-Msweb-Timeout-Ms header's semantics.
type frameReq struct {
	demand, w float64
	script    int
	timeoutMs int
	dynamic   bool
	idem      bool
}

// frame codec -------------------------------------------------------------

// appendExecFrame appends a complete length-prefixed exec frame.
func appendExecFrame(b []byte, reqs []frameExec) []byte {
	payload := 2 + 2 + len(reqs)*execEntrySize
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, frameVersion, frameKindExec)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.demand))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.w))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.deadlineNs))
		var flags byte
		if r.fork {
			flags |= execFlagFork
		}
		b = append(b, flags)
	}
	return b
}

// appendReqFrame appends a complete length-prefixed client-request
// frame (the 'Q' kind external drivers send to a master).
func appendReqFrame(b []byte, reqs []frameReq) []byte {
	payload := 2 + 2 + len(reqs)*reqEntrySize
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, frameVersion, frameKindReq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.demand))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.w))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.script)))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.timeoutMs)))
		var flags byte
		if r.dynamic {
			flags |= reqFlagDynamic
		}
		if r.idem {
			flags |= reqFlagIdem
		}
		b = append(b, flags)
	}
	return b
}

// appendRespFrame appends a complete length-prefixed response frame with
// per-entry statuses, the node's piggybacked load report, and (when sum
// is non-empty) the serving master's own-shard summary line.
func appendRespFrame(b []byte, statuses []int, load core.Load, sum []byte) []byte {
	payload := 2 + 2 + len(statuses)*2 + 1 + frameLoadSize + 1
	if len(sum) > 0 {
		payload += 2 + len(sum)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, frameVersion, frameKindResp)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(statuses)))
	for _, st := range statuses {
		b = binary.LittleEndian.AppendUint16(b, uint16(st))
	}
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(load.CPUIdle))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(load.DiskAvail))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(load.CPUQueue)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(load.DiskQueue)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(load.Speed))
	if len(sum) == 0 {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(sum)))
	return append(b, sum...)
}

var (
	errFrameShort   = errors.New("frame: truncated payload")
	errFrameVersion = errors.New("frame: unknown version")
	errFrameKind    = errors.New("frame: unexpected kind")
	errFrameCount   = errors.New("frame: entry count out of range")
)

// parseExecPayload decodes an exec payload, appending entries to dst.
// Malformed input returns an error; it never panics or reads past the
// payload (the fuzz harness's contract).
func parseExecPayload(payload []byte, dst []frameExec) ([]frameExec, error) {
	if len(payload) < 4 {
		return dst, errFrameShort
	}
	if payload[0] != frameVersion {
		return dst, errFrameVersion
	}
	if payload[1] != frameKindExec {
		return dst, errFrameKind
	}
	count := int(binary.LittleEndian.Uint16(payload[2:]))
	if count < 1 || count > maxFrameBatch {
		return dst, errFrameCount
	}
	body := payload[4:]
	if len(body) != count*execEntrySize {
		return dst, errFrameShort
	}
	for i := 0; i < count; i++ {
		e := body[i*execEntrySize:]
		dst = append(dst, frameExec{
			demand:     math.Float64frombits(binary.LittleEndian.Uint64(e)),
			w:          math.Float64frombits(binary.LittleEndian.Uint64(e[8:])),
			deadlineNs: int64(binary.LittleEndian.Uint64(e[16:])),
			fork:       e[24]&execFlagFork != 0,
		})
	}
	return dst, nil
}

// parseReqPayload decodes a client-request ('Q') payload, appending
// entries to dst. Same safety contract as parseExecPayload.
func parseReqPayload(payload []byte, dst []frameReq) ([]frameReq, error) {
	if len(payload) < 4 {
		return dst, errFrameShort
	}
	if payload[0] != frameVersion {
		return dst, errFrameVersion
	}
	if payload[1] != frameKindReq {
		return dst, errFrameKind
	}
	count := int(binary.LittleEndian.Uint16(payload[2:]))
	if count < 1 || count > maxFrameBatch {
		return dst, errFrameCount
	}
	body := payload[4:]
	if len(body) != count*reqEntrySize {
		return dst, errFrameShort
	}
	for i := 0; i < count; i++ {
		e := body[i*reqEntrySize:]
		flags := e[24]
		dst = append(dst, frameReq{
			demand:    math.Float64frombits(binary.LittleEndian.Uint64(e)),
			w:         math.Float64frombits(binary.LittleEndian.Uint64(e[8:])),
			script:    int(int32(binary.LittleEndian.Uint32(e[16:]))),
			timeoutMs: int(int32(binary.LittleEndian.Uint32(e[20:]))),
			dynamic:   flags&reqFlagDynamic != 0,
			idem:      flags&reqFlagIdem != 0,
		})
	}
	return dst, nil
}

// parseRespPayload decodes a response payload, appending statuses to
// dst and returning the piggybacked load report and, when the serving
// master attached one, its shard-summary line (aliasing payload — copy
// before the frame buffer is reused). Responses that end right after
// the load block (peers predating the summary extension) parse as
// summary-less rather than short.
func parseRespPayload(payload []byte, dst []int) ([]int, core.Load, bool, []byte, error) {
	var load core.Load
	if len(payload) < 4 {
		return dst, load, false, nil, errFrameShort
	}
	if payload[0] != frameVersion {
		return dst, load, false, nil, errFrameVersion
	}
	if payload[1] != frameKindResp {
		return dst, load, false, nil, errFrameKind
	}
	count := int(binary.LittleEndian.Uint16(payload[2:]))
	if count < 1 || count > maxFrameBatch {
		return dst, load, false, nil, errFrameCount
	}
	body := payload[4:]
	if len(body) < count*2+1 {
		return dst, load, false, nil, errFrameShort
	}
	for i := 0; i < count; i++ {
		dst = append(dst, int(binary.LittleEndian.Uint16(body[i*2:])))
	}
	body = body[count*2:]
	hasLoad := body[0] != 0
	body = body[1:]
	if hasLoad {
		if len(body) < frameLoadSize {
			return dst, load, false, nil, errFrameShort
		}
		load.CPUIdle = math.Float64frombits(binary.LittleEndian.Uint64(body))
		load.DiskAvail = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		load.CPUQueue = int(int32(binary.LittleEndian.Uint32(body[16:])))
		load.DiskQueue = int(int32(binary.LittleEndian.Uint32(body[20:])))
		load.Speed = math.Float64frombits(binary.LittleEndian.Uint64(body[24:]))
		if err := load.Validate(); err != nil {
			return dst, core.Load{}, false, nil, err
		}
		body = body[frameLoadSize:]
	}
	sum, err := parseRespSummary(body)
	if err != nil {
		return dst, load, false, nil, err
	}
	return dst, load, hasLoad, sum, nil
}

// parseRespSummary decodes the optional trailing summary block.
func parseRespSummary(body []byte) ([]byte, error) {
	if len(body) == 0 {
		return nil, nil // pre-extension peer: no block at all
	}
	hasSum := body[0] != 0
	body = body[1:]
	if !hasSum {
		if len(body) != 0 {
			return nil, errFrameShort
		}
		return nil, nil
	}
	if len(body) < 2 {
		return nil, errFrameShort
	}
	n := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if len(body) != n || n == 0 {
		return nil, errFrameShort
	}
	return body, nil
}

// readFrame reads one length-prefixed frame into buf (grown as needed)
// and returns the payload slice aliasing buf.
func readFrame(br *bufio.Reader, buf []byte) (payload, nbuf []byte, err error) {
	// Read the prefix byte-wise through the concrete reader: a stack
	// [4]byte handed to io.ReadFull escapes through the interface and
	// costs one heap allocation per frame.
	var n int
	for shift := 0; shift < 32; shift += 8 {
		b, err := br.ReadByte()
		if err != nil {
			if shift > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, buf, err
		}
		n |= int(b) << shift
	}
	if n < 1 || n > maxFramePayload {
		return nil, buf, fmt.Errorf("frame: payload length %d out of range", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// slave side --------------------------------------------------------------

// serveFrames is one connection's exchange loop, dispatching on the
// payload kind: 'E' entries run in order on the node's resources, 'Q'
// client batches run through a master's full /req pipeline (refused
// entry-wise with 501 on plain nodes). All scratch is connection-owned,
// so a steady-state exchange allocates nothing. A malformed frame drops
// the connection: the peer is either corrupt or hostile, and the master
// will fall back to a fresh dial.
func (n *Node) serveFrames(conn net.Conn, br *bufio.Reader) {
	var buf, out []byte
	var reqs []frameExec
	var creqs []frameReq
	var statuses []int
	for {
		payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			return
		}
		count := 0
		if len(payload) >= 2 && payload[1] == frameKindReq {
			creqs, err = parseReqPayload(payload, creqs[:0])
			count = len(creqs)
		} else {
			reqs, err = parseExecPayload(payload, reqs[:0])
			count = len(reqs)
		}
		if err != nil {
			return
		}
		if cap(statuses) < count {
			statuses = make([]int, count)
		}
		statuses = statuses[:count]
		if len(creqs) > 0 {
			if n.serveClientFrames == nil {
				for i := range statuses {
					statuses[i] = http.StatusNotImplemented
				}
			} else {
				n.serveClientFrames(creqs, statuses)
			}
			creqs = creqs[:0]
		} else {
			for i := range reqs {
				statuses[i] = n.execOne(reqs[i])
			}
		}
		n.framesServed.Add(1)
		var sum []byte
		if s := n.shardWire.Load(); s != nil {
			sum = s.wire
		}
		out = appendRespFrame(out[:0], statuses, n.currentLoad().load, sum)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// execOne runs one exec request through the node's deadline check and
// virtual resources, returning an HTTP-style status. Shared by the frame
// loop and the node's HTTP /exec handler so the two cannot drift on
// deadline semantics.
func (n *Node) execOne(r frameExec) int {
	if !validDemand(r.demand) || math.IsNaN(r.w) {
		return http.StatusBadRequest
	}
	if r.deadlineNs > 0 && time.Now().UnixNano() >= r.deadlineNs {
		n.deadlineExpired.Add(1)
		return http.StatusGatewayTimeout
	}
	n.runWork(r.demand, r.w, r.fork)
	return http.StatusOK
}

// master side -------------------------------------------------------------

// frameIdleCap bounds the idle framed connections pooled per target.
const frameIdleCap = 64

// frameConn is one upgraded connection with its connection-owned
// scratch.
type frameConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

// frameDialer is a master's dispatch client: one pool of persistent,
// upgraded connections per target.
type frameDialer struct {
	m    *Master
	idle []chan *frameConn
}

func newFrameDialer(m *Master, n int) *frameDialer {
	f := &frameDialer{m: m, idle: make([]chan *frameConn, n)}
	for i := range f.idle {
		f.idle[i] = make(chan *frameConn, frameIdleCap)
	}
	return f
}

// close drains and closes every pooled connection.
func (f *frameDialer) close() {
	for _, idle := range f.idle {
	drain:
		for {
			select {
			case fc := <-idle:
				fc.c.Close()
			default:
				break drain
			}
		}
	}
}

// acquire returns a framed connection to target, dialing and upgrading
// when the pool is empty. When it cannot, nothing was sent: the outcome
// is Expired when the deadline left no time to dial, else NotSent (no
// URL, a failed dial or upgrade). It is Served when fc is usable.
func (f *frameDialer) acquire(target int, deadline time.Time) (fc *frameConn, out core.Outcome) {
	select {
	case fc := <-f.idle[target]:
		return fc, core.Served
	default:
	}
	dialTO := time.Until(deadline)
	if dialTO <= 0 {
		return nil, core.Expired
	}
	fc, err := f.dial(target, min(dialTO, 5*time.Second), deadline)
	if err != nil {
		return nil, core.NotSent
	}
	f.m.frameDials.Add(1)
	return fc, core.Served
}

// dial opens one connection to target within dialTO and upgrades it to
// frames.
func (f *frameDialer) dial(target int, dialTO time.Duration, deadline time.Time) (*frameConn, error) {
	base := f.m.nodeURL(target)
	if base == "" {
		return nil, fmt.Errorf("no URL for node %d", target)
	}
	addr := strings.TrimPrefix(base, "http://")
	c, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(deadline) //nolint:errcheck
	br, err := upgradeFrame(c, addr)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &frameConn{c: c, br: br}, nil
}

// upgradeFrame sends the GET /frame upgrade on c and reads the peer's
// answer; anything but 101 Switching Protocols is an error. Every later
// read must go through the returned reader, which may already hold the
// first frame's bytes.
func upgradeFrame(c net.Conn, addr string) (*bufio.Reader, error) {
	if _, err := io.WriteString(c, "GET /frame HTTP/1.1\r\nHost: "+addr+
		"\r\nConnection: Upgrade\r\nUpgrade: "+frameProtocol+"\r\n\r\n"); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(c, 4<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("frame: peer refused upgrade (status %d)", resp.StatusCode)
	}
	return br, nil
}

// release returns a healthy connection to the pool (or closes it when
// the pool is full).
func (f *frameDialer) release(target int, fc *frameConn) {
	select {
	case f.idle[target] <- fc:
	default:
		fc.c.Close()
	}
}

// exchange performs one framed request/response round trip: statuses
// for every entry are appended to dst, and the response's piggybacked
// load report is folded into the master's view. The outcome is Served
// when a well-formed reply came back, whatever its statuses; a failure
// after the frame was written is MayHaveRun, and closes the connection
// (the next call dials fresh).
func (f *frameDialer) exchange(target int, reqs []frameExec, dst []int, deadline time.Time) ([]int, core.Outcome) {
	fc, out := f.acquire(target, deadline)
	if fc == nil {
		return dst, out
	}
	fc.c.SetDeadline(deadline) //nolint:errcheck
	fc.buf = appendExecFrame(fc.buf[:0], reqs)
	if _, err := fc.c.Write(fc.buf); err != nil {
		fc.c.Close()
		return dst, core.MayHaveRun
	}
	payload, nbuf, err := readFrame(fc.br, fc.buf)
	fc.buf = nbuf
	if err != nil {
		fc.c.Close()
		return dst, core.MayHaveRun
	}
	dst, load, hasLoad, sum, err := parseRespPayload(payload, dst)
	if err != nil || len(dst) != len(reqs) {
		fc.c.Close()
		return dst, core.MayHaveRun
	}
	if hasLoad {
		f.m.storePiggy(target, load)
	}
	if len(sum) > 0 {
		// A sharded peer answered: fold its shard summary before the
		// frame buffer (which sum aliases) is reused.
		f.m.storeShardSummaryWire(sum)
	}
	f.release(target, fc)
	return dst, core.Served
}

// runFrameReqs serves a 'Q' batch through the master's /req pipeline —
// the hook behind Node.serveClientFrames. Entries run concurrently
// (each may block in dispatch or virtual work), mirroring how separate
// HTTP /req calls would interleave.
func (m *Master) runFrameReqs(reqs []frameReq, statuses []int) {
	if len(reqs) == 1 {
		statuses[0] = m.serveFrameReq(reqs[0])
		return
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = m.serveFrameReq(reqs[i])
		}(i)
	}
	wg.Wait()
}

// serveFrameReq adapts one 'Q' entry to serveReq, returning the same
// status taxonomy /req answers with (200, 400, 502, 503).
func (m *Master) serveFrameReq(r frameReq) int {
	if !validDemand(r.demand) || math.IsNaN(r.w) {
		return http.StatusBadRequest
	}
	p := reqParams{demand: r.demand, w: r.w, demandOK: true, wOK: true,
		script: r.script, idem: r.idem}
	if r.dynamic {
		p.class = trace.Dynamic
	}
	status, _ := m.serveReq(p, time.Now(), int64(r.timeoutMs))
	if status == 0 {
		return http.StatusOK
	}
	return status
}
