package httpcluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/trace"
)

// Deadline-propagation headers. Clients hand the master a relative
// budget; the master forwards the resolved absolute deadline in each 'E'
// frame entry so slaves on the same clock (a loopback cluster) can
// refuse work that already expired in their queue.
const (
	// TimeoutHeader carries the client's relative deadline budget for a
	// /req call, in milliseconds.
	TimeoutHeader = "X-Msweb-Timeout-Ms"
	// DeadlineHeader carries the absolute deadline (UnixNano) on a call
	// to a node's HTTP /exec endpoint: the 'E' entry's deadline field.
	DeadlineHeader = "X-Msweb-Deadline-Ns"
)

// Node is one cluster machine: virtual resources behind a real HTTP
// server exposing /frame (run work over 'E' frames, the masters'
// dispatch transport), /exec (its HTTP adapter), /load (report load)
// and /metrics (Prometheus text exposition). Masters additionally
// expose /req (see Master). The node's own edge loop (edge.go) accepts
// every connection and serves GET /req and the /frame upgrade natively;
// every other request reaches srv and mux through the hand-off listener.
type Node struct {
	ID        int
	URL       string
	res       *NodeResources
	fork      time.Duration
	timeScale float64
	origin    time.Time
	srv       *http.Server
	// lis holds the node's listener shards: SO_REUSEPORT sockets sharing
	// one port, each served by its own accept loop (see listener.go).
	// One entry — the pre-sharding layout — unless ListenerShards asked
	// for more and the platform cooperated.
	lis []net.Listener
	mux *http.ServeMux
	// handoff feeds srv the connections the edge does not serve itself.
	handoff *handoffListener

	// Request counters are plain atomics: the hot path pays two
	// uncontended atomic adds instead of a mutex round trip.
	executed        atomic.Int64
	cgiServed       atomic.Int64
	deadlineExpired atomic.Int64
	framesServed    atomic.Int64

	// stamp caches the node's piggybacked load report (see piggyback.go).
	stamp atomic.Pointer[loadStamp]

	// shardWire is the own-shard summary a sharded master piggybacks on
	// its responses and serves at /shard (see shard.go). Always nil on
	// slaves and unsharded masters, so the plain data plane pays one
	// atomic load and a branch.
	shardWire atomic.Pointer[shardStamp]

	// serveClientFrames, when set (masters only), serves client-request
	// ('Q') frames through the master's full /req pipeline; nil nodes
	// refuse the frame kind. serveClientReq is the same hook for the
	// edge's native GET /req; nil nodes hand /req to the mux (a 404).
	serveClientFrames func(reqs []frameReq, statuses []int)
	serveClientReq    func(p reqParams, start time.Time, timeoutMs int64) (status, retryAfter int)

	// Connections the edge owns — in its HTTP request loop or upgraded
	// to frames — are invisible to srv.Shutdown and tracked here so
	// Shutdown can close them (see edge.go). The registry is sharded
	// alongside the listeners: connection open/close on one shard never
	// contends with the others, so a listener shard's accept path stays
	// independent end to end. edgeWG counts the accept loops and every
	// connection loop.
	edgeReg      []edgeConnShard
	edgeClosed   atomic.Bool
	edgeWG       sync.WaitGroup
	frameConns   atomic.Int64
	edgeHandoffs atomic.Int64

	// statsMu guards only the two windowed aggregates below; nothing on
	// the request path blocks behind anything slower than an Observe.
	statsMu sync.Mutex
	svcHist *obs.Histogram       // per-request service time (unscaled s)
	reqRate *obs.WindowedCounter // trailing-window request arrivals
}

// newNode allocates the node core and its listener; the HTTP server is
// attached by serve() once the role-specific mux exists. The options
// must already carry defaults (withDefaults).
func newNode(o NodeOptions) (*Node, error) {
	lis, err := multiListen(o.ListenerShards)
	if err != nil {
		return nil, err
	}
	return &Node{
		ID:        o.ID,
		URL:       "http://" + lis[0].Addr().String(),
		res:       NewNodeResources(o.Origin, o.TimeScale, o.Uncalibrated),
		fork:      time.Duration(float64(3*time.Millisecond) * o.TimeScale),
		timeScale: o.TimeScale,
		origin:    o.Origin,
		lis:       lis,
		edgeReg:   make([]edgeConnShard, len(lis)),
		svcHist:   obs.NewHistogram(),
		reqRate:   obs.NewWindowedCounter(10, 10),
	}, nil
}

// serve starts the http.Server over the role-specific mux and one edge
// accept loop per listener shard. The http.Server never sees a socket
// of its own: it serves the connections the edge hands off, under the
// same head bounds the edge enforces.
func (n *Node) serve() {
	n.handoff = newHandoffListener(n.lis[0].Addr())
	n.srv = &http.Server{
		Handler:           n.mux,
		ReadHeaderTimeout: edgeHeadTimeout,
		MaxHeaderBytes:    edgeMaxHead,
	}
	go n.srv.Serve(n.handoff) //nolint:errcheck // Serve returns on Shutdown
	for shard, l := range n.lis {
		n.edgeWG.Add(1)
		go n.acceptLoop(shard, l)
	}
}

// ListenerShards reports how many accept loops the node actually runs —
// the requested shard count, or 1 after a portability fallback.
func (n *Node) ListenerShards() int { return len(n.lis) }

// Handler returns the node's HTTP mux, so the serving path can be
// exercised (benchmarked, embedded) without a TCP round trip.
func (n *Node) Handler() http.Handler { return n.mux }

// Executed returns how many requests the node has run.
func (n *Node) Executed() int64 { return n.executed.Load() }

// CGIServed returns how many forked (dynamic) requests the node ran.
func (n *Node) CGIServed() int64 { return n.cgiServed.Load() }

// DeadlineExpired returns how many exec requests arrived with their
// propagated deadline already passed.
func (n *Node) DeadlineExpired() int64 { return n.deadlineExpired.Load() }

// runWork performs a request's work on the node's virtual resources. A
// scaled demand past time.Duration's range saturates instead of wrapping.
func (n *Node) runWork(demand float64, w float64, forked bool) {
	start := time.Now()
	d := time.Duration(math.MaxInt64)
	if ns := demand * n.timeScale * float64(time.Second); ns < math.MaxInt64 {
		d = time.Duration(ns)
	}
	if forked {
		n.res.CPU.Use(n.fork)
	}
	n.res.Execute(d, w)
	end := time.Now()
	service := end.Sub(start).Seconds() / n.timeScale
	now := end.Sub(n.origin).Seconds()
	n.executed.Add(1)
	if forked {
		n.cgiServed.Add(1)
	}
	n.statsMu.Lock()
	n.svcHist.Observe(service)
	n.reqRate.Add(now, 1)
	n.statsMu.Unlock()
}

// maxDemand bounds a request's demand in seconds: about 11.6 days, far
// above any trace's demand, and inside time.Duration's range once scaled
// at any time scale below 9000.
const maxDemand = 1e6

// validDemand reports whether d is a demand a node may run: finite,
// non-negative and at most maxDemand seconds. /exec, /req and the E and
// Q frame entries all refuse any other demand with 400.
func validDemand(d float64) bool { return d >= 0 && d <= maxDemand }

// badField names the required query field that is missing or invalid —
// the 400 message of /exec and of both /req adapters — or "" when the
// request is acceptable.
func (p reqParams) badField() string {
	if !p.demandOK || !validDemand(p.demand) {
		return "bad demand"
	}
	if !p.wOK || math.IsNaN(p.w) {
		return "bad w"
	}
	return ""
}

func (n *Node) handleExec(rw http.ResponseWriter, req *http.Request) {
	p := parseReqQuery(req.URL.RawQuery)
	if msg := p.badField(); msg != "" {
		http.Error(rw, msg, http.StatusBadRequest)
		return
	}
	var dl int64
	if h := req.Header.Get(DeadlineHeader); h != "" {
		if ns, err := strconv.ParseInt(h, 10, 64); err == nil && ns > 0 {
			dl = ns
		}
	}
	// execOne is the single admission+execution path shared with the
	// frame loop (see frame.go): this handler is its HTTP adapter.
	switch n.execOne(frameExec{demand: p.demand, w: p.w, deadlineNs: dl, fork: p.fork}) {
	case http.StatusBadRequest:
		http.Error(rw, "bad demand", http.StatusBadRequest)
	case http.StatusGatewayTimeout:
		http.Error(rw, "deadline expired before execution", http.StatusGatewayTimeout)
	default:
		writeBody(rw, p.size)
	}
}

// okBody is the fallback response body when no size is requested.
var okBody = []byte("ok\n")

// bodySize applies the size rule of every 200 reply: a requested size
// in (0, 8 MiB] is served as that many filler bytes; 0 means the size
// was absent or invalid and the body is okBody.
func bodySize(size int64) int64 {
	if size <= 0 || size > 8<<20 {
		return 0
	}
	return size
}

// writeBody streams a response body of the requested size (bytes), so
// the live cluster moves real data over the loopback TCP connections;
// absent or invalid sizes fall back to a 3-byte "ok".
func writeBody(rw http.ResponseWriter, size int64) {
	if size = bodySize(size); size == 0 {
		rw.WriteHeader(http.StatusOK)
		rw.Write(okBody) //nolint:errcheck
		return
	}
	if size > 2048 {
		// net/http computes Content-Length itself for bodies that fit its
		// 2 KiB write buffer; setting it explicitly there would only buy
		// the []string allocation inside Header().Set — the last
		// allocation on the /exec hot path.
		rw.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	}
	rw.WriteHeader(http.StatusOK)
	remaining := size
	for remaining > 0 {
		chunk := remaining
		if chunk > int64(len(bodyChunk)) {
			chunk = int64(len(bodyChunk))
		}
		if _, err := rw.Write(bodyChunk[:chunk]); err != nil {
			return
		}
		remaining -= chunk
	}
}

// bodyChunk is the reusable payload buffer for response bodies.
var bodyChunk = make([]byte, 32<<10)

// wireBufPool holds scratch buffers for load-line encoding and
// poll-response reads.
var wireBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// handleLoad serves the node's load report as one l1 line — the live
// analogue of rstat() and the poller's fallback to the frame trailer.
func (n *Node) handleLoad(rw http.ResponseWriter, _ *http.Request) {
	buf := wireBufPool.Get().(*[]byte)
	b := n.sampleLoad().AppendWire((*buf)[:0])
	rw.Header().Set("Content-Type", core.LoadWireContentType)
	rw.Write(b) //nolint:errcheck
	*buf = b
	wireBufPool.Put(buf)
}

// Shutdown stops accepting, stops the server and unblocks in-flight
// work. Resources are closed before the edge's connections so a request
// or frame loop blocked in virtual work is released and can observe its
// dead connection.
func (n *Node) Shutdown() {
	n.edgeClosed.Store(true)
	for _, l := range n.lis {
		l.Close() //nolint:errcheck // only stops the accept loop
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if n.srv != nil {
		n.srv.Shutdown(ctx) //nolint:errcheck
	}
	n.res.Close()
	n.closeEdgeConns()
}

// loadSnapshot is one immutable generation of the master's scheduling
// view. The poller builds a fresh snapshot per round and publishes it
// with an atomic pointer swap; the request path only ever reads
// published snapshots, so no lock covers the view.
type loadSnapshot struct {
	epoch uint64
	at    int64 // unixnano publish time
	// atNode stamps when each node's load column was actually sampled:
	// fetch completion for polled nodes, piggyback receipt for nodes the
	// poller skipped, carried forward for nodes the round never reached.
	// The piggyback overlay compares against these — not the publish
	// time — so a report that arrives mid-round (older than publish,
	// newer than its node's sample) survives the epoch move.
	atNode []int64
	view   core.View
}

// Master is a level-I node: it serves client requests, executes statics
// locally, and schedules dynamics through a core.Policy over the latest
// polled load view.
//
// Concurrency design: the polled view is an immutable snapshot behind an
// atomic pointer, swapped by a fan-out poller (one goroutine per node
// per round, sharing one deadline). Node health lives in per-slot
// lock-free circuit breakers (see breakerSet); failover counts and peer
// URLs are per-slot atomics. The only lock on the request path is
// placeMu — a narrow shard covering the policy's own mutable state
// (estimators, booking charges, tie-break RNG) and the response
// histograms; nothing under it blocks or does I/O.
//
// Resilience has no knobs (see the constants in options.go): every /req
// carries a deadline (the client's budget, capped at 120 s) that
// propagates to slaves; a dynamic gets three placement attempts, each
// retried at once on a node not yet tried; a dynamic is shed only when
// every slave's breaker is open and the θ₂ reservation denies it a
// master. Every outcome is one of served (2xx), shed (503 + Retry-After)
// or exhausted (502).
type Master struct {
	*Node
	policy   core.Policy
	client   *http.Client
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	tracer   obs.Tracer
	self     [1]int // masterless-view fallback: this master's own id

	// snap is the current load view generation (never nil after launch).
	snap atomic.Pointer[loadSnapshot]
	// urls maps node id to its base URL; slots fill in as peers launch.
	urls []atomic.Pointer[string]
	// brk holds the per-node circuit breakers — sub-second failure
	// detection, as the switches the paper discusses provide, plus
	// half-open rehabilitation probes.
	brk *breakerSet

	// Piggybacked-report state (see piggyback.go): per-node mailboxes, a
	// version counter the placement path polls, and per-node freshness
	// stamps behind the staleness gauge.
	piggy      []piggySlot
	piggyVer   atomic.Uint64
	fresh      *obs.Freshness
	piggyTotal atomic.Int64
	// piggyApplied/piggyAppliedAt are the placement side's high-water
	// marks, guarded by placeMu.
	piggyApplied   uint64
	piggyAppliedAt []int64

	// Sharded control plane (see shard.go and membership.go). mem holds
	// the current epoch-versioned memState — shard map, own shard, poll
	// set and view tier lists — swapped whole on every membership apply,
	// so the poll, gossip and request paths each pin one consistent
	// generation. Every master has a memState; unsharded masters hold an
	// immutable one (sm == nil) that never changes.
	sharded bool
	mem     atomic.Pointer[memState]
	// memMu serializes membership applies (gossip pull vs POST vs
	// failure detector); readers never take it.
	memMu       sync.Mutex
	gossipEvery time.Duration
	summaryTTL  time.Duration // spill candidates ignore older summaries
	// shardSums holds the freshest summary per remote shard (slots sized
	// to the cluster — the shard count can grow as masters are
	// promoted); shardFresh stamps receipt times behind the per-shard
	// staleness gauge. ownSum is the own-summary build scratch, guarded
	// by ownMu (the poll loop and membership applies both rebuild it).
	shardSums  []shardSumSlot
	shardFresh *obs.Freshness
	ownMu      sync.Mutex
	ownSum     core.ShardSummary
	quality    obs.PlacementQuality
	gossipRx   atomic.Int64
	// gossipMiss counts consecutive failed /shard pulls per peer master
	// (indexed by node id; single writer: the gossip goroutine) — the
	// failure-detection input behind detectDeadMasters. gossipEpochSeen
	// is the same goroutine's last-seen membership epoch, used to grant
	// every new membership a fresh detection window.
	gossipMiss      []int
	gossipEpochSeen uint64
	// rebalanceUntil marks the end of the current shard-handoff window
	// (unixnano; 0 = no epoch move yet). Sheds inside the window are
	// counted in shedRebalance and hint Retry-After from the window's
	// remainder instead of the breaker hold-down.
	rebalanceUntil atomic.Int64
	shedRebalance  atomic.Int64
	memberApplies  atomic.Int64
	// Live master-tier autoscaler (see membership.go): asEvery is the
	// control period (0 = disabled), masterCapable the promotion
	// candidate set (the initial masters), as the planner state, owned
	// by autoscaleLoop. The measurement window win is guarded by placeMu.
	asEvery       time.Duration
	masterCapable []bool
	as            core.Planner
	win           core.Window
	// spillView is the synthesized remote view handed to PlaceRemote:
	// cluster-sized load array, candidate list rebuilt per spill from
	// fresh summary digests. Guarded by placeMu.
	spillView  core.View
	spillCands []int

	// frames is the dispatch client: every remote run is an 'E' frame.
	frames      *frameDialer
	frameDials  atomic.Int64
	pollSkipped atomic.Int64

	// Terminal-outcome accounting: every request counted in accepted is
	// counted in exactly one of served, shed or exhausted — the invariant
	// the chaos harness asserts.
	accepted   atomic.Int64
	served     atomic.Int64
	shedCount  atomic.Int64
	exhausted  atomic.Int64
	failovers  atomic.Int64
	retryCount atomic.Int64
	reqSeq     atomic.Int64

	// placeMu is the policy shard lock; see the type comment. The working
	// view under it carries the booking charges (placement impact)
	// accumulated since the last snapshot swap, re-seeded from the
	// snapshot whenever the epoch moves.
	placeMu   sync.Mutex
	workView  core.View
	workEpoch uint64
	aliveBuf  []int // masters+slaves filter scratch, reused per request

	// respHist aggregates client-visible /req response times (unscaled
	// seconds). Guarded by placeMu.
	respHist *obs.Histogram
}

// Failovers reports how many dynamic dispatches failed remotely and were
// re-placed (or, having no budget left, fell back or were dropped).
func (m *Master) Failovers() int64 { return m.failovers.Load() }

// Accepted returns how many /req requests passed parameter validation.
func (m *Master) Accepted() int64 { return m.accepted.Load() }

// Served returns how many accepted requests completed with 2xx.
func (m *Master) Served() int64 { return m.served.Load() }

// Shed returns how many accepted requests were refused with 503.
func (m *Master) Shed() int64 { return m.shedCount.Load() }

// Exhausted returns how many dynamics were dropped with 502 after their
// retry budget or deadline ran out.
func (m *Master) Exhausted() int64 { return m.exhausted.Load() }

// Retries returns how many placement attempts beyond each request's
// first were started.
func (m *Master) Retries() int64 { return m.retryCount.Load() }

// Hedges returns 0: the master does not hedge. It stays for callers
// that report it.
func (m *Master) Hedges() int64 { return 0 }

// BreakerState returns node id's circuit state (0 closed, 1 half-open,
// 2 open).
func (m *Master) BreakerState(id int) int32 { return m.brk.State(id) }

// BreakerOpens returns node id's cumulative open transitions.
func (m *Master) BreakerOpens(id int) int64 { return m.brk.Opens(id) }

// emit sends a lifecycle event when tracing is enabled. Arrival events
// carry the class and are emitted inline at the handler instead.
func (m *Master) emit(kind obs.EventKind, req int64, node int, value float64) {
	if m.tracer == nil {
		return
	}
	m.tracer.Emit(obs.Event{
		Kind:  kind,
		Req:   req,
		Time:  time.Since(m.origin).Seconds(),
		Node:  node,
		Value: value,
	})
}

// refreshWorkView rebuilds the policy's working view from the current
// snapshot: load columns are re-copied only when the snapshot epoch
// moved (preserving intra-window booking charges, exactly as the
// locked-view implementation did), and the tier lists are re-filtered
// against the circuit breakers into a reused scratch buffer. Callers
// must hold placeMu. Allocation-free in steady state.
func (m *Master) refreshWorkView() {
	s := m.snap.Load()
	epochMoved := s.epoch != m.workEpoch
	if epochMoved {
		m.workEpoch = s.epoch
		m.workView.Load = append(m.workView.Load[:0], s.view.Load...)
	}
	// Overlay piggybacked reports fresher than what the view reflects,
	// so placement sees every response's load sample, not just the last
	// poll round's.
	m.applyPiggy(epochMoved, s)
	now := time.Now().UnixNano()
	live := func(id int) bool {
		// The master itself is always placeable (last-resort local run).
		return id == m.ID || m.brk.Allow(id, now)
	}
	buf := core.FilterLive(m.aliveBuf[:0], s.view.Masters, live)
	nMasters := len(buf)
	buf = core.FilterLive(buf, s.view.Slaves, live)
	m.aliveBuf = buf
	m.workView.Masters = buf[:nMasters]
	m.workView.Slaves = buf[nMasters:]
	if nMasters == 0 {
		// Never leave the view masterless; this master can always serve.
		// self is a dedicated backing array — appending into aliveBuf here
		// would overwrite Slaves[0], which aliases the same scratch.
		m.workView.Masters = m.self[:]
	}
}

// bitOf maps a node id to its distinct-node tracking bit. Ids beyond 63
// are untracked (retries may revisit them), which only relaxes the
// distinctness preference on clusters larger than the paper's by an
// order of magnitude.
func bitOf(id int) uint64 {
	if uint(id) < 64 {
		return 1 << uint(id)
	}
	return 0
}

// dropTried removes already-tried nodes from the working view's tier
// lists so retries prefer distinct nodes. The lists are rebuilt from the
// snapshot on every refresh, so in-place compaction is safe; when
// filtering would leave no candidate at all the lists stay untouched —
// re-trying a node beats dropping the request. Callers hold placeMu.
func (m *Master) dropTried(tried uint64) {
	if tried == 0 {
		return
	}
	survivors := 0
	for _, id := range m.workView.Masters {
		if bitOf(id)&tried == 0 {
			survivors++
		}
	}
	for _, id := range m.workView.Slaves {
		if bitOf(id)&tried == 0 {
			survivors++
		}
	}
	if survivors == 0 {
		return
	}
	m.workView.Masters = compactUntried(m.workView.Masters, tried)
	m.workView.Slaves = compactUntried(m.workView.Slaves, tried)
}

// compactUntried filters ids in place, keeping those not in the mask.
func compactUntried(ids []int, tried uint64) []int {
	kept := ids[:0]
	for _, id := range ids {
		if bitOf(id)&tried == 0 {
			kept = append(kept, id)
		}
	}
	return kept
}

// SetNodeURL fills in a peer URL learned after startup.
func (m *Master) SetNodeURL(id int, url string) {
	m.urls[id].Store(&url)
}

// nodeURL returns node id's base URL ("" when unknown).
func (m *Master) nodeURL(id int) string {
	if p := m.urls[id].Load(); p != nil {
		return *p
	}
	return ""
}

// pollLoop refreshes the load view from the poll set's /load endpoints
// — every node when unsharded, this master's own shard when sharded.
// Each round fans out one fetch goroutine per polled node under a
// shared deadline (the polling period), so one slow or dead node delays
// the snapshot swap by at most the period instead of serializing behind
// every other fetch.
func (m *Master) pollLoop(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	reports := make([]core.Load, len(m.urls))
	fetched := make([]bool, len(m.urls))
	fetchedAt := make([]int64, len(m.urls))
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.pollOnce(every, reports, fetched, fetchedAt)
		}
	}
}

// pollOnce runs one fan-out poll round over m.pollSet and publishes the
// next snapshot. Nodes whose piggybacked report is younger than the
// poll period are not polled again — the report stands in for the
// fetch, saving the connection (the poller is the fallback,
// piggybacking the fast path). fetchedAt records each sampled node's
// actual sample time (piggyback receipt or fetch completion), which
// becomes the snapshot's per-node atNode stamp. The master's own column
// is read in process (currentLoad), never fetched over HTTP.
func (m *Master) pollOnce(period time.Duration, reports []core.Load, fetched []bool, fetchedAt []int64) {
	// Floor the shared fetch deadline: with very fast polling periods a
	// deadline equal to the period misclassifies every node as failed the
	// moment the host is briefly loaded. Rounds longer than the period
	// simply make the ticker skip beats.
	deadline := max(period, pollDeadlineFloor)
	prev := m.snap.Load()
	ms := m.mem.Load()
	now := time.Now().UnixNano()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ms.pollSet {
		fetched[id] = false
		if id == m.ID {
			own := m.currentLoad()
			reports[id] = own.load
			fetched[id] = true
			fetchedAt[id] = own.at
			m.fresh.Touch(id, own.at)
			continue
		}
		base := m.nodeURL(id)
		if base == "" {
			continue
		}
		if l, at := m.peekPiggy(id); at > 0 && now-at < int64(period) {
			reports[id] = l
			fetched[id] = true
			fetchedAt[id] = at
			m.pollSkipped.Add(1)
			continue
		}
		wg.Add(1)
		go func(id int, base string) {
			defer wg.Done()
			rep, err := m.fetchLoad(ctx, base)
			if err != nil { // unreachable, or a report that fails Validate
				m.brk.PollFailure(id, time.Now().UnixNano())
				return
			}
			sampled := time.Now().UnixNano()
			reports[id] = rep
			fetched[id] = true
			fetchedAt[id] = sampled
			m.fresh.Touch(id, sampled)
		}(id, base)
	}
	wg.Wait()

	// Re-load the memState: a membership applied mid-round must not have
	// its tier lists overwritten by a snapshot built from the old one.
	ms = m.mem.Load()
	next := &loadSnapshot{
		epoch:  prev.epoch + 1,
		at:     time.Now().UnixNano(),
		atNode: make([]int64, len(reports)),
		view: core.View{
			// Role lists are immutable per memState generation and shared.
			Masters: ms.masters,
			Slaves:  ms.slaves,
			Load:    append([]core.Load(nil), prev.view.Load...),
		},
	}
	// Un-polled nodes carry their previous sample stamp forward.
	copy(next.atNode, prev.atNode)
	for id := range reports {
		if !fetched[id] {
			continue
		}
		next.view.ApplyReport(id, reports[id])
		next.atNode[id] = fetchedAt[id]
		m.brk.PollSuccess(id) // node answers again
	}
	m.snap.Store(next)
	if m.sharded {
		// Slow path (once per poll round): refresh the own-shard summary
		// stamp that responses piggyback and /shard serves.
		m.rebuildShardStamp(ms, next)
	}
}

// fetchLoad polls one node's /load line.
func (m *Master) fetchLoad(ctx context.Context, base string) (core.Load, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/load", nil)
	if err != nil {
		return core.Load{}, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return core.Load{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return core.Load{}, fmt.Errorf("load: status %d", resp.StatusCode)
	}
	buf := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(buf)
	b, err := readAllInto((*buf)[:0], io.LimitReader(resp.Body, 1<<20))
	*buf = b[:0]
	if err != nil {
		return core.Load{}, err
	}
	return core.ParseLoadWire(b)
}

// readAllInto is io.ReadAll into a caller-provided buffer.
func readAllInto(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// tickLoop runs the policy's periodic adaptation.
func (m *Master) tickLoop(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.placeMu.Lock()
			m.refreshWorkView()
			m.policy.Tick(time.Since(m.origin).Seconds(), &m.workView)
			m.placeMu.Unlock()
		}
	}
}

// parseTimeoutMs reads a TimeoutHeader value: the client's relative
// budget in milliseconds, 0 when absent or unparseable.
func parseTimeoutMs(h string) int64 {
	if h == "" {
		return 0 // the common case; ParseInt would allocate its error
	}
	if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
		return ms
	}
	return 0
}

// reqDeadline derives a request's absolute deadline: the client's
// budget (TimeoutHeader, or a 'Q' entry's timeoutMs) when present and
// tighter than dispatchTimeout, else dispatchTimeout. The budget is
// compared in milliseconds before it becomes a Duration, which would
// overflow for budgets of about 292 years.
func reqDeadline(start time.Time, timeoutMs int64) time.Time {
	if timeoutMs <= 0 || timeoutMs >= dispatchTimeout.Milliseconds() {
		return start.Add(dispatchTimeout)
	}
	return start.Add(time.Duration(timeoutMs) * time.Millisecond)
}

// The 503 and 502 bodies of /req, shared by its two adapters.
const (
	msgShed      = "overloaded: request shed"
	msgExhausted = "dynamic request exhausted its retry budget or deadline"
)

// handleRequest is the client-facing endpoint:
// /req?class=s|d&demand=F&w=F&script=N[&size=N][&idem=0]
//
// Every accepted request reaches exactly one terminal outcome: 2xx
// (served), 503 + Retry-After (shed by overload protection), or 502
// (retry budget / deadline exhausted). The outcome logic lives in
// serveReq, shared with the binary client-frame transport and with the
// edge's native /req (edge.go), which answers a client's connection
// until something hands it off; this net/http adapter serves it from
// then on, and serves Handler().
func (m *Master) handleRequest(rw http.ResponseWriter, req *http.Request) {
	p := parseReqQuery(req.URL.RawQuery)
	if msg := p.badField(); msg != "" {
		http.Error(rw, msg, http.StatusBadRequest)
		return
	}
	status, retryAfter := m.serveReq(p, time.Now(), parseTimeoutMs(req.Header.Get(TimeoutHeader)))
	switch status {
	case 0:
		writeBody(rw, p.size)
	case http.StatusServiceUnavailable:
		rw.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		http.Error(rw, msgShed, http.StatusServiceUnavailable)
	default:
		http.Error(rw, msgExhausted, status)
	}
}

// serveReq runs one accepted client request through admission,
// execution/dispatch and completion accounting — the transport-neutral
// core of /req, driven by the edge, the net/http adapter and 'Q'
// frames. timeoutMs is the client's relative budget (0 = none). Returns
// status 0 (served), 503 with a Retry-After hint (shed), or 502
// (exhausted).
func (m *Master) serveReq(p reqParams, start time.Time, timeoutMs int64) (status, retryAfter int) {
	deadline := reqDeadline(start, timeoutMs)
	m.accepted.Add(1)
	if m.asEvery > 0 {
		// λ counts arrivals, so shed and exhausted requests load the plan.
		m.placeMu.Lock()
		m.win.Arrive(p.class)
		m.placeMu.Unlock()
	}
	var reqID int64
	if m.tracer != nil {
		reqID = m.reqSeq.Add(1)
		m.tracer.Emit(obs.Event{
			Kind:  obs.KindArrival,
			Req:   reqID,
			Time:  start.Sub(m.origin).Seconds(),
			Class: p.class.String(),
			Node:  m.ID,
			Value: p.demand,
		})
	}

	if p.class == trace.Static {
		m.runWork(p.demand, p.w, false)
		m.quality.Local.Add(1)
	} else if ra, shed := m.shouldShed(); shed {
		// The local shard is saturated. A sharded master first tries to
		// spill to the best remote shard it knows a fresh summary for;
		// only when no remote candidate exists (or the spill exhausts its
		// budget the same way local dispatch would) does the request reach
		// the shed/exhausted outcome — so sharding never converts a
		// servable request into a 503.
		st, attempted := m.spillRemote(p, reqID, deadline)
		if !attempted {
			m.shedCount.Add(1)
			ra = m.shedRetryAfter(ra)
			m.emit(obs.KindShed, reqID, m.ID, float64(ra))
			return http.StatusServiceUnavailable, ra
		}
		if st != 0 {
			m.exhausted.Add(1)
			m.emit(obs.KindExhausted, reqID, m.ID, float64(retryBudget))
			return st, 0
		}
	} else {
		if st := m.runDynamic(p, reqID, deadline); st != 0 {
			m.exhausted.Add(1)
			m.emit(obs.KindExhausted, reqID, m.ID, float64(retryBudget))
			return st, 0
		}
		m.quality.Local.Add(1)
	}
	// Feed the reservation estimators with the server-side response
	// time, normalized back to unscaled seconds.
	resp := time.Since(start).Seconds() / m.timeScale
	m.placeMu.Lock()
	m.policy.ObserveCompletion(p.class, resp, p.demand)
	m.respHist.Observe(resp)
	if m.asEvery > 0 {
		m.win.Done(p.class, p.demand)
	}
	m.placeMu.Unlock()
	m.served.Add(1)
	m.emit(obs.KindComplete, reqID, m.ID, resp)
	return 0, 0
}

// shouldShed decides whether a dynamic request must be shed instead of
// dispatched. Shedding engages only in the degraded regime where every
// slave's circuit is open — the master tier would silently absorb all
// CGI work — and then defers to the paper's θ₂ reservation: masters
// keep serving the dynamic share it grants and shed the excess. A
// policy without core.MasterAdmission never sheds.
func (m *Master) shouldShed() (retryAfter int, shed bool) {
	s := m.snap.Load()
	if len(s.view.Slaves) == 0 && !m.sharded {
		// Single-tier (M/S-1-style) deployments have no degraded regime
		// to protect; locals are the design, not a fallback. A sharded
		// master that drew an empty shard is different: its peers have
		// slaves, so overload should shed here and spill there.
		return 0, false
	}
	now := time.Now().UnixNano()
	for _, id := range s.view.Slaves {
		if m.brk.Allow(id, now) {
			return 0, false
		}
	}
	// Hint clients to return once the breaker hold-down can have elapsed.
	retryAfter = max(1, int((m.brk.openFor+time.Second-1)/time.Second))
	if adm, ok := m.policy.(core.MasterAdmission); ok {
		m.placeMu.Lock()
		denied := !adm.AdmitsAtMaster()
		m.placeMu.Unlock()
		if denied {
			return retryAfter, true
		}
	}
	return 0, false
}

// Dispatch error taxonomy. errDeadline means the request's global
// deadline is the problem, not the node — retrying cannot help.
var (
	errCircuitOpen = errors.New("dispatch: circuit open")
	errDeadline    = errors.New("dispatch: request deadline exceeded")
)

// remoteStatusError is a non-200 exec status: the node answered and
// refused, so the work did not run — always safe to retry.
type remoteStatusError int

func (e remoteStatusError) Error() string {
	return "remote exec: status " + strconv.Itoa(int(e))
}

// mayHaveExecuted reports whether a failed dispatch could have run the
// work remotely anyway — the conservative classification behind the
// "never retry non-idempotent work that may have started" rule. Only
// failures provably raised before the 'E' frame was written (open
// circuit, notSentError) or refused with a status are known-safe.
func mayHaveExecuted(err error) bool {
	if errors.Is(err, errCircuitOpen) {
		return false
	}
	var st remoteStatusError
	if errors.As(err, &st) {
		return false
	}
	var ns notSentError
	return !errors.As(err, &ns)
}

// runDynamic places and executes one dynamic request under its deadline
// and retry budget, failing over at once to a node not yet tried (and
// ultimately to local execution) when a remote exec errs — the restart-
// on-another-node behavior the paper requires of masters when a slave
// fails, bounded instead of unconditional. Returns 0 on success or the
// HTTP status for a terminal failure.
func (m *Master) runDynamic(p reqParams, reqID int64, deadline time.Time) int {
	var tried uint64
	for attempt := 0; attempt < retryBudget; attempt++ {
		if attempt > 0 {
			m.retryCount.Add(1)
		}
		if !time.Now().Before(deadline) {
			return http.StatusBadGateway
		}
		m.placeMu.Lock()
		m.refreshWorkView()
		m.dropTried(tried)
		target := m.policy.Place(core.Request{Class: trace.Dynamic, Script: p.script}, m.ID, &m.workView)
		m.placeMu.Unlock()
		if target == m.ID {
			m.runWork(p.demand, p.w, true)
			return 0
		}
		err := m.dispatch(target, p, deadline)
		if err == nil {
			return 0
		}
		m.failovers.Add(1)
		tried |= bitOf(target)
		m.emit(obs.KindRetry, reqID, target, float64(attempt+1))
		if errors.Is(err, errDeadline) {
			return http.StatusBadGateway
		}
		if !p.idem && mayHaveExecuted(err) {
			// The remote may have performed the side-effecting work;
			// running it again is worse than failing loudly.
			return http.StatusBadGateway
		}
	}
	// Budget exhausted: last-resort local execution, as before the retry
	// budget existed — but only while the deadline still stands.
	if time.Now().Before(deadline) {
		m.runWork(p.demand, p.w, true)
		return 0
	}
	return http.StatusBadGateway
}

// dispatch runs one placement attempt under circuit-breaker
// accounting: the breaker must admit the dispatch, and its outcome feeds
// the breaker's failure detection.
func (m *Master) dispatch(target int, p reqParams, deadline time.Time) error {
	if !time.Now().Before(deadline) {
		return errDeadline
	}
	if !m.brk.Acquire(target, time.Now().UnixNano()) {
		return errCircuitOpen
	}
	err := m.forward(target, p, deadline)
	m.brk.Release(target, err == nil, time.Now().UnixNano())
	return err
}

// forward executes the CGI remotely — the paper's low-overhead remote
// execution path: one 'E' frame on a pooled connection to the target,
// carrying the request deadline so the slave can refuse work that
// expired in its queue.
func (m *Master) forward(target int, p reqParams, deadline time.Time) error {
	reqs := [1]frameExec{{demand: p.demand, w: p.w, deadlineNs: deadline.UnixNano(), fork: true}}
	var sts [1]int
	got, err := m.frames.exchange(target, reqs[:], sts[:0], deadline)
	if err != nil {
		return err
	}
	return statusToErr(got[0])
}

// Shutdown stops the master's loops and server, then releases any
// pooled frame connections (after the server stops, nothing can dial
// new ones).
func (m *Master) Shutdown() {
	// Idempotent: churn harnesses kill individual masters mid-run and
	// then tear the whole cluster down, hitting the dead one again.
	m.stopOnce.Do(func() {
		close(m.stop)
		m.wg.Wait()
		m.Node.Shutdown()
		m.frames.close()
	})
}
