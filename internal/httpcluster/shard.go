package httpcluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/trace"
)

// Sharded control plane, live side. The slave fleet is partitioned
// across the master tier by a deterministic core.ShardMap (master i
// owns shard i); each master polls, breaks and books against only its
// own shard, so per-tick control work is O(shard), not O(cluster).
// Cross-shard state travels as compact core.ShardSummary lines:
//
//   - piggybacked on every frame reply a sharded master serves as the
//     trailing summary block, so masters that already dispatch to each
//     other learn about each other's shards for free;
//   - pulled master↔master from /shard on a slow gossip tick, covering
//     pairs that never exchange requests.
//
// Placement stays local-first: the pipeline places within the own-shard
// view exactly as an unsharded master would. Only when the local
// AbsorptionGate sheds does the master spill — synthesize a view from
// the freshest remote summaries' digests and let the same routing stage
// pick a concrete node, dispatched over the existing transport with the
// existing breaker/retry taxonomy.

// shardTopK is how many least-loaded node digests the own-shard summary
// carries — enough spill candidates for routing to rank, small enough
// that the line stays around 200 bytes.
const shardTopK = 8

// shardStamp is one immutable generation of a master's own-shard
// summary: the wire line served by /shard and embedded in frame replies.
type shardStamp struct {
	wire []byte
}

// shardSumSlot is a master's mailbox for one remote shard's summary.
type shardSumSlot struct {
	mu  sync.Mutex
	sum core.ShardSummary
	at  int64 // receipt time (unixnano); 0 = never heard from
}

// rebuildShardStamp refreshes the own-shard summary from a just-
// published snapshot under the given memState. Runs once per poll round
// plus once per membership apply — both off the request path, so the
// allocations here are irrelevant; ownMu covers the shared build
// scratch against exactly that pair of writers. The summary is stamped
// with the memState's epoch, so receivers can order generations across
// membership changes.
func (m *Master) rebuildShardStamp(ms *memState, snap *loadSnapshot) {
	m.ownMu.Lock()
	defer m.ownMu.Unlock()
	if ms.shard < 0 {
		// Demoted (or launched as a standby): this node owns no shard, so
		// it stops advertising one — /shard answers 404 and responses
		// carry no summary until a membership re-promotes it.
		m.shardWire.Store(nil)
		return
	}
	members := ms.sm.Members(ms.shard)
	core.BuildShardSummary(&m.ownSum, ms.shard, snap.at, members, snap.view.Load, shardTopK)
	m.ownSum.Epoch = ms.sm.Epoch()
	wire := m.ownSum.AppendWire(make([]byte, 0, 80+48*len(m.ownSum.Top)))
	m.shardWire.Store(&shardStamp{wire: wire})
}

// handleShard serves the master's own-shard summary — the gossip pull
// endpoint. Unsharded nodes answer 404 so a misconfigured peer fails
// loudly instead of folding garbage.
func (m *Master) handleShard(rw http.ResponseWriter, _ *http.Request) {
	s := m.shardWire.Load()
	if s == nil {
		http.Error(rw, "unsharded master", http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", core.ShardWireContentType)
	rw.Write(s.wire) //nolint:errcheck
}

// storeShardSummaryWire parses an s2 summary line (e.g. a frame reply's
// trailing block) and folds it in. No-op for unsharded masters.
func (m *Master) storeShardSummaryWire(b []byte) {
	if !m.sharded {
		return
	}
	var sum core.ShardSummary
	if err := core.ParseShardSummary(b, &sum); err != nil {
		return
	}
	m.storeShardSummary(&sum)
}

// storeShardSummary records a remote shard's summary, newest-wins by
// (epoch, AtNs) — epoch dominates so a pre-rebalance summary can never
// overwrite a post-rebalance one, however fresh its owner clock looked;
// within one epoch the owner's AtNs stamp orders generations (receipt
// order proves nothing: gossip and piggybacked copies of the same
// generation race). Summaries more than one epoch behind the local map
// are dropped outright — the dual-epoch window admits the previous
// owner's last words during a handoff, nothing older. The caller keeps
// ownership of sum; the slot deep-copies the digest slice.
func (m *Master) storeShardSummary(sum *core.ShardSummary) {
	if !m.sharded {
		return
	}
	ms := m.mem.Load()
	s := sum.Shard
	if s < 0 || s >= len(m.shardSums) || s == ms.shard {
		return
	}
	var cur uint64
	if ms.sm != nil {
		cur = ms.sm.Epoch()
	}
	if sum.Epoch+1 < cur {
		return
	}
	now := time.Now().UnixNano()
	slot := &m.shardSums[s]
	slot.mu.Lock()
	if slot.at == 0 || core.SummaryWins(sum.Epoch, sum.AtNs, slot.sum.Epoch, slot.sum.AtNs) {
		top := append(slot.sum.Top[:0], sum.Top...)
		slot.sum = *sum
		slot.sum.Top = top
		slot.at = now
	}
	slot.mu.Unlock()
	m.shardFresh.Touch(s, now)
	m.gossipRx.Add(1)
}

// gossipLoop pulls peer masters' /shard summaries on a slow tick — the
// fallback channel for master pairs that exchange no requests (and so
// see no piggybacked copies). Each round is O(shards) sequential GETs,
// deliberately cheap next to the poll loop.
func (m *Master) gossipLoop(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.gossipOnce(every)
		}
	}
}

// gossipOnce runs one gossip round: pull every peer owner's /shard
// summary (counting consecutive misses — the failure-detection signal),
// pull peer memberships (the convergence backstop that bounds how long
// a master can lag an epoch move to one round), then let the failure
// detector act on the accumulated silence.
func (m *Master) gossipOnce(period time.Duration) {
	deadline := max(period, pollDeadlineFloor)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	ms := m.mem.Load()
	if e := ms.mb.Epoch; e != m.gossipEpochSeen {
		// New membership: every peer gets a fresh detection window, so a
		// rejoined master cannot be re-declared dead off counters it
		// accumulated before it left.
		m.gossipEpochSeen = e
		for i := range m.gossipMiss {
			m.gossipMiss[i] = 0
		}
	}
	var sum core.ShardSummary
	for s, owner := range ms.owners {
		if s == ms.shard || owner == m.ID {
			continue
		}
		base := m.nodeURL(owner)
		if base == "" {
			continue
		}
		if err := m.fetchShard(ctx, base, &sum); err != nil {
			if owner < len(m.gossipMiss) {
				m.gossipMiss[owner]++
			}
			continue
		}
		if owner < len(m.gossipMiss) {
			m.gossipMiss[owner] = 0
		}
		m.storeShardSummary(&sum)
	}
	m.pullMembership(ctx, ms)
	// Detect against the generation this round actually fetched from; if
	// the pull just advanced the epoch, the successor announce below is
	// stale and ApplyMembership's newest-wins rule discards it.
	m.detectDeadMasters(ms)
}

// fetchShard pulls one peer's /shard summary into dst.
func (m *Master) fetchShard(ctx context.Context, base string, dst *core.ShardSummary) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/shard", nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: status %d", resp.StatusCode)
	}
	buf := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(buf)
	b, err := readAllInto((*buf)[:0], io.LimitReader(resp.Body, 1<<16))
	*buf = b[:0]
	if err != nil {
		return err
	}
	return core.ParseShardSummary(b, dst)
}

// spillRemote tries to serve a dynamic request on a remote shard after
// the local shard shed it. Returns attempted=false when no remote
// candidate exists (the caller sheds, exactly as unsharded would);
// otherwise status 0 on success or 502 when the spill exhausted its
// budget / deadline — the same terminal taxonomy as local dispatch,
// because every attempt goes through the same m.dispatch path
// (breakers, hedging, deadline propagation and all).
func (m *Master) spillRemote(p reqParams, reqID int64, deadline time.Time) (status int, attempted bool) {
	if !m.sharded {
		return 0, false
	}
	pl, ok := m.policy.(*core.Pipeline)
	if !ok {
		return 0, false
	}
	var tried uint64
	for attempt := 0; attempt < m.rs.RetryBudget; attempt++ {
		if !time.Now().Before(deadline) {
			break
		}
		target := m.pickSpill(pl, p, tried)
		if target < 0 {
			break
		}
		err := m.dispatch(target, p, deadline, tried)
		if err == nil {
			m.quality.Spilled.Add(1)
			return 0, true
		}
		m.failovers.Add(1)
		m.quality.SpillFailed.Add(1)
		tried |= bitOf(target)
		m.emit(obs.KindRetry, reqID, target, float64(attempt+1))
		if errors.Is(err, errDeadline) {
			return http.StatusBadGateway, true
		}
		if !p.idem && mayHaveExecuted(err) {
			return http.StatusBadGateway, true
		}
	}
	// Exhausted without a terminal error (e.g. remote breakers raced
	// open, every candidate refused with a status): the caller sheds,
	// exactly as local dispatch does when every slave is circuit-open.
	return 0, false
}

// pickSpill synthesizes a view from the freshest remote summaries'
// digests and routes within it. Candidates are filtered the same way
// the local working view is (breaker state, known URL, not yet tried);
// the view is O(digests) = O(shards·k), never O(cluster). Returns -1
// when nothing remains.
func (m *Master) pickSpill(pl *core.Pipeline, p reqParams, tried uint64) int {
	now := time.Now().UnixNano()
	maxAge := int64(m.summaryTTL)
	ms := m.mem.Load()
	var cur uint64
	if ms.sm != nil {
		cur = ms.sm.Epoch()
	}
	m.placeMu.Lock()
	defer m.placeMu.Unlock()
	if len(m.spillView.Load) < len(m.urls) {
		m.spillView.Load = make([]core.Load, len(m.urls))
	}
	cands := m.spillCands[:0]
	for s := range m.shardSums {
		if s == ms.shard {
			continue
		}
		slot := &m.shardSums[s]
		slot.mu.Lock()
		if slot.at == 0 || now-slot.at > maxAge {
			slot.mu.Unlock()
			continue
		}
		if slot.sum.Epoch+1 < cur {
			// A membership adopted after this summary landed left it two
			// epochs behind; its owner assignment is no longer meaningful.
			slot.mu.Unlock()
			continue
		}
		for _, d := range slot.sum.Top {
			id := d.Node
			if id < 0 || id >= len(m.urls) || bitOf(id)&tried != 0 {
				continue
			}
			if ms.sm != nil && ms.sm.ShardOf(id) < 0 {
				// The node left the fleet (failed, demoted out, scaled
				// away) since the summary was stamped.
				continue
			}
			if m.nodeURL(id) == "" || !m.brk.Allow(id, now) {
				continue
			}
			m.spillView.Load[id] = d.Load
			cands = append(cands, id)
		}
		slot.mu.Unlock()
	}
	m.spillCands = cands
	if len(cands) == 0 {
		return -1
	}
	m.spillView.Slaves = cands
	target, _ := pl.PlaceRemote(core.Request{Class: trace.Dynamic, Script: p.script}, &m.spillView)
	return target
}
