package httpcluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"msweb/internal/core"
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
// view exactly as an unsharded master would. Only when shouldShed sheds
// locally does the master spill — synthesize a view from the freshest
// remote summaries' digests and let the same routing stage pick a
// concrete node, dispatched by the same attempt loop (runDynamic) as a
// local placement: same transport, breakers and core.Attempts rule.

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
// Gossip pulls and frame-reply trailers both land here, newest-wins.
type shardSumSlot struct {
	mu  sync.Mutex
	sum core.ShardSummary
	at  int64 // receipt time (unixnano); 0 = never heard from
}

// rebuildShardStamp refreshes the own-shard summary from the report
// table under the given memState. Runs once per poll round plus once
// per membership apply — both off the request path, so the allocations
// here are irrelevant; ownMu covers the shared build scratch against
// exactly that pair of writers. The summary is stamped with the
// memState's epoch, so receivers can order generations across
// membership changes.
func (m *Master) rebuildShardStamp(ms *memState) {
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
	for _, id := range members {
		m.ownLoads[id], _ = m.report(id)
	}
	core.BuildShardSummary(&m.ownSum, ms.shard, time.Now().UnixNano(), members, m.ownLoads, shardTopK)
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
// owner's last words during a handoff, nothing older. Only a winning
// copy restamps the slot's receipt time, so the slot's age is that of
// the copy held. The caller keeps ownership of sum; the slot
// deep-copies the digest slice.
func (m *Master) storeShardSummary(sum *core.ShardSummary) {
	if !m.sharded {
		return
	}
	ms := m.mem.Load()
	s := sum.Shard
	if s < 0 || s >= len(m.shardSums) || s == ms.shard {
		return
	}
	if core.SummaryStale(sum.Epoch, ms.mb.Epoch) {
		return
	}
	slot := &m.shardSums[s]
	slot.mu.Lock()
	if slot.at == 0 || core.SummaryWins(sum.Epoch, sum.AtNs, slot.sum.Epoch, slot.sum.AtNs) {
		top := append(slot.sum.Top[:0], sum.Top...)
		slot.sum = *sum
		slot.sum.Top = top
		slot.at = time.Now().UnixNano()
	}
	slot.mu.Unlock()
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

// gossipOnce runs one gossip round: pull every peer master's /shard
// summary (the failure-detection signal), probe every peer master's
// membership (the convergence backstop that bounds how long a master
// can lag an epoch move to one round), and hand the pulls to the Tier.
// Each suspect it names gets a probe of its own before Failover.
func (m *Master) gossipOnce(period time.Duration) {
	deadline := max(period, pollDeadlineFloor)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	ms := m.mem.Load()
	var pulls []core.GossipPull
	var sum core.ShardSummary
	for _, owner := range ms.mb.Masters {
		base := m.nodeURL(owner)
		if owner == m.ID || base == "" {
			continue
		}
		err := m.fetchShard(ctx, base, &sum)
		pulls = append(pulls, core.GossipPull{Node: owner, OK: err == nil})
		if err == nil {
			m.storeShardSummary(&sum)
		}
	}
	for _, owner := range ms.mb.Masters {
		if owner != m.ID {
			m.probe(ctx, owner)
		}
	}
	m.memMu.Lock()
	suspects := m.tier.Gossip(ms.mb.Epoch, pulls)
	m.memMu.Unlock()
	if len(suspects) == 0 {
		return
	}
	for _, id := range suspects {
		m.confirm(id)
	}
	m.change(true, func(t *core.Tier) (bool, error) { return t.Failover(), nil }) //nolint:errcheck // never fails
}

// confirm re-probes one suspect with its own generous deadline and
// hands the verdict to the Tier. The gossip round's pulls run
// sequentially under one shared deadline, so on a loaded box a slow
// early fetch can starve the later ones into spurious misses — a
// slow-but-alive master must not be rebalanced away over that. A
// genuinely dead server refuses the dial in microseconds, so real
// failures still converge within the same round.
func (m *Master) confirm(id int) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*pollDeadlineFloor)
	defer cancel()
	alive := m.probe(ctx, id)
	m.memMu.Lock()
	m.tier.Probe(id, alive)
	m.memMu.Unlock()
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

// pickSpill synthesizes a view from the freshest remote summaries'
// digests and routes within it — the spill's candidate source in
// runDynamic. Candidates are filtered the same way the local working
// view is (breaker state, known URL, not in tried); the view is
// O(digests) = O(shards·k), never O(cluster). Returns -1 when nothing
// remains, and always on an unsharded master or one whose policy is no
// core.Pipeline.
func (m *Master) pickSpill(p reqParams, tried []int) int {
	pl, ok := m.policy.(*core.Pipeline)
	if !m.sharded || !ok {
		return -1
	}
	now := time.Now().UnixNano()
	maxAge := int64(m.summaryTTL)
	ms := m.mem.Load()
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
		if core.SummaryStale(slot.sum.Epoch, ms.mb.Epoch) {
			// A membership adopted after this summary landed left it two
			// epochs behind; its owner assignment is no longer meaningful.
			slot.mu.Unlock()
			continue
		}
		for _, d := range slot.sum.Top {
			id := d.Node
			if id < 0 || id >= len(m.urls) || slices.Contains(tried, id) {
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

// summaryAge returns how long before now (unixnano) the summary held for
// remote shard s arrived, in seconds, or -1 when none ever did.
func (m *Master) summaryAge(s int, now int64) float64 {
	slot := &m.shardSums[s]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return ageSeconds(slot.at, now)
}
