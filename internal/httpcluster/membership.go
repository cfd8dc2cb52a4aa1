package httpcluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"msweb/internal/core"
)

// Live membership: the epoch-versioned topology a sharded master tier
// converges on. Each master holds one immutable memState behind an
// atomic pointer — the live analogue of the simulator's reshard() — and
// every membership change swaps in a whole new state, so the request
// path never sees a half-rebalanced view.
//
// Convergence is newest-wins by epoch over three channels:
//
//   - announce: the initiator of a change (failure detector, autoscaler,
//     operator) applies the new membership locally and POSTs it to every
//     master of the old and new tiers;
//   - gossip pull: each gossip round also GETs peers' /membership, so a
//     master that missed the announce catches up within one round;
//   - epoch hints: an s2 shard summary stamped with a higher epoch than
//     the local map marks the membership stale, forcing a pull on the
//     next gossip round instead of waiting for a scheduled one.
//
// Failure detection rides the gossip channel: gossipMissThreshold
// consecutive failed /shard pulls from a shard owner declare it dead,
// and the lowest-id surviving master announces the successor membership
// with the dead peer removed — its shard redistributes by consistent
// hash, so ~1/m of the fleet changes owner. During the handoff window
// (rebalanceWindow × GossipEvery after any epoch move) sheds are
// labeled "rebalancing" and their Retry-After reflects the remaining
// window rather than the breaker hold-down.

// MembershipPath is the membership exchange endpoint on sharded
// masters: GET returns the current m2 line, POST applies one
// newest-wins.
const MembershipPath = "/membership"

// gossipMissThreshold is how many consecutive failed /shard pulls from
// one shard owner declare it dead.
const gossipMissThreshold = 3

// rebalanceWindow scales GossipEvery into the handoff window after an
// epoch move: long enough for every peer to converge via one gossip
// round, short enough that a flapping label cannot hide real overload.
const rebalanceWindow = 2

// memState is one immutable generation of a master's membership-derived
// topology. A new membership swaps the whole struct; readers pin one
// generation for the duration of an operation.
type memState struct {
	mb    core.Membership // normalized; mb.Epoch versions this state
	sm    *core.ShardMap  // derived partition (nil only on unsharded masters)
	shard int             // own shard index; -1 when this node is not a master of mb
	// owners maps shard index → owning master node id (mb.Masters).
	owners []int
	// pollSet is the node set this master samples each poll round;
	// masters/slaves are the scheduling-view tier lists every snapshot
	// publishes.
	pollSet []int
	masters []int
	slaves  []int
}

// newMemState derives self's topology from a validated, normalized
// membership. A node absent from the master list (demoted, or never
// promoted this epoch) keeps serving what reaches it but schedules only
// onto itself — the live form of a demoted master re-registering as a
// slave: peers poll its /load and dispatch 'E' frames to it like any other
// shard member.
func newMemState(self int, mb core.Membership, sm *core.ShardMap) *memState {
	ms := &memState{
		mb:     mb,
		sm:     sm,
		shard:  mb.MasterIndex(self),
		owners: mb.Masters,
	}
	ms.masters = []int{self}
	if ms.shard >= 0 {
		ms.slaves = append([]int(nil), sm.Members(ms.shard)...)
	}
	ms.pollSet = append(append([]int(nil), ms.masters...), ms.slaves...)
	return ms
}

// Membership returns a copy of the master's current membership (zero
// value on unsharded masters).
func (m *Master) Membership() core.Membership {
	ms := m.mem.Load()
	if !m.sharded {
		return core.Membership{}
	}
	return ms.mb.Clone()
}

// Epoch reports the master's current shard-map epoch (0 when unsharded
// or never rebalanced).
func (m *Master) Epoch() uint64 {
	ms := m.mem.Load()
	if ms.sm == nil {
		return 0
	}
	return ms.sm.Epoch()
}

// ShedRebalancing reports how many sheds fell inside a handoff window
// and were labeled "rebalancing" rather than "overload".
func (m *Master) ShedRebalancing() int64 { return m.shedRebalance.Load() }

// shedRetryAfter classifies one shed that is already counted in
// shedCount: inside a handoff window the cause is the rebalance, not
// steady-state overload — book it as such and hint Retry-After from the
// window's remainder (the expected handoff completion) instead of the
// breaker hold-down. Outside a window the caller's hint stands.
func (m *Master) shedRetryAfter(ra int) int {
	until := m.rebalanceUntil.Load()
	if until == 0 {
		return ra
	}
	now := time.Now().UnixNano()
	if now >= until {
		return ra
	}
	m.shedRebalance.Add(1)
	rem := int((time.Duration(until-now) + time.Second - 1) / time.Second)
	if rem < 1 {
		rem = 1
	}
	return rem
}

// ApplyMembership adopts mb if it is newer than the current epoch
// (newest-wins; ties and older epochs are ignored, so re-delivered
// announcements are harmless). On adoption the shard map, poll set and
// view tier lists all swap atomically, a fresh snapshot publishes the
// new topology without waiting for the next poll round, and the handoff
// window opens. Returns whether mb was adopted.
func (m *Master) ApplyMembership(mb core.Membership) (bool, error) {
	if !m.sharded {
		return false, fmt.Errorf("httpcluster: unsharded master %d has no membership", m.ID)
	}
	if err := mb.Validate(); err != nil {
		return false, err
	}
	for _, ids := range [][]int{mb.Masters, mb.Slaves} {
		for _, id := range ids {
			if id >= len(m.urls) {
				return false, fmt.Errorf("httpcluster: membership node %d outside cluster (len %d)", id, len(m.urls))
			}
		}
	}
	m.memMu.Lock()
	defer m.memMu.Unlock()
	cur := m.mem.Load()
	if mb.Epoch <= cur.mb.Epoch {
		return false, nil
	}
	next := mb.Clone()
	next.Normalize()
	sm, err := next.ShardMap()
	if err != nil {
		return false, err
	}
	ms := newMemState(m.ID, next, sm)
	m.mem.Store(ms)
	m.memberApplies.Add(1)
	m.rebalanceUntil.Store(time.Now().Add(rebalanceWindow * m.gossipEvery).UnixNano())

	// Publish the new tier lists immediately: load columns and per-node
	// stamps carry over, only the roles change.
	prev := m.snap.Load()
	m.snap.Store(&loadSnapshot{
		epoch:  prev.epoch + 1,
		at:     time.Now().UnixNano(),
		atNode: append([]int64(nil), prev.atNode...),
		view: core.View{
			Masters: ms.masters,
			Slaves:  ms.slaves,
			Load:    append([]core.Load(nil), prev.view.Load...),
		},
	})
	m.rebuildShardStamp(ms, m.snap.Load())
	return true, nil
}

// AnnounceMembership applies mb locally and broadcasts it to every
// master of both the old and the new tier — the initiator half of the
// protocol (receivers do not re-broadcast; the gossip pull is the
// convergence backstop). Broadcast failures are expected (the change
// may exist precisely because a peer died) and are not errors.
func (m *Master) AnnounceMembership(mb core.Membership) error {
	old := m.Membership()
	applied, err := m.ApplyMembership(mb)
	if err != nil {
		return err
	}
	if !applied {
		return nil
	}
	peers := map[int]bool{}
	for _, id := range old.Masters {
		peers[id] = true
	}
	for _, id := range mb.Masters {
		peers[id] = true
	}
	delete(peers, m.ID)
	cur := m.Membership()
	wire := cur.AppendWire(make([]byte, 0, 128))
	for id := range peers {
		m.postMembership(id, wire)
	}
	return nil
}

// postMembership best-effort POSTs an m2 line to one peer master.
func (m *Master) postMembership(id int, wire []byte) {
	base := m.nodeURL(id)
	if base == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), pollDeadlineFloor)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+MembershipPath, bytes.NewReader(wire))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", core.MembershipWireContentType)
	resp, err := m.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
	resp.Body.Close()
}

// handleMembership serves the membership exchange endpoint. GET returns
// the current m2 line; POST folds one in newest-wins, answering 204 on
// adoption and 200 with the (newer) current line otherwise so a
// lagging sender converges from the response. Unsharded masters answer
// 404, like /shard.
func (m *Master) handleMembership(rw http.ResponseWriter, req *http.Request) {
	if !m.sharded {
		http.Error(rw, "unsharded master", http.StatusNotFound)
		return
	}
	switch req.Method {
	case http.MethodGet:
		m.writeMembership(rw, http.StatusOK)
	case http.MethodPost:
		buf := wireBufPool.Get().(*[]byte)
		b, err := readAllInto((*buf)[:0], io.LimitReader(req.Body, 1<<16))
		var mb core.Membership
		if err == nil {
			err = core.ParseMembership(b, &mb)
		}
		*buf = b[:0]
		wireBufPool.Put(buf)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		applied, err := m.ApplyMembership(mb)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if applied {
			rw.WriteHeader(http.StatusNoContent)
			return
		}
		m.writeMembership(rw, http.StatusOK)
	default:
		http.Error(rw, "GET or POST", http.StatusMethodNotAllowed)
	}
}

func (m *Master) writeMembership(rw http.ResponseWriter, status int) {
	mb := m.Membership()
	rw.Header().Set("Content-Type", core.MembershipWireContentType)
	rw.WriteHeader(status)
	rw.Write(mb.AppendWire(make([]byte, 0, 128))) //nolint:errcheck
}

// fetchMembership pulls one peer's /membership into dst.
func (m *Master) fetchMembership(ctx context.Context, base string, dst *core.Membership) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+MembershipPath, nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("membership: status %d", resp.StatusCode)
	}
	buf := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(buf)
	b, err := readAllInto((*buf)[:0], io.LimitReader(resp.Body, 1<<16))
	*buf = b[:0]
	if err != nil {
		return err
	}
	return core.ParseMembership(b, dst)
}

// pullMembership fetches every peer master's membership and adopts the
// newest — the gossip-round backstop that bounds convergence to one
// round after any announce is lost.
func (m *Master) pullMembership(ctx context.Context, ms *memState) {
	var mb core.Membership
	for _, id := range ms.owners {
		if id == m.ID {
			continue
		}
		base := m.nodeURL(id)
		if base == "" {
			continue
		}
		if err := m.fetchMembership(ctx, base, &mb); err != nil {
			continue
		}
		if mb.Epoch > m.Epoch() {
			m.ApplyMembership(mb) //nolint:errcheck // older/invalid lines just don't apply
		}
	}
}

// confirmDead re-probes one suspect with its own generous deadline
// before it is declared dead. The gossip round's pulls run sequentially
// under one shared deadline, so on a loaded box a slow early fetch can
// starve the later ones into spurious misses — a slow-but-alive master
// must not be rebalanced away over that. A genuinely dead server
// refuses the dial in microseconds, so real failures still converge
// within the same round. A newer membership learned from the probe is
// adopted on the spot.
func (m *Master) confirmDead(id int) bool {
	base := m.nodeURL(id)
	if base == "" {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*pollDeadlineFloor)
	defer cancel()
	var mb core.Membership
	if err := m.fetchMembership(ctx, base, &mb); err != nil {
		return true
	}
	if mb.Epoch > m.Epoch() {
		m.ApplyMembership(mb) //nolint:errcheck // older/invalid lines just don't apply
	}
	return false
}

// detectDeadMasters turns gossip silence into a membership change: once
// a shard owner has missed gossipMissThreshold consecutive pulls and
// failed a direct confirmation probe, the lowest-id surviving master
// (deterministic initiator — no election) announces the successor
// membership with every dead peer removed. Callers run on the gossip
// goroutine (single writer of gossipMiss).
func (m *Master) detectDeadMasters(ms *memState) {
	if ms.shard < 0 {
		return
	}
	var dead []int
	lowestLive := m.ID
	for _, id := range ms.owners {
		if id == m.ID {
			continue
		}
		if m.gossipMiss[id] >= gossipMissThreshold {
			if m.confirmDead(id) {
				dead = append(dead, id)
				continue
			}
			m.gossipMiss[id] = 0
		}
		if id < lowestLive {
			lowestLive = id
		}
	}
	if len(dead) == 0 || lowestLive != m.ID || len(dead) >= len(ms.owners) {
		return
	}
	mb := ms.mb.Clone()
	kept := mb.Masters[:0]
	isDead := map[int]bool{}
	for _, id := range dead {
		isDead[id] = true
	}
	for _, id := range mb.Masters {
		if !isDead[id] {
			kept = append(kept, id)
		}
	}
	mb.Masters = kept
	mb.Epoch++
	if err := m.AnnounceMembership(mb); err != nil {
		return
	}
	for _, id := range dead {
		m.gossipMiss[id] = 0
	}
}

// Live master-tier autoscaler: the live call site of core.Planner, the
// Theorem 1 re-planner the simulator shares. Live nodes have no power
// switch, so the planner plans m on the current membership and the
// lowest-id master announces the resized tier as a new epoch.

// autoscaleLoop drives the controller; every sharded master runs it,
// but autoscaleOnce acts only on the current membership's lowest-id
// master, so there is exactly one initiator per epoch.
func (m *Master) autoscaleLoop(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.autoscaleOnce(now)
		}
	}
}

// autoscaleOnce runs one controller period ending at now: harvest the
// window, plan m, and announce the resized tier when the plan moves.
func (m *Master) autoscaleOnce(now time.Time) {
	ms := m.mem.Load()
	if ms.shard < 0 || len(ms.mb.Masters) == 0 || ms.mb.Masters[0] != m.ID {
		return
	}
	m.placeMu.Lock()
	w := m.win
	m.win = core.Window{}
	m.placeMu.Unlock()
	// Rates in virtual time: demands are unscaled virtual seconds, and a
	// wall window of one period spans period/timeScale virtual seconds.
	r, ok := w.Rates(m.asEvery.Seconds() / m.timeScale)
	if !ok {
		return // no signal this window; keep the current plan
	}
	// This master sees its share of a load the generator stripes
	// uniformly over the tier.
	masters := len(ms.mb.Masters)
	r.LambdaH *= float64(masters)
	r.LambdaC *= float64(masters)
	r.P = masters + len(ms.mb.Slaves)
	at := now.Sub(m.origin).Seconds()
	target, _ := m.as.Plan(r, masters, at)
	acted := false
	if mb := m.nextTierPlan(ms, target); mb != nil {
		acted = m.AnnounceMembership(*mb) == nil
	}
	m.as.Settle(acted, at, m.asEvery.Seconds())
}

// nextTierPlan builds the successor membership with the master tier
// resized to target: promotions take the lowest-id master-capable
// slaves, demotions return the highest-id masters to the slave tier
// (they re-register as slaves and keep executing). Returns nil when no
// legal move exists.
func (m *Master) nextTierPlan(ms *memState, target int) *core.Membership {
	mb := ms.mb.Clone()
	for target > len(mb.Masters) {
		picked := -1
		for i, id := range mb.Slaves {
			if m.masterCapable[id] {
				picked = i
				break
			}
		}
		if picked < 0 {
			break
		}
		mb.Masters = append(mb.Masters, mb.Slaves[picked])
		mb.Slaves = append(mb.Slaves[:picked], mb.Slaves[picked+1:]...)
	}
	for target < len(mb.Masters) && len(mb.Masters) > 1 && len(mb.Slaves) > 0 {
		last := len(mb.Masters) - 1
		mb.Slaves = append(mb.Slaves, mb.Masters[last])
		mb.Masters = mb.Masters[:last]
	}
	if len(mb.Masters) == len(ms.mb.Masters) {
		return nil
	}
	mb.Normalize()
	mb.Epoch++
	return &mb
}
