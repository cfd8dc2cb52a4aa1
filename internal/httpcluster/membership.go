package httpcluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"msweb/internal/core"
)

// Live membership: this master drives core.Tier, the I/O-free
// membership protocol (its doc states the rules). Sockets and tickers
// become Tier inputs:
//
//   - a POST to /membership, and each gossip round's pull of every peer
//     master's /membership, are received memberships (Adopt);
//   - a gossip round's /shard pulls are Gossip's input, and each suspect
//     it names gets a direct probe (Probe) before Failover;
//   - the autoscaler's plan is Resize's target.
//
// memMu serializes the inputs, and change publishes whatever the Tier
// adopts as one immutable memState behind an atomic pointer — the live
// analogue of the simulator's reshard() — so the request path never
// takes the lock nor sees a half-rebalanced view. During the handoff
// window (rebalanceWindow × GossipEvery after any epoch move) sheds are
// labeled "rebalancing" and their Retry-After reflects the remaining
// window rather than the breaker hold-down.

// MembershipPath is the membership exchange endpoint on sharded
// masters: GET returns the current m2 line, POST applies one
// newest-wins.
const MembershipPath = "/membership"

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
	// pollSet is the node set this master samples each poll round and
	// the placement overlay walks; masters/slaves are the
	// scheduling-view tier lists.
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
	ms := &memState{mb: mb, sm: sm, shard: mb.MasterIndex(self)}
	ms.masters = []int{self}
	if ms.shard >= 0 {
		ms.slaves = append([]int(nil), sm.Members(ms.shard)...)
	}
	ms.pollSet = append(append([]int(nil), ms.masters...), ms.slaves...)
	return ms
}

// Membership returns a copy of the master's current membership (zero
// value on unsharded masters).
func (m *Master) Membership() core.Membership { return m.mem.Load().mb.Clone() }

// Epoch reports the master's current shard-map epoch (0 when unsharded
// or never rebalanced).
func (m *Master) Epoch() uint64 { return m.mem.Load().mb.Epoch }

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
// announcements are harmless). Returns whether mb was adopted.
func (m *Master) ApplyMembership(mb core.Membership) (bool, error) {
	return m.change(false, func(t *core.Tier) (bool, error) { return t.Adopt(mb) })
}

// AnnounceMembership applies mb locally and, when adopted, broadcasts
// it like any change this master initiates. Broadcast failures are
// expected (the change may exist precisely because a peer died) and
// are not errors.
func (m *Master) AnnounceMembership(mb core.Membership) error {
	_, err := m.change(true, func(t *core.Tier) (bool, error) { return t.Adopt(mb) })
	return err
}

// change feeds one input to the Tier under memMu. When the Tier adopts
// a new generation, the shard map, poll set and view tier lists swap
// atomically — the next placement sees the new topology without
// waiting for a poll round — and the handoff window opens. With
// announce (the initiator half of the protocol) the new line then goes
// to every master of both the old and the new tier; receivers do not
// re-broadcast, the gossip pull is the convergence backstop.
func (m *Master) change(announce bool, input func(*core.Tier) (bool, error)) (bool, error) {
	if !m.sharded {
		return false, fmt.Errorf("httpcluster: unsharded master %d has no membership", m.ID)
	}
	m.memMu.Lock()
	old := m.mem.Load()
	adopted, err := input(m.tier)
	if !adopted {
		m.memMu.Unlock()
		return false, err
	}
	ms := newMemState(m.ID, m.tier.Membership(), m.tier.ShardMap())
	m.mem.Store(ms)
	m.memberApplies.Add(1)
	m.rebalanceUntil.Store(time.Now().Add(rebalanceWindow * m.gossipEvery).UnixNano())

	// The overlay walks the poll set only when the report table's
	// version moved; bump it so the next placement applies the reports
	// of nodes the new poll set brought in.
	m.reportVer.Add(1)
	m.rebuildShardStamp(ms)
	m.memMu.Unlock()
	if announce {
		wire := ms.mb.AppendWire(make([]byte, 0, 128))
		peers := slices.Concat(old.mb.Masters, ms.mb.Masters)
		for i, id := range peers {
			if id != m.ID && slices.Index(peers, id) == i {
				m.postMembership(id, wire)
			}
		}
	}
	return true, nil
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

// probe fetches peer id's membership, adopts it newest-wins and reports
// whether the peer answered. Each gossip round probes every peer master
// (the convergence backstop) under the round's shared deadline, and
// each suspect once more under its own.
func (m *Master) probe(ctx context.Context, id int) bool {
	base := m.nodeURL(id)
	if base == "" {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+MembershipPath, nil)
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	buf := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(buf)
	b, err := readAllInto((*buf)[:0], io.LimitReader(resp.Body, 1<<16))
	*buf = b[:0]
	var mb core.Membership
	if err != nil || core.ParseMembership(b, &mb) != nil {
		return false
	}
	m.ApplyMembership(mb) //nolint:errcheck // older/invalid lines just don't apply
	return true
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
	if ms.mb.Masters[0] != m.ID {
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
	acted, _ := m.change(true, func(t *core.Tier) (bool, error) { return t.Resize(target), nil })
	m.as.Settle(acted, at, m.asEvery.Seconds())
}
