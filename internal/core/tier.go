package core

import (
	"fmt"
	"slices"
)

// Tier is one master's side of the membership protocol: the epoch-
// versioned topology a sharded master tier converges on. It does no
// I/O, reads no clock and starts no goroutine. A driver (the live
// master) turns sockets and tickers into its inputs, serializes the
// calls, and publishes every generation the Tier adopts; for one it
// initiated (Failover, Resize) it also announces the new membership to
// every master of the old and the new tier.
//
// Convergence is newest-wins by epoch over two channels: that announce,
// and a pull of every peer master's membership each gossip round, which
// bounds how long a master that missed the announce lags to one round.
// Adopt folds in either.
//
// Failure detection rides the same rounds: tierMissThreshold
// consecutive failed summary pulls from a peer master make it a
// suspect (Gossip), a direct probe clears it or leaves it suspected
// (Probe), and the lowest-id surviving master removes the silent ones
// in one new epoch (Failover) — a deterministic initiator, no election.
// Their shards redistribute by consistent hash, so about 1/m of the
// fleet changes owner.
type Tier struct {
	self        int
	mb          Membership // normalized; never written after adoption
	sm          *ShardMap  // derived from mb, at mb.Epoch
	miss        []int      // consecutive failed pulls by node id; len is the cluster size
	gossipEpoch uint64     // epoch of the last gossip round
	capable     []bool     // master-capable nodes by id: the ones Resize promotes
}

// tierMissThreshold is how many consecutive failed pulls make a peer
// master a suspect.
const tierMissThreshold = 3

// GossipPull is one summary pull of a gossip round: the peer master
// pulled and whether it answered.
type GossipPull struct {
	Node int
	OK   bool
}

// NewTier starts self's side of the protocol in a cluster of nodes
// nodes, at the launch membership mb, with the given master-capable
// nodes.
func NewTier(self, nodes int, mb Membership, capable []int) (*Tier, error) {
	t := &Tier{self: self, miss: make([]int, nodes), capable: make([]bool, nodes)}
	for _, id := range capable {
		t.capable[id] = true
	}
	if err := t.set(mb.Clone()); err != nil {
		return nil, err
	}
	return t, nil
}

// Membership returns the current generation's membership. Its slices
// are shared and must not be written.
func (t *Tier) Membership() Membership { return t.mb }

// ShardMap returns the current generation's shard map.
func (t *Tier) ShardMap() *ShardMap { return t.sm }

// set adopts mb, which the caller owns, as the next generation.
func (t *Tier) set(mb Membership) error {
	mb.Normalize()
	sm, err := mb.ShardMap()
	if err != nil {
		return err
	}
	t.mb, t.sm = mb, sm
	return nil
}

// Adopt folds in a received membership, newest-wins, and reports
// whether it was adopted. Ties and older epochs are ignored, so a
// re-delivered announce is harmless; a malformed membership, or one
// naming a node outside the cluster, is an error.
func (t *Tier) Adopt(mb Membership) (bool, error) {
	if err := mb.Validate(); err != nil {
		return false, err
	}
	for _, ids := range [][]int{mb.Masters, mb.Slaves} {
		for _, id := range ids {
			if id >= len(t.miss) {
				return false, fmt.Errorf("core: membership: node %d outside cluster (len %d)", id, len(t.miss))
			}
		}
	}
	if mb.Epoch <= t.mb.Epoch {
		return false, nil
	}
	err := t.set(mb.Clone())
	return err == nil, err
}

// Gossip folds in one gossip round's summary pulls, made under the
// membership of the given epoch, and returns the suspects to probe. A
// round whose epoch is no longer current counts nothing, and a master
// that owns no shard suspects no one. Counters restart at the first
// round of each epoch, so a rejoined master is not declared dead off
// misses from before it left.
func (t *Tier) Gossip(epoch uint64, pulls []GossipPull) []int {
	if epoch != t.mb.Epoch {
		return nil
	}
	if epoch != t.gossipEpoch {
		t.gossipEpoch = epoch
		clear(t.miss)
	}
	for _, p := range pulls {
		if p.OK {
			t.miss[p.Node] = 0
		} else {
			t.miss[p.Node]++
		}
	}
	if t.mb.MasterIndex(t.self) < 0 {
		return nil
	}
	return t.suspects()
}

// suspects lists the peer masters at or over the miss threshold.
func (t *Tier) suspects() []int {
	var ids []int
	for _, id := range t.mb.Masters {
		if id != t.self && t.miss[id] >= tierMissThreshold {
			ids = append(ids, id)
		}
	}
	return ids
}

// Probe records a suspect's probe verdict: an answer restarts its
// counter; silence leaves it suspected, for Failover to remove.
func (t *Tier) Probe(id int, alive bool) {
	if alive {
		t.miss[id] = 0
	}
}

// Failover removes every remaining suspect from the master tier in one
// new epoch and reports whether it adopted that successor. Only the
// lowest-id surviving master does, and only while the membership is
// the one the last gossip round ran under.
func (t *Tier) Failover() bool {
	dead := t.suspects()
	if len(dead) == 0 || t.mb.Epoch != t.gossipEpoch || t.mb.MasterIndex(t.self) < 0 {
		return false
	}
	next := t.mb.Clone()
	next.Masters = next.Masters[:0]
	for _, id := range t.mb.Masters {
		if slices.Contains(dead, id) {
			continue
		}
		if id < t.self {
			return false // a lower-id survivor initiates
		}
		next.Masters = append(next.Masters, id)
	}
	next.Epoch++
	return t.set(next) == nil
}

// Resize is the planner's input: the master tier resized toward target
// in one new epoch, which only the lowest-id master adopts. Promotions
// take the lowest-id master-capable slaves; demotions return the
// highest-id masters to the slave tier, where they keep executing,
// never the last master and only while a slave remains. Reports
// whether a legal move was adopted.
func (t *Tier) Resize(target int) bool {
	if t.mb.Masters[0] != t.self {
		return false
	}
	mb := t.mb.Clone()
	for target > len(mb.Masters) {
		picked := slices.IndexFunc(mb.Slaves, func(id int) bool { return t.capable[id] })
		if picked < 0 {
			break
		}
		mb.Masters = append(mb.Masters, mb.Slaves[picked])
		mb.Slaves = slices.Delete(mb.Slaves, picked, picked+1)
	}
	for target < len(mb.Masters) && len(mb.Masters) > 1 && len(mb.Slaves) > 0 {
		last := len(mb.Masters) - 1
		mb.Slaves = append(mb.Slaves, mb.Masters[last])
		mb.Masters = mb.Masters[:last]
	}
	if len(mb.Masters) == len(t.mb.Masters) {
		return false
	}
	mb.Epoch++
	return t.set(mb) == nil
}
