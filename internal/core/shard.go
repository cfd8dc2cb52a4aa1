package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Shard map: the deterministic partition of the slave fleet across the
// master tier. Every master computes the same map from the same inputs
// (mode, shard count, slave ID list), so there is no coordination step:
// master i owns shard i, polls only its members, tracks breakers for
// them, and books placements against them. Cross-shard state travels as
// compact ShardSummary digests (shardwire.go), never as full views, so
// no component does O(cluster size) work per tick.
//
// Two modes:
//
//   - ShardStatic assigns the slave at position i of the input list to
//     shard i mod shards — the predictable fallback whose membership a
//     human can compute in their head.
//   - ShardHash places shards on a consistent-hash ring (FNV-1a over
//     virtual points) and assigns each slave to the first shard point
//     clockwise from its own hash — membership stays mostly stable when
//     the shard count changes, the property that matters for live
//     resharding (the arktos partitioned-API-server move).

// Shard map modes.
const (
	ShardStatic = "static"
	ShardHash   = "hash"
)

// ringPointsPerShard is the virtual-node multiplier of the hash ring;
// enough points that shard sizes stay within a few percent of even for
// fleets in the hundreds-to-thousands range.
const ringPointsPerShard = 64

// maxShardNodeID bounds the node IDs a map accepts. The owner table is a
// dense slice indexed by ID, so an absurd ID from a corrupt membership
// must be refused rather than allocated for.
const maxShardNodeID = 1<<24 - 1

// ShardMap is an immutable node→shard partition. The zero value is not
// usable; construct with NewShardMap. Maps are versioned by a
// monotonically increasing epoch: the initial map of a run is epoch 0,
// and every membership change (node join/leave/fail, master-count
// change) derives a successor via Rebalanced, which bumps the epoch.
// Gossip carries the epoch so masters converge newest-wins on the same
// partition without a coordination step.
//
// Successors share what the change did not touch — the ring, the member
// slices of unaffected shards — so nothing reachable from a map is ever
// written after construction.
type ShardMap struct {
	mode    string
	shards  int
	epoch   uint64
	size    int         // mapped slave population
	owner   []int32     // slave node ID → shard, -1 for IDs not in the map
	members [][]int     // shard → slave node IDs, ascending
	ring    []ringPoint // ShardHash with ≥ 2 shards: the sorted virtual points
}

// NewShardMap partitions the given slave IDs into shards at epoch 0.
// mode "" means ShardHash. shards < 1 or a single shard yields the
// trivial one-shard map (every slave in shard 0) — the unsharded
// degenerate case callers can still index uniformly.
func NewShardMap(mode string, shards int, slaves []int) (*ShardMap, error) {
	return NewShardMapAt(mode, shards, slaves, 0)
}

// NewShardMapAt is NewShardMap at an explicit epoch — for peers adopting
// a map version learned from gossip rather than deriving it locally.
// Slave IDs must be distinct and in [0, 2^24).
func NewShardMapAt(mode string, shards int, slaves []int, epoch uint64) (*ShardMap, error) {
	if mode == "" {
		mode = ShardHash
	}
	if mode != ShardStatic && mode != ShardHash {
		return nil, fmt.Errorf("core: unknown shard map mode %q (want %q or %q)", mode, ShardStatic, ShardHash)
	}
	if shards < 1 {
		shards = 1
	}
	m := &ShardMap{mode: mode, shards: shards, epoch: epoch}
	if mode == ShardHash {
		m.ring = deriveRing(nil, shards)
	}
	if err := m.assignOwners(slaves, nil); err != nil {
		return nil, err
	}
	m.bucketMembers()
	return m, nil
}

// assignOwners fills the owner table: every slave gets its shard by list
// position under ShardStatic and by ring lookup under ShardHash. known,
// when non-nil, is a map with the same partition function (ShardHash,
// same shard count) whose answers are reused instead of looked up.
func (m *ShardMap) assignOwners(slaves []int, known *ShardMap) error {
	n := 0
	for _, id := range slaves {
		if id < 0 || id > maxShardNodeID {
			return fmt.Errorf("core: shard map: slave id %d outside [0, %d]", id, maxShardNodeID)
		}
		if id >= n {
			n = id + 1
		}
	}
	m.size = len(slaves)
	m.owner = make([]int32, n)
	for i := range m.owner {
		m.owner[i] = -1
	}
	for i, id := range slaves {
		if m.owner[id] >= 0 {
			return fmt.Errorf("core: shard map: slave %d listed twice", id)
		}
		s := -1
		if known != nil {
			s = known.ShardOf(id)
		}
		switch {
		case s >= 0:
		case m.shards == 1:
			s = 0
		case m.mode == ShardStatic:
			s = i % m.shards
		default:
			s = ringOwner(m.ring, hashID(id))
		}
		m.owner[id] = int32(s)
	}
	return nil
}

// bucketMembers builds every shard's member list from the owner table
// with a counting sort: walking the dense table visits IDs in ascending
// order, so the lists come out sorted without a comparison sort.
func (m *ShardMap) bucketMembers() {
	sizes := make([]int, m.shards)
	for _, s := range m.owner {
		if s >= 0 {
			sizes[s]++
		}
	}
	// One backing array carved into per-shard windows; the capacity limit
	// keeps a shard's appends inside its own window.
	flat := make([]int, m.size)
	m.members = make([][]int, m.shards)
	off := 0
	for s, n := range sizes {
		m.members[s] = flat[off : off : off+n]
		off += n
	}
	for id, s := range m.owner {
		if s >= 0 {
			m.members[s] = append(m.members[s], id)
		}
	}
}

// Mode reports the construction mode ("static" or "hash").
func (m *ShardMap) Mode() string { return m.mode }

// NumShards reports the shard count.
func (m *ShardMap) NumShards() int { return m.shards }

// Epoch reports the map's membership version.
func (m *ShardMap) Epoch() uint64 { return m.epoch }

// Rebalanced derives the successor map at epoch+1 from a changed
// membership: a new shard count (masters promoted/demoted) and/or a new
// slave list (nodes joined, left or failed). The partition function is
// unchanged, so under ShardHash only the slaves whose clockwise-first
// ring point belongs to an added or removed shard move — about 1/m of
// the fleet per master change — while ShardStatic reassigns by position
// as always.
//
// The result equals NewShardMapAt on the same inputs, but is derived: a
// shard's ring points do not depend on the other shards, so a changed
// shard count merges or filters the ring instead of re-sorting it, and
// an unchanged one (where a slave's owner depends on its ID alone) keeps
// the ring and every member list no slave joined or left.
func (m *ShardMap) Rebalanced(shards int, slaves []int) (*ShardMap, error) {
	if shards < 1 {
		shards = 1
	}
	next := &ShardMap{mode: m.mode, shards: shards, epoch: m.epoch + 1}
	if m.mode == ShardHash {
		next.ring = deriveRing(m.ring, shards)
	}
	if m.mode == ShardStatic || shards != m.shards {
		if err := next.assignOwners(slaves, nil); err != nil {
			return nil, err
		}
		next.bucketMembers()
		return next, nil
	}
	if err := next.assignOwners(slaves, m); err != nil {
		return nil, err
	}
	// Nobody changed owner, so the member lists differ only where a slave
	// left or joined. Copy-on-write: the outer slice on the first
	// difference, a shard's list each time it loses or gains a slave.
	next.members = m.members
	shared := true
	for id := 0; id < len(next.owner) || id < len(m.owner); id++ {
		was, now := m.ShardOf(id), next.ShardOf(id)
		if was == now {
			continue
		}
		if shared {
			next.members = append([][]int(nil), m.members...)
			shared = false
		}
		if was >= 0 {
			next.members[was] = withoutID(next.members[was], id)
		} else {
			next.members[now] = withID(next.members[now], id)
		}
	}
	return next, nil
}

// withoutID returns a copy of the ascending list without id.
func withoutID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	out := make([]int, 0, len(ids)-1)
	return append(append(out, ids[:i]...), ids[i+1:]...)
}

// withID returns a copy of the ascending list with id inserted in order.
func withID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	out := make([]int, 0, len(ids)+1)
	return append(append(append(out, ids[:i]...), id), ids[i:]...)
}

// MovedFrom reports how many slaves present in both maps are owned by a
// different shard in m than in old — the churn a rebalance imposes on
// pollers and breakers.
func (m *ShardMap) MovedFrom(old *ShardMap) int {
	moved := 0
	for id, s := range m.owner {
		if os := old.ShardOf(id); s >= 0 && os >= 0 && os != int(s) {
			moved++
		}
	}
	return moved
}

// Size reports the mapped slave population.
func (m *ShardMap) Size() int { return m.size }

// ShardOf reports the shard owning the given slave, or -1 when the node
// is not in the map (masters, unknown IDs).
func (m *ShardMap) ShardOf(node int) int {
	if node < 0 || node >= len(m.owner) {
		return -1
	}
	return int(m.owner[node])
}

// Members reports the slaves of one shard in ascending ID order. The
// returned slice is owned by the map; callers must not mutate it.
func (m *ShardMap) Members(shard int) []int {
	if shard < 0 || shard >= len(m.members) {
		return nil
	}
	return m.members[shard]
}

// ringPoint is one virtual point of the consistent-hash ring. A ring is
// a []ringPoint sorted by (hash, shard) holding ringPointsPerShard points
// for each of shards 0..k−1.
type ringPoint struct {
	hash  uint64
	shard int
}

// cmpRingPoint orders points by hash; collisions resolve by shard index
// so the ring order — and therefore the whole map — is deterministic.
func cmpRingPoint(a, b ringPoint) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	return cmp.Compare(a.shard, b.shard)
}

// deriveRing returns the ring of the given shard count from the ring of
// another (nil: none). Point hashes mix the shard index and the point
// index, so a shard's points are the same on every ring that has the
// shard: fewer shards filter the old ring, more shards sort only the new
// shards' points and merge them in, an equal count shares it. A single
// shard owns everything and needs no ring.
func deriveRing(old []ringPoint, shards int) []ringPoint {
	have := len(old) / ringPointsPerShard
	switch {
	case shards == 1:
		return nil
	case shards == have:
		return old
	case shards < have:
		ring := make([]ringPoint, 0, shards*ringPointsPerShard)
		for _, pt := range old {
			if pt.shard < shards {
				ring = append(ring, pt)
			}
		}
		return ring
	}
	added := make([]ringPoint, 0, (shards-have)*ringPointsPerShard)
	for s := have; s < shards; s++ {
		for p := 0; p < ringPointsPerShard; p++ {
			added = append(added, ringPoint{hash: hashPoint(s, p), shard: s})
		}
	}
	slices.SortFunc(added, cmpRingPoint)
	if have == 0 {
		return added
	}
	ring := make([]ringPoint, 0, shards*ringPointsPerShard)
	i, j := 0, 0
	for i < len(old) && j < len(added) {
		if cmpRingPoint(added[j], old[i]) < 0 {
			ring = append(ring, added[j])
			j++
		} else {
			ring = append(ring, old[i])
			i++
		}
	}
	return append(append(ring, old[i:]...), added[j:]...)
}

// ringOwner finds the shard of the first ring point clockwise from h.
func ringOwner(ring []ringPoint, h uint64) int {
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if i == len(ring) {
		i = 0
	}
	return ring[i].shard
}

// mix64 is the splitmix64 finalizer — full-avalanche mixing of a 64-bit
// word, so consecutive small integers (node IDs, shard/point indices)
// spread uniformly over the ring. FNV-style byte folding is too weak
// here: low-entropy inputs clump and shard sizes skew badly.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashID hashes a node ID onto the ring.
func hashID(id int) uint64 {
	return mix64(uint64(int64(id)))
}

// hashPoint hashes shard virtual point (s, p).
func hashPoint(s, p int) uint64 {
	return mix64(uint64(int64(s))<<32 ^ uint64(int64(p)) ^ 0x5bd1e995)
}
