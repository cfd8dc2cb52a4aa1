package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Shard map: the deterministic partition of the slave fleet across the
// master tier. Every master computes the same map from the same inputs
// (shard count, slave ID list), so there is no coordination step: master
// i owns shard i, polls only its members, tracks breakers for them, and
// books placements against them. Cross-shard state travels as compact
// ShardSummary digests (shardwire.go), never as full views, so no
// component does O(cluster size) work per tick.
//
// The partition is a consistent-hash ring: shards own virtual points
// (splitmix64 over shard and point index) and each slave belongs to the
// first shard point clockwise from its own hash — membership stays
// mostly stable when the shard count changes, the property that matters
// for live resharding (the arktos partitioned-API-server move). Each
// epoch's map is built from scratch by NewShardMapAt on both planes: the
// live plane per adopted membership, the simulator per topology change
// (one per autoscaler plan).

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
// change) builds the next map with NewShardMapAt at a higher epoch.
// Gossip carries the epoch so masters converge newest-wins on the same
// partition without a coordination step.
type ShardMap struct {
	shards  int
	epoch   uint64
	size    int     // mapped slave population
	owner   []int32 // slave node ID → shard, -1 for IDs not in the map
	members [][]int // shard → slave node IDs, ascending
}

// NewShardMap partitions the given slave IDs into shards at epoch 0.
// shards < 1 or a single shard yields the trivial one-shard map (every
// slave in shard 0) — the unsharded degenerate case callers can still
// index uniformly.
func NewShardMap(shards int, slaves []int) (*ShardMap, error) {
	return NewShardMapAt(shards, slaves, 0)
}

// NewShardMapAt is NewShardMap at an explicit epoch: the map of a
// membership (Membership.ShardMap) and the simulator's next map after a
// topology change. Slave IDs must be distinct and in [0, 2^24).
func NewShardMapAt(shards int, slaves []int, epoch uint64) (*ShardMap, error) {
	if shards < 1 {
		shards = 1
	}
	m := &ShardMap{shards: shards, epoch: epoch}
	if err := m.assignOwners(slaves, sharedRing(shards)); err != nil {
		return nil, err
	}
	m.bucketMembers()
	return m, nil
}

// assignOwners fills the owner table: every slave gets its shard by
// lookup on the ring (nil for a single shard, which owns everything).
func (m *ShardMap) assignOwners(slaves []int, ring []ringPoint) error {
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
	for _, id := range slaves {
		if m.owner[id] >= 0 {
			return fmt.Errorf("core: shard map: slave %d listed twice", id)
		}
		s := 0
		if ring != nil {
			s = ringOwner(ring, hashID(id))
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

// NumShards reports the shard count.
func (m *ShardMap) NumShards() int { return m.shards }

// Epoch reports the map's membership version.
func (m *ShardMap) Epoch() uint64 { return m.epoch }

// MovedFrom reports how many slaves present in both maps are owned by a
// different shard in m than in old — the churn a reshard imposes on
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

// newRing returns the sorted ring of the given shard count, or nil for
// a single shard, which owns everything and needs no ring.
func newRing(shards int) []ringPoint {
	if shards == 1 {
		return nil
	}
	ring := make([]ringPoint, 0, shards*ringPointsPerShard)
	for s := 0; s < shards; s++ {
		for p := 0; p < ringPointsPerShard; p++ {
			ring = append(ring, ringPoint{hash: hashPoint(s, p), shard: s})
		}
	}
	slices.SortFunc(ring, cmpRingPoint)
	return ring
}

// maxSharedRing is the largest shard count whose ring is kept: the kept
// rings then hold at most about 8 MB, whatever counts a membership names.
const maxSharedRing = 128

// sharedRings holds the ring of each shard count up to maxSharedRing,
// built on first use and read-only after. A ring depends on the count
// alone, so every map of that count shares one, across simulator grid
// workers and the live plane alike.
var sharedRings [maxSharedRing + 1]atomic.Pointer[[]ringPoint]

// sharedRing returns the ring of the given shard count (≥ 1): the kept
// one, or a fresh build above maxSharedRing.
func sharedRing(shards int) []ringPoint {
	if shards > maxSharedRing {
		return newRing(shards)
	}
	slot := &sharedRings[shards]
	if r := slot.Load(); r != nil {
		return *r
	}
	r := newRing(shards)
	slot.CompareAndSwap(nil, &r)
	return *slot.Load()
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
