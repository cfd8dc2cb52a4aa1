package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestRebalancedEqualsFromScratch walks seeded random topology histories
// — shard count up and down by one, unchanged, and jumping (through 1
// too); slaves joining and leaving — rebalancing at each step the way
// both planes do, with NewShardMapAt at the next epoch, and checks what a
// holder of the previous map relies on:
//   - the epoch advances by one and the size is the slave count;
//   - the successor partitions exactly as a map built from scratch on
//     the same slaves in another order, whatever its epoch;
//   - MovedFrom equals a brute-force count;
//   - consistent hashing: at an unchanged shard count nobody moves, and
//     at ±1 shard only the added or removed shard's slaves move — about
//     1/m of the fleet over the walk;
//   - an unusable slave list (negative, too large or duplicate id) is
//     refused at every step.
func TestRebalancedEqualsFromScratch(t *testing.T) {
	const fleet = 300
	var moved1, want1 float64 // ±1-shard steps: slaves moved, expected 1/m share
	for seed := int64(1); seed <= 12; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		in := make([]bool, fleet)
		for id := range in {
			in[id] = rnd.Intn(3) > 0
		}
		list := func() []int {
			var ids []int
			for id, ok := range in {
				if ok {
					ids = append(ids, id)
				}
			}
			// Ownership must not depend on list order.
			rnd.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			return ids
		}
		shards := 1 + rnd.Intn(12)
		cur, err := NewShardMap(shards, list())
		if err != nil {
			t.Fatal(err)
		}
		if cur.Epoch() != 0 {
			t.Fatalf("seed %d: initial epoch %d, want 0", seed, cur.Epoch())
		}
		for step := 0; step < 80; step++ {
			name := fmt.Sprintf("seed %d step %d", seed, step)
			switch rnd.Intn(6) {
			case 0:
				shards++
			case 1:
				shards = max(shards-1, 1)
			case 2:
				shards = 1 + rnd.Intn(20)
			}
			for k := rnd.Intn(4); k > 0; k-- {
				id := rnd.Intn(fleet)
				in[id] = !in[id]
			}
			slaves := list()
			next, err := NewShardMapAt(shards, slaves, cur.Epoch()+1)
			if err != nil {
				t.Fatal(err)
			}
			if next.Epoch() != cur.Epoch()+1 || next.NumShards() != shards || next.Size() != len(slaves) {
				t.Fatalf("%s: (epoch %d, %d shards, size %d), want (%d, %d, %d)", name,
					next.Epoch(), next.NumShards(), next.Size(), cur.Epoch()+1, shards, len(slaves))
			}
			for _, id := range slaves {
				if next.ShardOf(id) < 0 {
					t.Fatalf("%s: slave %d is unmapped", name, id)
				}
			}
			scratch, err := NewShardMap(shards, list())
			if err != nil {
				t.Fatal(err)
			}
			for id := -1; id <= fleet; id++ {
				if a, b := next.ShardOf(id), scratch.ShardOf(id); a != b {
					t.Fatalf("%s: ShardOf(%d) = %d, from scratch %d", name, id, a, b)
				}
			}
			for s := 0; s < shards; s++ {
				if a, b := next.Members(s), scratch.Members(s); !slices.Equal(a, b) {
					t.Fatalf("%s: shard %d members %v, from scratch %v", name, s, a, b)
				}
			}

			// The added or removed shard is the highest index of the
			// larger map; a ±1 step may move a slave only to or from it.
			grown := max(shards, cur.NumShards())
			oneStep := shards-cur.NumShards() == 1 || cur.NumShards()-shards == 1
			moved, common := 0, 0
			for id := 0; id < fleet; id++ {
				a, b := cur.ShardOf(id), next.ShardOf(id)
				if a < 0 || b < 0 {
					continue
				}
				common++
				if a == b {
					continue
				}
				moved++
				if oneStep && a != grown-1 && b != grown-1 {
					t.Fatalf("%s: %d → %d shards moved slave %d from shard %d to %d", name, cur.NumShards(), shards, id, a, b)
				}
			}
			if got := next.MovedFrom(cur); got != moved {
				t.Fatalf("%s: MovedFrom = %d, brute force %d", name, got, moved)
			}
			if shards == cur.NumShards() && moved != 0 {
				t.Fatalf("%s: %d slaves moved at an unchanged shard count of %d", name, moved, shards)
			}
			if oneStep {
				moved1 += float64(moved)
				want1 += float64(common) / float64(grown)
			}

			unusable := []int{-1, maxShardNodeID + 1}
			if len(slaves) > 0 {
				unusable = append(unusable, slaves[0]) // a duplicate
			}
			id := unusable[step%len(unusable)]
			if _, err := NewShardMapAt(shards, append(slaves, id), cur.Epoch()+1); err == nil {
				t.Fatalf("%s: NewShardMapAt accepted slave %d added to %d slaves", name, id, len(slaves))
			}
			cur = next
		}
	}
	if moved1 < 0.75*want1 || moved1 > 1.25*want1 {
		t.Errorf("±1-shard steps moved %.0f slaves, consistent hashing predicts about %.0f (1/m of those mapped twice)", moved1, want1)
	}
}

func TestShardMapRejectsUnusableIDs(t *testing.T) {
	for name, slaves := range map[string][]int{
		"negative":  {3, -1},
		"too large": {3, maxShardNodeID + 1},
		"duplicate": {3, 4, 3},
	} {
		if _, err := NewShardMap(2, slaves); err == nil {
			t.Errorf("NewShardMap accepted a %s slave id", name)
		}
	}
}

// referenceOwners is the partition function written the obvious way —
// hash every point of every shard, sort the whole ring, look each slave
// up — as the oracle for NewShardMap.
func referenceOwners(shards int, slaves []int) map[int]int {
	owners := make(map[int]int, len(slaves))
	var ring []ringPoint
	for s := 0; s < shards; s++ {
		for p := 0; p < ringPointsPerShard; p++ {
			ring = append(ring, ringPoint{hash: hashPoint(s, p), shard: s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	for _, id := range slaves {
		if shards == 1 {
			owners[id] = 0
			continue
		}
		h := hashID(id)
		k := sort.Search(len(ring), func(k int) bool { return ring[k].hash >= h })
		if k == len(ring) {
			k = 0
		}
		owners[id] = ring[k].shard
	}
	return owners
}

func TestShardMapMatchesReferencePartition(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		shards := 1 + rnd.Intn(40)
		slaves := rnd.Perm(400)[:rnd.Intn(400)]
		m, err := NewShardMap(shards, slaves)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceOwners(shards, slaves)
		if m.Size() != len(want) {
			t.Fatalf("size %d, want %d", m.Size(), len(want))
		}
		members := 0
		for s := 0; s < shards; s++ {
			ids := m.Members(s)
			members += len(ids)
			if !sort.IntsAreSorted(ids) {
				t.Fatalf("%d: shard %d members not ascending: %v", shards, s, ids)
			}
			for _, id := range ids {
				if want[id] != s {
					t.Fatalf("%d: slave %d in shard %d, reference says %d", shards, id, s, want[id])
				}
			}
		}
		if members != len(want) {
			t.Fatalf("%d: member lists hold %d slaves, want %d", shards, members, len(want))
		}
		for id, s := range want {
			if got := m.ShardOf(id); got != s {
				t.Fatalf("%d: ShardOf(%d) = %d, reference says %d", shards, id, got, s)
			}
		}
	}
}
