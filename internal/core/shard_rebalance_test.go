package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sameShardMap fails the test unless got and want agree on everything a
// holder can observe, and on the ring order the next derivation starts
// from.
func sameShardMap(t *testing.T, step string, got, want *ShardMap, maxID int) {
	t.Helper()
	if got.NumShards() != want.NumShards() || got.Epoch() != want.Epoch() || got.Size() != want.Size() {
		t.Fatalf("%s: shape (%d shards, epoch %d, size %d), want (%d, %d, %d)", step,
			got.NumShards(), got.Epoch(), got.Size(),
			want.NumShards(), want.Epoch(), want.Size())
	}
	if !reflect.DeepEqual(got.ring, want.ring) {
		t.Fatalf("%s: derived ring differs from the ring sorted from scratch", step)
	}
	for id := -1; id <= maxID+1; id++ {
		if g, w := got.ShardOf(id), want.ShardOf(id); g != w {
			t.Fatalf("%s: ShardOf(%d) = %d, want %d", step, id, g, w)
		}
	}
	for s := -1; s <= want.NumShards(); s++ {
		g, w := got.Members(s), want.Members(s)
		if len(g) != len(w) {
			t.Fatalf("%s: shard %d has %d members, want %d", step, s, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: shard %d members %v, want %v", step, s, g, w)
			}
		}
	}
}

// TestRebalancedEqualsFromScratch walks seeded random topology histories
// — shard count up, down, unchanged and through 1; slaves joining and
// leaving — and checks each derived successor against the map built from
// scratch on the same inputs, including MovedFrom against a brute-force
// count and the predecessor staying untouched.
func TestRebalancedEqualsFromScratch(t *testing.T) {
	const fleet = 300
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
		for step := 0; step < 80; step++ {
			switch rnd.Intn(6) {
			case 0:
				shards += 1 + rnd.Intn(3)
			case 1:
				if shards -= 1 + rnd.Intn(3); shards < 1 {
					shards = 1
				}
			case 2:
				shards = 1 + rnd.Intn(20)
			}
			for k := rnd.Intn(4); k > 0; k-- {
				id := rnd.Intn(fleet)
				in[id] = !in[id]
			}
			slaves := list()
			before := make([][]int, cur.NumShards())
			for s := range before {
				before[s] = append([]int(nil), cur.Members(s)...)
			}

			next, err := cur.Rebalanced(shards, slaves)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewShardMapAt(shards, slaves, cur.Epoch()+1)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d step %d", seed, step)
			sameShardMap(t, name, next, want, fleet)

			moved := 0
			for id := 0; id < fleet; id++ {
				if a, b := cur.ShardOf(id), next.ShardOf(id); a >= 0 && b >= 0 && a != b {
					moved++
				}
			}
			if got := next.MovedFrom(cur); got != moved {
				t.Fatalf("%s: MovedFrom = %d, brute force %d", name, got, moved)
			}
			for s := range before {
				if !reflect.DeepEqual(before[s], append([]int(nil), cur.Members(s)...)) {
					t.Fatalf("%s: deriving a successor rewrote shard %d of its predecessor", name, s)
				}
			}
			cur = next
		}
	}
}

// TestSameShapeRebalanceTouchesOnlyChangedShards pins the cost model of
// the autoscaler's unit of work: one slave leaving under an unchanged
// shard count shares the ring and every other shard's member list with
// the predecessor, and allocates the same small number of objects at 16
// shards as at 256 (no ring rebuild, no per-shard work).
func TestSameShapeRebalanceTouchesOnlyChangedShards(t *testing.T) {
	const p = 512
	var allocs []float64
	for _, shards := range []int{16, 256} {
		slaves := make([]int, 0, p-shards)
		for id := shards; id < p; id++ {
			slaves = append(slaves, id)
		}
		base, err := NewShardMap(shards, slaves)
		if err != nil {
			t.Fatal(err)
		}
		gone := slaves[len(slaves)-1]
		next, err := base.Rebalanced(shards, slaves[:len(slaves)-1])
		if err != nil {
			t.Fatal(err)
		}
		if &next.ring[0] != &base.ring[0] {
			t.Errorf("%d shards: same-shape rebalance built a new ring", shards)
		}
		for s := 0; s < shards; s++ {
			a, b := base.Members(s), next.Members(s)
			if s == base.ShardOf(gone) {
				if len(b) != len(a)-1 {
					t.Errorf("%d shards: shard %d went %d → %d members, want one fewer", shards, s, len(a), len(b))
				}
			} else if len(a) > 0 && &a[0] != &b[0] {
				t.Errorf("%d shards: untouched shard %d got a new member list", shards, s)
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(200, func() {
			if _, err := base.Rebalanced(shards, slaves[:len(slaves)-1]); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[0] > 4 {
		t.Errorf("same-shape rebalance allocates %v objects at 16 shards and %v at 256; want equal and at most 4 (map, owner table, outer slice, one member list)", allocs[0], allocs[1])
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
		base, err := NewShardMap(2, []int{3, 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.Rebalanced(2, slaves); err == nil {
			t.Errorf("Rebalanced accepted a %s slave id", name)
		}
	}
}

// referenceOwners is the partition function written the obvious way —
// hash every point of every shard, sort the whole ring, look each slave
// up — as the oracle for the derived construction.
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
