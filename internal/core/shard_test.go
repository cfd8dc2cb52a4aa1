package core

import (
	"slices"
	"sync"
	"testing"
)

func TestShardMapHashDeterministicAndBalanced(t *testing.T) {
	slaves := make([]int, 1000)
	for i := range slaves {
		slaves[i] = i + 4
	}
	a, err := NewShardMap(4, slaves)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardMap(4, slaves)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 4; s++ {
		am, bm := a.Members(s), b.Members(s)
		if len(am) != len(bm) {
			t.Fatalf("shard %d: nondeterministic sizes %d vs %d", s, len(am), len(bm))
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Fatalf("shard %d: nondeterministic membership at %d", s, i)
			}
		}
		total += len(am)
		// Virtual points keep shards within a loose band of even (250).
		if len(am) < 125 || len(am) > 375 {
			t.Errorf("shard %d has %d members; want within [125,375] of even 250", s, len(am))
		}
		for i := 1; i < len(am); i++ {
			if am[i-1] >= am[i] {
				t.Errorf("shard %d members not ascending at %d: %d, %d", s, i, am[i-1], am[i])
			}
		}
		for _, id := range am {
			if a.ShardOf(id) != s {
				t.Errorf("member %d of shard %d maps to %d", id, s, a.ShardOf(id))
			}
		}
	}
	if total != len(slaves) {
		t.Errorf("shards cover %d slaves, want %d", total, len(slaves))
	}
	if a.ShardOf(0) != -1 || a.ShardOf(99999) != -1 {
		t.Errorf("unknown nodes must map to -1")
	}
}

// TestShardMapHashStability holds 4 → 5 shards to the ±1-shard rule of
// TestRebalancedEqualsFromScratch: every moved slave lands in the added
// shard 4, and about 1/5 of them move (within ±25 %).
func TestShardMapHashStability(t *testing.T) {
	// What it adds to the walk: a fleet of 1 000 slaves, not 300.
	slaves := make([]int, 1000)
	for i := range slaves {
		slaves[i] = i
	}
	m4, _ := NewShardMap(4, slaves)
	m5, _ := NewShardMap(5, slaves)
	moved := 0
	for _, id := range slaves {
		if a, b := m4.ShardOf(id), m5.ShardOf(id); a != b {
			moved++
			if b != 4 {
				t.Errorf("4→5 shards moved slave %d from shard %d to %d, not to the added shard 4", id, a, b)
			}
		}
	}
	if want := len(slaves) / 5; moved < want*3/4 || moved > want*5/4 {
		t.Errorf("4→5 shards moved %d/1000 slaves; consistent hashing predicts about %d (±25 %%)", moved, want)
	}
}

func TestShardMapTrivial(t *testing.T) {
	m, err := NewShardMap(1, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2, 3} {
		if m.ShardOf(id) != 0 {
			t.Errorf("one-shard map: ShardOf(%d) = %d", id, m.ShardOf(id))
		}
	}
}

// The kept ring of every shard count equals a fresh build, and a second
// map of that count gets the same backing array, not a copy.
func TestSharedRingEqualsFreshBuild(t *testing.T) {
	for k := 1; k <= 64; k++ {
		got, fresh := sharedRing(k), newRing(k)
		if !slices.Equal(got, fresh) {
			t.Fatalf("%d shards: shared ring differs from a fresh build", k)
		}
		if again := sharedRing(k); k > 1 && &again[0] != &got[0] {
			t.Fatalf("%d shards: the ring was built twice", k)
		}
	}
	if !slices.Equal(sharedRing(maxSharedRing+1), newRing(maxSharedRing+1)) {
		t.Fatal("a count above maxSharedRing builds a wrong ring")
	}
}

// Grid workers and the live plane build maps concurrently: racing first
// builds of every count (run under -race) all see one ring, and every
// map partitions as the ring says.
func TestSharedRingConcurrentBuilders(t *testing.T) {
	for k := range sharedRings {
		sharedRings[k].Store(nil)
	}
	slaves := make([]int, 300)
	for i := range slaves {
		slaves[i] = i + 2
	}
	const workers = 4
	maps := make([][]*ShardMap, workers)
	var wg sync.WaitGroup
	for w := range maps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 64; k++ {
				m, err := NewShardMapAt(k, slaves, uint64(w))
				if err != nil {
					t.Error(err)
					return
				}
				maps[w] = append(maps[w], m)
			}
		}()
	}
	wg.Wait()
	for k := 1; k <= 64; k++ {
		ring := newRing(k)
		for w := range maps {
			m := maps[w][k-1]
			for _, id := range slaves {
				want := 0
				if ring != nil {
					want = ringOwner(ring, hashID(id))
				}
				if m.ShardOf(id) != want {
					t.Fatalf("worker %d, %d shards: slave %d in shard %d, ring says %d", w, k, id, m.ShardOf(id), want)
				}
			}
		}
	}
}

// A map at a shard count already seen builds no ring: five allocations
// (the map, its owner table, the bucket sizes, the member array and its
// per-shard windows) where a fresh ring made six.
func TestNewShardMapAtAllocsAtSeenCount(t *testing.T) {
	slaves := make([]int, 256)
	for i := range slaves {
		slaves[i] = i + 16
	}
	if _, err := NewShardMapAt(16, slaves, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := NewShardMapAt(16, slaves, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 5 {
		t.Fatalf("NewShardMapAt at a seen count: %v allocs/op, want 5", avg)
	}
}

func TestBuildShardSummary(t *testing.T) {
	loads := []Load{
		0: {CPUIdle: 0.1, DiskAvail: 0.1, CPUQueue: 5, DiskQueue: 5, Speed: 1},
		1: {CPUIdle: 0.9, DiskAvail: 0.9, Speed: 1},
		2: {CPUIdle: 0.5, DiskAvail: 0.5, CPUQueue: 1, Speed: 1},
		3: {CPUIdle: 1, DiskAvail: 1, Speed: 2},
	}
	var s ShardSummary
	BuildShardSummary(&s, 7, 42, []int{0, 1, 2, 3}, loads, 2)
	if s.Shard != 7 || s.AtNs != 42 || s.Nodes != 4 {
		t.Fatalf("header: %+v", s)
	}
	if s.CPUQueue != 6 || s.DiskQueue != 5 || s.Idle != 2 {
		t.Errorf("aggregates: cpuQ=%d diskQ=%d idle=%d", s.CPUQueue, s.DiskQueue, s.Idle)
	}
	wantIdle := (0.1 + 0.9 + 0.5 + 1) / 4
	if diff := s.CPUIdle - wantIdle; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("mean CPUIdle %g, want %g", s.CPUIdle, wantIdle)
	}
	// Top-2 by RSRC ascending: node 3 (fast, fully idle) then node 1.
	if len(s.Top) != 2 || s.Top[0].Node != 3 || s.Top[1].Node != 1 {
		t.Fatalf("top-k: %+v", s.Top)
	}
}

func TestShardSummaryWireRoundTrip(t *testing.T) {
	in := ShardSummary{
		Shard: 3, AtNs: 1234567890, Nodes: 100,
		CPUIdle: 0.625, DiskAvail: 0.5, CPUQueue: 17, DiskQueue: 9, Idle: 40,
		Top: []ShardDigest{
			{Node: 12, Load: Load{CPUIdle: 0.9, DiskAvail: 0.8, Speed: 1}},
			{Node: 77, Load: Load{CPUIdle: 0.7, DiskAvail: 0.6, CPUQueue: 2, DiskQueue: 1, Speed: 2}},
		},
	}
	wire := in.AppendWire(nil)
	var out ShardSummary
	if err := ParseShardSummary(wire, &out); err != nil {
		t.Fatal(err)
	}
	if out.Shard != in.Shard || out.AtNs != in.AtNs || out.Nodes != in.Nodes ||
		out.CPUIdle != in.CPUIdle || out.DiskAvail != in.DiskAvail ||
		out.CPUQueue != in.CPUQueue || out.DiskQueue != in.DiskQueue || out.Idle != in.Idle {
		t.Fatalf("header drift: %+v -> %q -> %+v", in, wire, out)
	}
	if len(out.Top) != 2 || out.Top[0] != in.Top[0] || out.Top[1] != in.Top[1] {
		t.Fatalf("digest drift: %+v", out.Top)
	}
	// Reuse: parsing a shorter summary into the same dst truncates Top.
	short := ShardSummary{Shard: 1, AtNs: 1, Nodes: 2}
	if err := ParseShardSummary(short.AppendWire(nil), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Top) != 0 {
		t.Fatalf("dst.Top not truncated on reuse: %+v", out.Top)
	}
}

func TestParseShardSummaryRejects(t *testing.T) {
	good := (&ShardSummary{Shard: 1, AtNs: 2, Nodes: 3}).AppendWire(nil)
	cases := [][]byte{
		[]byte("junk"),
		[]byte(""),
		[]byte("s2 "),
		[]byte("s1 1 2 3 0 0 0 0 0 0\n"),             // the retired epoch-less framing
		[]byte("s2 1 0 2 3 0 0 0 0 0 1\n"),           // claims 1 digest, carries none
		[]byte("s2 1 0 2 3 0 0 0 0 0 9999\n"),        // digest count over cap
		[]byte("s2 1 0 2 3 0 0 0 0 0 -1\n"),          // negative digest count
		append(good[:len(good)-1], " extra\n"...),    // trailing garbage
		[]byte("s2 x 0 2 3 0 0 0 0 0 0\n"),           // non-numeric field
		[]byte("s2 1 -1 2 3 0 0 0 0 0 0\n"),          // negative epoch
		[]byte("s2 1 0 2 3 0 0 0 0 0 1 5 0 0 0 0\n"), // truncated digest
		[]byte("s2 1 0  2 3 0 0 0 0 0 0\n"),          // double space = empty field
		// Well-formed but out of range (Load.Validate), in the aggregate
		// or in any digest.
		[]byte("s2 1 1 2 3 1e300 1e300 0 0 3 0\n"),
		[]byte("s2 1 1 2 3 NaN 1 0 0 3 0\n"),
		[]byte("s2 1 1 2 3 1 -0.5 0 0 3 0\n"),
		[]byte("s2 1 1 2 3 1 1 -1 0 3 0\n"),
		[]byte("s2 1 1 2 3 1 1 0 -1 3 0\n"),
		[]byte("s2 1 1 2 3 1 1 0 0 3 1 5 1e300 1e300 0 0 1\n"),
		[]byte("s2 1 1 2 3 1 1 0 0 3 1 5 1 +Inf 0 0 1\n"),
		[]byte("s2 1 1 2 3 1 1 0 0 3 1 5 1 1 -2 0 1\n"),
		[]byte("s2 1 1 2 3 1 1 0 0 3 1 5 1 1 0 0 NaN\n"),
		[]byte("s2 1 1 2 3 1 1 0 0 3 2 5 1 1 0 0 1 6 1 1 0 0 -1\n"),
	}
	var dst ShardSummary
	for _, b := range cases {
		if err := ParseShardSummary(b, &dst); err == nil {
			t.Errorf("accepted malformed line %q", b)
		}
	}
}
