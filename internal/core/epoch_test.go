package core

import (
	"bytes"
	"fmt"
	"testing"
)

func TestShardMapRebalancedEpochAndStability(t *testing.T) {
	slaves := make([]int, 1000)
	for i := range slaves {
		slaves[i] = i + 8
	}
	m, err := NewShardMap(ShardHash, 8, slaves)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 0 {
		t.Fatalf("initial epoch %d, want 0", m.Epoch())
	}

	// A master leaves: 8 → 7 shards over the same slaves. Only the
	// departed shard's slaves need a new owner — about 1/8 of the fleet.
	m2, err := m.Rebalanced(7, slaves)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() != 1 {
		t.Fatalf("rebalanced epoch %d, want 1", m2.Epoch())
	}
	moved := m2.MovedFrom(m)
	if moved == 0 || moved > 300 {
		t.Errorf("8→7 shards moved %d/1000 slaves; consistent hashing should move roughly 1/8", moved)
	}

	// A slave joins: same shard count, one extra node. Nobody else moves.
	joined := append(append([]int(nil), slaves...), 5000)
	m3, err := m2.Rebalanced(7, joined)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Epoch() != 2 {
		t.Fatalf("epoch after join %d, want 2", m3.Epoch())
	}
	if moved := m3.MovedFrom(m2); moved != 0 {
		t.Errorf("slave join moved %d existing slaves; want 0", moved)
	}
	if m3.ShardOf(5000) < 0 {
		t.Error("joined slave is unmapped")
	}
	if m3.Size() != len(joined) {
		t.Errorf("size %d, want %d", m3.Size(), len(joined))
	}
}

func TestShardSummaryWireEpochFraming(t *testing.T) {
	s := ShardSummary{Shard: 4, AtNs: 77, Nodes: 3, CPUIdle: 0.5, DiskAvail: 0.5}

	// Every epoch, 0 included, is written in the one s2 framing.
	for _, epoch := range []uint64{0, 9} {
		s.Epoch = epoch
		wire := s.AppendWire(nil)
		if want := fmt.Sprintf("s2 4 %d 77 ", epoch); !bytes.HasPrefix(wire, []byte(want)) {
			t.Fatalf("epoch-%d summary %q, want prefix %q", epoch, wire, want)
		}
		out := ShardSummary{Epoch: 123} // dirty dst must be overwritten
		if err := ParseShardSummary(wire, &out); err != nil {
			t.Fatal(err)
		}
		if out.Epoch != epoch || out.Shard != 4 || out.AtNs != 77 {
			t.Fatalf("epoch-%d round trip drift: %+v", epoch, out)
		}
	}

	// The retired epoch-less s1 framing is rejected.
	var out ShardSummary
	if err := ParseShardSummary([]byte("s1 4 77 3 0.5 0.5 0 0 0 0\n"), &out); err == nil {
		t.Error("s1 line accepted")
	}
}

func TestSummaryWins(t *testing.T) {
	cases := []struct {
		ne   uint64
		na   int64
		oe   uint64
		oa   int64
		want bool
	}{
		{1, 0, 0, 999, true},  // higher epoch beats any timestamp
		{0, 999, 1, 0, false}, // lower epoch loses to any timestamp
		{2, 10, 2, 5, true},   // same epoch: newer stamp wins
		{2, 5, 2, 10, false},  // same epoch: older stamp loses
		{2, 10, 2, 10, true},  // equal stamps replace (idempotent)
	}
	for _, c := range cases {
		if got := SummaryWins(c.ne, c.na, c.oe, c.oa); got != c.want {
			t.Errorf("SummaryWins(%d,%d vs %d,%d) = %v, want %v", c.ne, c.na, c.oe, c.oa, got, c.want)
		}
	}
}

func TestMembershipWireRoundTrip(t *testing.T) {
	in := Membership{
		Epoch:   7,
		Mode:    ShardHash,
		Masters: []int{0, 2, 5},
		Slaves:  []int{1, 3, 4, 6, 7},
	}
	wire := in.AppendWire(nil)
	if !IsMembershipWire(wire) {
		t.Fatalf("encoded line fails the sniff: %q", wire)
	}
	var out Membership
	if err := ParseMembership(wire, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != in.Epoch || out.Mode != in.Mode {
		t.Fatalf("header drift: %+v", out)
	}
	for i, id := range in.Masters {
		if out.Masters[i] != id {
			t.Fatalf("masters drift: %v vs %v", out.Masters, in.Masters)
		}
	}
	for i, id := range in.Slaves {
		if out.Slaves[i] != id {
			t.Fatalf("slaves drift: %v vs %v", out.Slaves, in.Slaves)
		}
	}

	sm, err := out.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if sm.Epoch() != 7 || sm.NumShards() != 3 {
		t.Fatalf("derived map: epoch %d shards %d", sm.Epoch(), sm.NumShards())
	}
	if out.MasterIndex(2) != 1 || out.MasterIndex(3) != -1 {
		t.Errorf("MasterIndex: %d, %d", out.MasterIndex(2), out.MasterIndex(3))
	}
	if !out.HasSlave(4) || out.HasSlave(5) {
		t.Error("HasSlave misreports tiers")
	}
}

func TestParseMembershipRejects(t *testing.T) {
	cases := [][]byte{
		[]byte(""),
		[]byte("m1 "),
		[]byte("junk"),
		[]byte("m1 1 9 1 0 0\n"),       // unknown mode
		[]byte("m1 1 1 2 0\n"),         // claims 2 masters, carries 1
		[]byte("m1 1 1 0 0\n"),         // no masters
		[]byte("m1 1 1 1 0 1 0\n"),     // node 0 in both tiers
		[]byte("m1 1 1 1 -3 0\n"),      // negative id
		[]byte("m1 1 1 99999999 0\n"),  // count over cap
		[]byte("m1 1 1 1 0 0 extra\n"), // trailing garbage
	}
	var dst Membership
	for _, b := range cases {
		if err := ParseMembership(b, &dst); err == nil {
			t.Errorf("accepted malformed line %q", b)
		}
	}
}
