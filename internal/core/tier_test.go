package core

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// newTestTier is master self's Tier in a five-node cluster, masters
// {0, 1} over slaves {3, 4}, with the given master-capable nodes.
func newTestTier(t *testing.T, self int, capable ...int) *Tier {
	t.Helper()
	tr, err := NewTier(self, 5, Membership{Masters: []int{1, 0}, Slaves: []int{4, 3}}, capable)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTierAdopt(t *testing.T) {
	cases := []struct {
		name    string
		mb      Membership
		adopted bool
		err     bool
	}{
		{"newer epoch", Membership{Epoch: 1, Masters: []int{1, 0}, Slaves: []int{3}}, true, false},
		{"same epoch, other content", Membership{Epoch: 0, Masters: []int{0}, Slaves: []int{1, 3, 4}}, false, false},
		{"no masters", Membership{Epoch: 2, Slaves: []int{0, 1}}, false, true},
		{"node in both tiers", Membership{Epoch: 2, Masters: []int{0}, Slaves: []int{0}}, false, true},
		{"node outside the cluster", Membership{Epoch: 2, Masters: []int{0, 5}}, false, true},
	}
	for _, tc := range cases {
		tr := newTestTier(t, 0)
		adopted, err := tr.Adopt(tc.mb)
		if adopted != tc.adopted || (err != nil) != tc.err {
			t.Errorf("%s: adopted=%v err=%v, want adopted=%v err=%v", tc.name, adopted, err, tc.adopted, tc.err)
		}
		mb, want := tr.Membership(), uint64(0)
		if tc.adopted {
			want = tc.mb.Epoch
		}
		if mb.Epoch != want || tr.ShardMap().Epoch() != want {
			t.Errorf("%s: epoch %d (map %d), want %d", tc.name, mb.Epoch, tr.ShardMap().Epoch(), want)
		}
		if !slices.IsSorted(mb.Masters) || !slices.IsSorted(mb.Slaves) {
			t.Errorf("%s: membership %+v not normalized", tc.name, mb)
		}
	}

	// A stale line after a newer one changes nothing.
	tr := newTestTier(t, 0)
	tr.Adopt(Membership{Epoch: 3, Masters: []int{0}, Slaves: []int{1, 3, 4}}) //nolint:errcheck
	if adopted, err := tr.Adopt(Membership{Epoch: 2, Masters: []int{0, 1}, Slaves: []int{3, 4}}); adopted || err != nil {
		t.Fatalf("stale line: adopted=%v err=%v", adopted, err)
	}
	if mb := tr.Membership(); mb.Epoch != 3 || len(mb.Masters) != 1 {
		t.Fatalf("stale line moved the membership to %+v", mb)
	}
}

func TestTierGossip(t *testing.T) {
	miss := []GossipPull{{Node: 1}}
	ok := []GossipPull{{Node: 1, OK: true}}
	cases := []struct {
		name   string
		rounds [][]GossipPull
		adopt  *Membership // adopted before the last round, which runs under epoch 0
		want   []int
	}{
		{"under the threshold", [][]GossipPull{miss, miss}, nil, nil},
		{"at the threshold", [][]GossipPull{miss, miss, miss}, nil, []int{1}},
		{"an answer restarts the count", [][]GossipPull{miss, miss, ok, miss, miss}, nil, nil},
		{"epoch moved since the round started", [][]GossipPull{miss, miss, miss},
			&Membership{Epoch: 1, Masters: []int{0, 1}, Slaves: []int{3, 4}}, nil},
	}
	for _, tc := range cases {
		tr := newTestTier(t, 0)
		var got []int
		for i, pulls := range tc.rounds {
			if i == len(tc.rounds)-1 && tc.adopt != nil {
				tr.Adopt(*tc.adopt) //nolint:errcheck
			}
			got = tr.Gossip(0, pulls)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: suspects %v, want %v", tc.name, got, tc.want)
		}
	}

	// A master that owns no shard suspects no one.
	tr := newTestTier(t, 3)
	for i := 0; i < 5; i++ {
		if s := tr.Gossip(0, miss); s != nil {
			t.Fatalf("slave's round %d suspected %v", i, s)
		}
	}

	// Counters restart at the first round of each epoch: two misses
	// before a move and one after suspect no one.
	tr = newTestTier(t, 0)
	tr.Gossip(0, miss)
	tr.Gossip(0, miss)
	tr.Adopt(Membership{Epoch: 1, Masters: []int{0, 1}, Slaves: []int{3, 4}}) //nolint:errcheck
	if s := tr.Gossip(1, miss); s != nil {
		t.Fatalf("first round of epoch 1 suspected %v off epoch-0 misses", s)
	}
}

func TestTierProbe(t *testing.T) {
	for _, alive := range []bool{true, false} {
		tr := newTestTier(t, 0)
		for i := 0; i < tierMissThreshold; i++ {
			tr.Gossip(0, []GossipPull{{Node: 1}})
		}
		tr.Probe(1, alive)
		if got := tr.Failover(); got == alive {
			t.Errorf("probe alive=%v: failover adopted=%v", alive, got)
		}
	}
}

// The decision half of gossip failure detection: three silent rounds
// and a silent probe make the lowest-id survivor remove the dead peer,
// whose shard it then owns.
func TestTierFailover(t *testing.T) {
	silent := func(tr *Tier, peers ...int) {
		var pulls []GossipPull
		for _, id := range peers {
			pulls = append(pulls, GossipPull{Node: id})
		}
		for i := 0; i < tierMissThreshold; i++ {
			tr.Gossip(tr.Membership().Epoch, pulls)
		}
	}
	tr := newTestTier(t, 0)
	if tr.Failover() {
		t.Fatal("failover adopted with no suspect")
	}
	silent(tr, 1)
	if !tr.Failover() {
		t.Fatal("survivor 0 did not fail over dead master 1")
	}
	mb := tr.Membership()
	if mb.Epoch != 1 || !slices.Equal(mb.Masters, []int{0}) || !slices.Equal(mb.Slaves, []int{3, 4}) {
		t.Fatalf("successor %+v, want epoch 1 with master 0 over slaves 3, 4", mb)
	}
	if sm := tr.ShardMap(); sm.NumShards() != 1 || len(sm.Members(0)) != 2 {
		t.Fatal("the survivor does not own the dead master's slaves")
	}

	// Master 1 sees master 0, a lower-id survivor, alive: it waits.
	tr = newTestTier(t, 1)
	tr.Adopt(Membership{Epoch: 1, Masters: []int{0, 1, 2}, Slaves: []int{3, 4}}) //nolint:errcheck
	silent(tr, 2)
	if tr.Failover() {
		t.Fatal("master 1 failed over while master 0 survives")
	}
	// Once master 0 is dead too, master 1 is the lowest survivor.
	silent(tr, 0, 2)
	if !tr.Failover() || !slices.Equal(tr.Membership().Masters, []int{1}) {
		t.Fatalf("master 1 as lowest survivor left %+v", tr.Membership())
	}

	// A membership adopted since the round refuses the failover.
	tr = newTestTier(t, 0)
	silent(tr, 1)
	tr.Adopt(Membership{Epoch: 4, Masters: []int{0, 1}, Slaves: []int{3, 4}}) //nolint:errcheck
	if tr.Failover() {
		t.Fatal("failover over a round of an older epoch")
	}
}

// The tier-resize rule: promotions take the lowest master-capable
// slaves, demotions return the highest masters to the slave tier, and
// illegal moves (no capable slave, last master, not the lowest master)
// adopt nothing.
func TestTierResize(t *testing.T) {
	cases := []struct {
		name    string
		self    int
		target  int
		masters []int
		slaves  []int
	}{
		{"grow takes the capable slave", 0, 3, []int{0, 1, 4}, []int{3}},
		{"shrink demotes the highest master", 0, 1, []int{0}, []int{1, 3, 4}},
		{"grow stalls at the capable pool", 0, 4, []int{0, 1, 4}, []int{3}},
		{"same size", 0, 2, []int{0, 1}, []int{3, 4}},
		{"not the lowest master", 1, 1, []int{0, 1}, []int{3, 4}},
	}
	for _, tc := range cases {
		tr := newTestTier(t, tc.self, 0, 1, 4)
		adopted := tr.Resize(tc.target)
		mb, moved := tr.Membership(), !slices.Equal(tc.masters, []int{0, 1})
		if adopted != moved || (mb.Epoch == 1) != moved {
			t.Errorf("%s: adopted=%v at epoch %d, want adopted=%v", tc.name, adopted, mb.Epoch, moved)
		}
		if !slices.Equal(mb.Masters, tc.masters) || !slices.Equal(mb.Slaves, tc.slaves) {
			t.Errorf("%s: %+v, want masters %v slaves %v", tc.name, mb, tc.masters, tc.slaves)
		}
	}

	// Resize builds on the membership current at the call, not the one
	// the planner read: after a newer epoch lands it still adopts, one
	// epoch on, and reports true only when it does.
	tr := newTestTier(t, 0, 0, 1, 4)
	tr.Adopt(Membership{Epoch: 5, Masters: []int{0}, Slaves: []int{1, 3, 4}}) //nolint:errcheck
	if !tr.Resize(2) {
		t.Fatal("resize on the newer membership not adopted")
	}
	if mb := tr.Membership(); mb.Epoch != 6 || !slices.Equal(mb.Masters, []int{0, 1}) {
		t.Fatalf("resize built %+v, want masters 0, 1 at epoch 6", mb)
	}
	if tr.Resize(2) {
		t.Fatal("resize to the current size reported adopted")
	}
}

// Random schedules of every input against the protocol's invariants.
// A failure names its seed; rerun one schedule with that seed.
func TestTierSchedules(t *testing.T) {
	const nodes = 8
	for seed := uint64(1); seed <= 2000; seed++ {
		if err := runTierSchedule(seed, nodes); err != "" {
			t.Fatalf("seed %d: %s", seed, err)
		}
	}
}

// randomMembership is a valid membership of the cluster that names self.
func randomMembership(r *rand.Rand, nodes, self int, epoch uint64) Membership {
	ids := r.Perm(nodes)
	nm := 1 + r.IntN(4)
	mb := Membership{Epoch: epoch, Masters: ids[:nm]}
	for _, id := range ids[nm:] {
		if id == self || r.IntN(4) > 0 {
			mb.Slaves = append(mb.Slaves, id)
		}
	}
	return mb
}

// runTierSchedule drives one Tier through 60 random inputs and returns
// the first invariant it breaks ("" when none).
func runTierSchedule(seed uint64, nodes int) string {
	r := rand.New(rand.NewPCG(seed, 0))
	self := r.IntN(nodes)
	var capable []int
	for id := 0; id < nodes; id++ {
		if r.IntN(2) == 0 {
			capable = append(capable, id)
		}
	}
	init := randomMembership(r, nodes, self, 0)
	if r.IntN(5) > 0 && init.MasterIndex(self) < 0 {
		init.Masters = append(init.Masters, self)
		init.Slaves = slices.DeleteFunc(init.Slaves, func(id int) bool { return id == self })
	}
	tr, err := NewTier(self, nodes, init, capable)
	if err != nil {
		return "NewTier: " + err.Error()
	}
	for step := 0; step < 60; step++ {
		cur := tr.Membership()
		pre := cur.Clone()
		var adopted bool
		var op string
		switch r.IntN(5) {
		case 0:
			op = "adopt"
			var mb Membership
			switch r.IntN(4) {
			case 0: // a duplicate
				mb = pre.Clone()
			case 1: // same epoch, other content
				mb = randomMembership(r, nodes, self, pre.Epoch)
			case 2: // stale
				mb = randomMembership(r, nodes, self, pre.Epoch-min(pre.Epoch, uint64(r.IntN(3))))
			default:
				mb = randomMembership(r, nodes, self, pre.Epoch+1+uint64(r.IntN(3)))
			}
			adopted, err = tr.Adopt(mb)
			if err != nil {
				return "adopt of a valid membership failed: " + err.Error()
			}
			if adopted != (mb.Epoch > pre.Epoch) {
				return "adoption not decided by a higher epoch"
			}
		case 1:
			op = "gossip"
			epoch := pre.Epoch
			if epoch > 0 && r.IntN(4) == 0 {
				epoch-- // the membership moved mid-round
			}
			var pulls []GossipPull
			for _, id := range pre.Masters {
				if id != self && r.IntN(3) > 0 {
					pulls = append(pulls, GossipPull{Node: id, OK: r.IntN(3) == 0})
				}
			}
			suspects := tr.Gossip(epoch, pulls)
			if len(suspects) > 0 && (epoch != pre.Epoch || pre.MasterIndex(self) < 0) {
				return "suspects from a stale round or a master without a shard"
			}
			for _, id := range suspects {
				if id == self || pre.MasterIndex(id) < 0 {
					return "a suspect that is self or no master"
				}
			}
		case 2:
			op = "probe"
			tr.Probe(r.IntN(nodes), r.IntN(2) == 0)
		case 3:
			op = "failover"
			adopted = tr.Failover()
			if adopted {
				post := tr.Membership()
				if pre.MasterIndex(self) < 0 || post.Masters[0] != self || !slices.Equal(post.Slaves, pre.Slaves) {
					return "a failover not by the lowest-id survivor"
				}
				for _, id := range post.Masters {
					if pre.MasterIndex(id) < 0 {
						return "a failover added a master"
					}
				}
			}
		default:
			op = "resize"
			adopted = tr.Resize(r.IntN(nodes + 1))
			if adopted {
				if pre.Masters[0] != self {
					return "a resize not by the lowest-id master"
				}
				for _, id := range tr.Membership().Masters {
					if pre.MasterIndex(id) < 0 && !slices.Contains(capable, id) {
						return "a resize promoted an incapable node"
					}
				}
			}
		}
		post := tr.Membership()
		switch {
		case post.Epoch < pre.Epoch:
			return op + ": the epoch fell"
		case adopted != (post.Epoch > pre.Epoch):
			return op + ": adopted without a higher epoch, or moved without adopting"
		case (op == "failover" || op == "resize") && adopted && (post.Epoch != pre.Epoch+1 || post.MasterIndex(self) < 0):
			return op + ": an initiated change skipped an epoch or removed self"
		case len(post.Masters) == 0:
			return op + ": the master tier is empty"
		case post.MasterIndex(self) < 0 && !slices.Contains(post.Slaves, self):
			return op + ": self was removed"
		case tr.ShardMap().Epoch() != post.Epoch || tr.ShardMap().NumShards() != len(post.Masters):
			return op + ": the shard map does not match the membership"
		}
	}
	return ""
}
