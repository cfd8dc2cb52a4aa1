package cluster

import (
	"testing"

	"msweb/internal/core"
	"msweb/internal/trace"
)

func TestShardedConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Shards = 3 }, // != masters
		func(c *Config) { c.SLOResponse = -1 },
		func(c *Config) { c.Autoscale = &Autoscale{} }, // period unset
		func(c *Config) { c.Shards = 2; c.GossipEvery = -1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig(8, 2)
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d: invalid sharded config accepted", i)
		}
	}
}

// Sharding must not cost determinism: identical trace and seed produce
// identical placements, stretch and shard accounting.
func TestShardedDeterminism(t *testing.T) {
	tr := genTrace(t, trace.KSU, 300, 2000, 1.0/40, 5)
	run := func() (float64, ShardStats) {
		cfg := DefaultConfig(12, 4)
		cfg.Shards = 4
		res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 42), tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards == nil {
			t.Fatal("sharded run reported no shard stats")
		}
		return res.StretchFactor, *res.Shards
	}
	sf1, st1 := run()
	sf2, st2 := run()
	st1.Spilled, st2.Spilled = 0, 0 // compare whole structs field-wise
	if sf1 != sf2 || st1 != st2 {
		t.Fatalf("same seed diverged: SF %v vs %v, stats %+v vs %+v", sf1, sf2, st1, st2)
	}
}

// The O(shard) claim, exactly: each master's per-tick poll work is its
// shard plus itself, independent of what the whole fleet's size would
// cost a global view.
func TestShardedPollWorkIsShardSized(t *testing.T) {
	tr := genTrace(t, trace.KSU, 100, 500, 1.0/40, 3)
	cfg := DefaultConfig(40, 4)
	cfg.Shards = 4
	res, err := Simulate(cfg, core.NewMS(nil, 7), tr)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards
	if st == nil {
		t.Fatal("no shard stats")
	}
	// 36 slaves over 4 shards: 9 members on average + 1 self-sample each.
	if st.NodesPolledPerTick != 10 {
		t.Fatalf("polled/tick = %v, want exactly 10 (mean shard 9 + self)", st.NodesPolledPerTick)
	}
	slaves := make([]int, 0, 36)
	for id := 4; id < 40; id++ {
		slaves = append(slaves, id)
	}
	sm, err := core.NewShardMap(4, slaves)
	if err != nil {
		t.Fatal(err)
	}
	maxShard := 0
	for s := 0; s < 4; s++ {
		maxShard = max(maxShard, len(sm.Members(s)))
	}
	if st.MaxShardSize != maxShard {
		t.Fatalf("max shard %d, want %d", st.MaxShardSize, maxShard)
	}
	if st.MeanSummaryAge < 0 {
		t.Fatalf("summary age %v, want ≥ 0 once gossip ran", st.MeanSummaryAge)
	}
	// An unsharded run reports no shard stats at all.
	res2, err := Simulate(DefaultConfig(40, 4), core.NewMS(nil, 7), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Shards != nil {
		t.Fatal("unsharded run reported shard stats")
	}
}

// A master whose shard came up empty spills its dynamics onto fresh
// remote digests instead of shedding them — and every shed that does
// happen is accounted as a spill with no fresh candidate.
func TestShardedSpillFromEmptyShard(t *testing.T) {
	// 6 nodes, 4 masters, a map over 2 slaves: at least two shards are
	// empty, so their masters must go cross-shard for every dynamic the
	// reservation refuses at the master.
	tr := genTrace(t, trace.KSU, 400, 3000, 1.0/40, 9)
	cfg := DefaultConfig(6, 4)
	cfg.Shards = 4
	cfg.EnableShedding = true
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 11), tr)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards
	if st == nil {
		t.Fatal("no shard stats")
	}
	if st.Spilled == 0 {
		t.Fatal("empty-shard masters never spilled under load")
	}
	// Sharded sheds and spill-sheds are the same events, counted by both
	// the cluster-wide and the shard-local counters.
	if st.SpillShed != res.Shed {
		t.Fatalf("spill_shed=%d but shed=%d: a sharded shed must mean no fresh candidate", st.SpillShed, res.Shed)
	}
	if res.Summary.Count == 0 {
		t.Fatal("no samples survived — the spilled requests never completed")
	}
}

// With no slave in view, a shedding cluster asks the policy's
// MasterAdmission: the enforcing θ₂ reservation sheds, the observe-only
// one (M/S-nr) and flat, which has no MasterAdmission, shed nothing. The
// reservation caps dynamic work only, so, as on the live master, a
// static is never shed. A cluster with no slave-role node never sheds:
// like a live master with no slaves, it has no degraded regime to
// protect.
func TestShedAsksMasterAdmission(t *testing.T) {
	mixed := genTrace(t, trace.KSU, 100, 2000, 1.0/40, 5)
	staticOnly := trace.KSU
	staticOnly.DynamicFrac = 0
	statics := genTrace(t, staticOnly, 100, 2000, 1.0/40, 5)
	for _, c := range []struct {
		name    string
		masters int
		pol     core.Policy
		tr      *trace.Trace
		shed    bool
	}{
		{"ms", 1, core.NewMS(nil, 1), mixed, true},
		{"ms statics", 1, core.NewMS(nil, 1), statics, false},
		{"ms-nr", 1, core.NewMS(nil, 1, core.WithoutReservation()), mixed, false},
		{"flat", 1, core.NewFlat(), mixed, false},
		{"ms, no slave tier", 2, core.NewMS(nil, 1), mixed, false},
	} {
		cfg := DefaultConfig(2, c.masters)
		cfg.EnableShedding = true
		cfg.Events = []AvailabilityEvent{{Node: 1, At: 0, Available: false}}
		res, err := Simulate(cfg, c.pol, c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Shed > 0; got != c.shed {
			t.Errorf("%s: shed %d requests, want shedding %v", c.name, res.Shed, c.shed)
		}
	}
}
