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
		func(c *Config) {
			c.Autoscale = &Autoscale{Period: 1}
			c.Adaptive = &AdaptiveMasters{Period: 1}
		},
		func(c *Config) { c.Shards = 2; c.GossipEvery = -1 },
		func(c *Config) { c.Shards = 2; c.ShardMapMode = "bogus" },
	}
	for i, mutate := range cases {
		c := DefaultConfig(8, 2)
		mutate(&c)
		if c.Validate() == nil && i != 5 {
			t.Fatalf("case %d: invalid sharded config accepted", i)
		}
		if i == 5 {
			// The bad map mode surfaces at New (the map constructor owns
			// mode validation), not Validate.
			tr := genTrace(t, trace.KSU, 20, 50, 1.0/40, 1)
			if _, err := Simulate(c, core.NewMS(nil, 1), tr); err == nil {
				t.Fatal("unknown shard map mode accepted")
			}
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

// The O(shard) claim, exactly: with a static equal partition each
// master's per-tick poll work is its shard plus itself, independent of
// what the whole fleet's size would cost a global view.
func TestShardedPollWorkIsShardSized(t *testing.T) {
	tr := genTrace(t, trace.KSU, 100, 500, 1.0/40, 3)
	cfg := DefaultConfig(40, 4)
	cfg.Shards = 4
	cfg.ShardMapMode = core.ShardStatic
	res, err := Simulate(cfg, core.NewMS(nil, 7), tr)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards
	if st == nil {
		t.Fatal("no shard stats")
	}
	// 36 slaves over 4 static shards: 9 members + 1 self-sample each.
	if st.NodesPolledPerTick != 10 {
		t.Fatalf("polled/tick = %v, want exactly 10 (shard 9 + self)", st.NodesPolledPerTick)
	}
	if st.MaxShardSize != 9 {
		t.Fatalf("max shard %d, want 9", st.MaxShardSize)
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
	// 6 nodes, 4 masters, static map over 2 slaves: shards 2 and 3 are
	// empty, so their masters must go cross-shard for every dynamic the
	// reservation refuses at the master.
	tr := genTrace(t, trace.KSU, 400, 3000, 1.0/40, 9)
	cfg := DefaultConfig(6, 4)
	cfg.Shards = 4
	cfg.ShardMapMode = core.ShardStatic
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
// one (M/S-nr) and flat, which has no MasterAdmission, shed nothing.
func TestShedAsksMasterAdmission(t *testing.T) {
	tr := genTrace(t, trace.KSU, 100, 2000, 1.0/40, 5)
	cfg := DefaultConfig(2, 1)
	cfg.EnableShedding = true
	cfg.Events = []AvailabilityEvent{{Node: 1, At: 0, Available: false}}
	for _, c := range []struct {
		name string
		pol  core.Policy
		shed bool
	}{
		{"ms", core.NewMS(nil, 1), true},
		{"ms-nr", core.NewMS(nil, 1, core.WithoutReservation()), false},
		{"flat", core.NewFlat(), false},
	} {
		res, err := Simulate(cfg, c.pol, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Shed > 0; got != c.shed {
			t.Errorf("%s: shed %d requests, want shedding %v", c.name, res.Shed, c.shed)
		}
	}
}
