package cluster

import (
	"slices"
	"testing"

	"msweb/internal/core"
	"msweb/internal/sim"
	"msweb/internal/trace"
)

// A sharded cluster must survive node churn: every availability event
// rebalances the shard map onto a new epoch, nothing is lost or doubly
// executed, and the whole sequence is deterministic.
func TestShardedChurnReshardsAndLosesNothing(t *testing.T) {
	tr := genTrace(t, trace.KSU, 700, 8000, 1.0/20, 31)
	run := func() (float64, ShardStats, int64) {
		cfg := DefaultConfig(8, 2)
		cfg.Shards = 2
		cfg.Events = []AvailabilityEvent{
			{Node: 1, At: 2.0, Available: false}, // a master dies
			{Node: 6, At: 3.0, Available: false}, // a slave dies
			{Node: 1, At: 5.0, Available: true},  // the master rejoins
			{Node: 6, At: 6.5, Available: true},  // the slave rejoins
		}
		res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 42), tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Count != 8000 {
			t.Fatalf("completed %d/8000 requests across epoch changes", res.Summary.Count)
		}
		if res.Shards == nil {
			t.Fatal("no shard stats")
		}
		return res.StretchFactor, *res.Shards, res.Failovers
	}
	sf1, st1, fo1 := run()
	if st1.EpochChanges < 4 {
		t.Fatalf("epoch changes %d, want ≥ 4 (one per availability event)", st1.EpochChanges)
	}
	if st1.Epoch != uint64(st1.EpochChanges) {
		t.Fatalf("final epoch %d vs %d changes: every reshard must bump exactly once", st1.Epoch, st1.EpochChanges)
	}
	if fo1 == 0 {
		t.Fatal("no failovers despite mid-run crashes")
	}
	// With the hash ring, the two crash/rejoin pairs must have moved
	// strictly fewer slaves than full remaps would (4 events × 6 slaves).
	if st1.MovedNodes <= 0 || st1.MovedNodes >= 24 {
		t.Fatalf("moved %d slaves over 4 reshards; consistent hashing should move a fraction", st1.MovedNodes)
	}
	sf2, st2, fo2 := run()
	st1.Spilled, st2.Spilled = 0, 0
	if sf1 != sf2 || st1 != st2 || fo1 != fo2 {
		t.Fatalf("churn run diverged: SF %v vs %v, %+v vs %+v", sf1, sf2, st1, st2)
	}
}

// Sharded + EnableShedding + churn: the terminal-outcome ledger must
// still balance — every request is served, shed, or restarted-and-served,
// never silently dropped (Run itself enforces completion; this pins the
// shed accounting on top).
func TestShardedChurnShedLedger(t *testing.T) {
	tr := genTrace(t, trace.KSU, 500, 4000, 1.0/40, 33)
	cfg := DefaultConfig(6, 3)
	cfg.Shards = 3
	cfg.EnableShedding = true
	cfg.Events = []AvailabilityEvent{
		{Node: 4, At: 1.5, Available: false},
		{Node: 5, At: 2.0, Available: false},
		{Node: 4, At: 4.0, Available: true},
		{Node: 5, At: 4.5, Available: true},
	}
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 7), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards.EpochChanges < 4 {
		t.Fatalf("epoch changes %d, want ≥ 4", res.Shards.EpochChanges)
	}
	if int64(res.Summary.Count)+res.Shed != 4000 {
		t.Fatalf("ledger broken: %d sampled + %d shed != 4000", res.Summary.Count, res.Shed)
	}
	if res.Shards.SpillShed != res.Shed {
		t.Fatalf("spill_shed=%d shed=%d: sharded sheds must all be spill misses", res.Shards.SpillShed, res.Shed)
	}
}

func autoscaleTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 300, Requests: n, MuH: 1200, R: 1.0 / 40,
		Arrival: trace.DiurnalArrivals, DiurnalPeriod: 20, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The autoscaler must power slaves down through the diurnal trough and
// back up for the peak, spending fewer node-hours than the fixed fleet
// while completing every request — deterministically.
func TestAutoscaleSavesNodeHours(t *testing.T) {
	tr := autoscaleTrace(t, 12000, 51)
	fixed := DefaultConfig(12, 2)
	fixed.SLOResponse = 2.0
	resFixed, err := Simulate(fixed, core.NewMS(core.SampleW(tr, 16), 9), tr)
	if err != nil {
		t.Fatal(err)
	}

	run := func() *Result {
		cfg := DefaultConfig(12, 2)
		cfg.SLOResponse = 2.0
		cfg.Autoscale = &Autoscale{Period: 1.0, MinM: 1, MaxM: 4}
		res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 9), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Summary.Count != 12000 {
		t.Fatalf("autoscaled run completed %d/12000", res.Summary.Count)
	}
	if res.Autoscale == nil {
		t.Fatal("no autoscale stats")
	}
	if res.Autoscale.SlaveOffs == 0 {
		t.Fatal("autoscaler never powered a node off through the trough")
	}
	if res.NodeHours >= resFixed.NodeHours {
		t.Fatalf("autoscale node-hours %.4f not below fixed %.4f", res.NodeHours, resFixed.NodeHours)
	}
	if resFixed.NodeHours == 0 || resFixed.SLOCount == 0 {
		t.Fatal("fixed baseline reported no node-hours or SLO samples")
	}

	res2 := run()
	if res.NodeHours != res2.NodeHours || *res.Autoscale != *res2.Autoscale ||
		res.StretchFactor != res2.StretchFactor || res.SLOAttainment != res2.SLOAttainment {
		t.Fatalf("autoscale diverged: %.6f/%.6f vs %.6f/%.6f, %+v vs %+v",
			res.NodeHours, res.StretchFactor, res2.NodeHours, res2.StretchFactor,
			res.Autoscale, res2.Autoscale)
	}
}

// Autoscaling composes with sharding: each plan that changes the
// topology rebalances the epoch-versioned map once — one epoch per
// control period at most, as the live autoscaler announces one
// membership per plan — onto the map the live plane would derive from
// the same tiers, and the run stays deterministic and lossless.
func TestAutoscaleUnderSharding(t *testing.T) {
	tr := autoscaleTrace(t, 8000, 52)
	// 24 nodes: the trough powers off more slaves than the run has
	// control periods, so a per-node epoch would break the bound below.
	const period = 1.0
	run := func() (*Result, *Cluster) {
		cfg := DefaultConfig(24, 2)
		cfg.Shards = 2
		cfg.SLOResponse = 2.0
		cfg.Autoscale = &Autoscale{Period: period, MinM: 1, MaxM: 4}
		c, err := New(sim.NewEngine(), cfg, core.NewMS(core.SampleW(tr, 16), 13))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res, c
	}
	res, c := run()
	if res.Summary.Count != 8000 {
		t.Fatalf("completed %d/8000 under autoscaled sharding", res.Summary.Count)
	}
	if res.Shards == nil || res.Autoscale == nil {
		t.Fatal("missing shard or autoscale stats")
	}
	if res.Autoscale.SlaveOffs > 0 && res.Shards.EpochChanges == 0 {
		t.Fatal("power transitions did not rebalance the shard map")
	}
	if res.Shards.Epoch != uint64(res.Shards.EpochChanges) {
		t.Fatalf("final epoch %d vs %d changes: every reshard must bump exactly once", res.Shards.Epoch, res.Shards.EpochChanges)
	}
	if periods := int64(res.SimulatedSeconds / period); res.Shards.EpochChanges > periods {
		t.Fatalf("%d epochs in %d control periods: a plan must be one epoch, not one per node flipped", res.Shards.EpochChanges, periods)
	}
	final := core.Membership{Masters: c.view.Masters, Slaves: c.view.Slaves}
	want, err := final.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.shardMap.NumShards(); got != want.NumShards() {
		t.Fatalf("final map has %d shards, the final view's membership %d", got, want.NumShards())
	}
	for s := 0; s < want.NumShards(); s++ {
		if got := c.shardMap.Members(s); !slices.Equal(got, want.Members(s)) {
			t.Fatalf("shard %d members %v, the final view's membership gives %v", s, got, want.Members(s))
		}
	}
	res2, _ := run()
	if res.StretchFactor != res2.StretchFactor || res.Shards.Epoch != res2.Shards.Epoch ||
		*res.Autoscale != *res2.Autoscale {
		t.Fatalf("sharded autoscale diverged: %+v vs %+v", res.Shards, res2.Shards)
	}
}
