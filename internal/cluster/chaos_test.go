package cluster

import (
	"testing"
	"testing/quick"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// The chaos property: with every feature enabled at once — failures,
// event-driven recruitment of a spare and the online autoscaler
// re-planning masters and powering slaves across the failover restarts —
// the cluster must still complete every request exactly once and return
// a sane stretch factor.
func TestEverythingAtOnceProperty(t *testing.T) {
	var replans int64 // autoscaler master-count changes over all cases
	f := func(seed int64, crashNodeRaw, crashTimeRaw uint8) bool {
		const p = 8
		tr, err := trace.Generate(trace.GenConfig{
			Profile: trace.KSU, Lambda: 250, Requests: 1500,
			MuH: 1200, R: 1.0 / 40, Seed: seed,
			Arrival: trace.MMPPArrivals, BurstFactor: 3,
			BurstDuration: 1, NormalDuration: 3,
		})
		if err != nil {
			return false
		}
		span := tr.Duration()

		cfg := DefaultConfig(p, 2)
		cfg.Autoscale = &Autoscale{Period: 2, MinM: 1, MaxM: 4}
		// A random mid-run crash and recovery of a non-spare slave, and
		// the spare node 7 recruited at 0.3·span.
		crashNode := 2 + int(crashNodeRaw)%4 // nodes 2..5
		crashAt := 0.1*span + 0.6*span*float64(crashTimeRaw)/255
		cfg.InitiallyDown = []int{7}
		cfg.Events = []AvailabilityEvent{
			{Node: crashNode, At: crashAt, Available: false},
			{Node: crashNode, At: crashAt + 0.2*span, Available: true},
			{Node: 7, At: 0.3 * span, Available: true},
		}
		res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), seed), tr)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Summary.Count != 1500 {
			return false
		}
		if res.StretchFactor < 1 || res.StretchFactor > 1e5 {
			return false
		}
		// Per-node conservation.
		for _, st := range res.NodeStats {
			if st.Completed+st.Aborted != st.Submitted {
				return false
			}
		}
		replans += res.Autoscale.Promotions + res.Autoscale.Demotions
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if replans == 0 {
		t.Fatal("the autoscaler never re-planned the master count")
	}
}
