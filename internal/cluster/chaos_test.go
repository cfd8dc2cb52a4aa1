package cluster

import (
	"testing"
	"testing/quick"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// The chaos property: with every feature enabled at once — caching,
// failures, heterogeneous speeds, and either recruitment or the online
// autoscaler re-planning masters across the failover restarts — the
// cluster must still complete every request exactly once and return a
// sane stretch factor. Validate makes AutoRecruit and Autoscale
// exclusive, so each random case runs both arms.
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

		base := DefaultConfig(p, 2)
		base.Speeds = []float64{1, 1, 1, 2, 1, 2, 1, 1}
		base.Cache = &CacheConfig{Capacity: 128, TTL: 30}
		// A random mid-run crash and recovery of a non-spare slave.
		crashNode := 2 + int(crashNodeRaw)%4 // nodes 2..5
		crashAt := 0.1*span + 0.6*span*float64(crashTimeRaw)/255
		base.Events = []AvailabilityEvent{
			{Node: crashNode, At: crashAt, Available: false},
			{Node: crashNode, At: crashAt + 0.2*span, Available: true},
		}

		recruit := base
		recruit.InitiallyDown = []int{7}
		recruit.AutoRecruit = &AutoRecruit{Spares: []int{7}, Period: 0.5, HighRate: 300, LowRate: 200}
		autoscale := base
		autoscale.Autoscale = &Autoscale{Period: 2, MinM: 1, MaxM: 4}

		for _, cfg := range []Config{recruit, autoscale} {
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
			if as := res.Autoscale; as != nil {
				replans += as.Promotions + as.Demotions
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if replans == 0 {
		t.Fatal("the autoscaler arm never re-planned the master count")
	}
}
