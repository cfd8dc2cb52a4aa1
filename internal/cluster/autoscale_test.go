package cluster

import (
	"testing"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// simWindow is a one-second window in which every arrival completed:
// statics of 1 ms and dynamics of 50 ms of demand.
func simWindow(statics, dynamics int) core.Window {
	var w core.Window
	for i := 0; i < statics; i++ {
		w.Arrive(trace.Static)
		w.Done(trace.Static, 0.001)
	}
	for i := 0; i < dynamics; i++ {
		w.Arrive(trace.Dynamic)
		w.Done(trace.Dynamic, 0.05)
	}
	return w
}

// One control period on four powered nodes with two masters, where
// every window sizes the fleet at all four: autoscaleTick applies
// exactly the m and the next hold of core.Planner for the same window,
// the same rates the live tests feed autoscaleOnce from two masters.
func TestAutoscaleTickPlansLikeTheLaw(t *testing.T) {
	held := core.Planner{}
	held.Settle(true, -1, 1) // a hold epoch until t = 1
	cases := []struct {
		name   string
		w      core.Window
		before core.Planner
		wantM  int
	}{
		{"promotion", simWindow(1200, 20), core.Planner{}, 3},
		{"demotion", simWindow(200, 40), core.Planner{}, 1},
		{"saturated window keeps m", simWindow(200, 80), core.Planner{}, 2},
		{"demotion inside the hold", simWindow(200, 40), held, 2},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(4, 2)
		cfg.Autoscale = &Autoscale{Period: 1}
		_, c := newClusterForTest(t, cfg)
		c.as, c.win = tc.before, tc.w
		c.autoscaleTick()

		ref := tc.before
		r, _ := tc.w.Rates(1)
		if r.P = ref.Fleet(tc.w, r, 4); r.P != 4 {
			t.Fatalf("%s: fixture sizes the fleet at %d, want all 4 nodes", tc.name, r.P)
		}
		m, _ := ref.Plan(r, 2, 0)
		ref.Settle(m != 2, 0, 1)
		if m != tc.wantM || c.roleMasters != m || c.poweredCount != 4 {
			t.Errorf("%s: %d masters on %d powered nodes, law says %d, want %d on 4",
				tc.name, c.roleMasters, c.poweredCount, m, tc.wantM)
		}
		if c.as != ref {
			t.Errorf("%s: planner %+v after the tick, law says %+v", tc.name, c.as, ref)
		}
		if c.win != (core.Window{}) {
			t.Errorf("%s: window %+v not reset", tc.name, c.win)
		}
	}
}

// Which slaves the autoscaler switches: a scale-down tick on eight
// nodes powers off from the highest slave id down, and a following
// scale-up tick powers on from the lowest unpowered id up, so after
// either tick the powered nodes are exactly the lowest ids.
func TestAutoscaleTickPowersByNodeID(t *testing.T) {
	cfg := DefaultConfig(8, 2)
	cfg.Autoscale = &Autoscale{Period: 1}
	_, c := newClusterForTest(t, cfg)
	steps := []struct {
		name      string
		w         core.Window
		wantFleet int
	}{
		{"scale-down", simWindow(500, 20), 3}, // 1.5 erlangs
		{"scale-up", simWindow(700, 40), 5},   // 2.7 erlangs
	}
	for _, st := range steps {
		c.win = st.w
		c.autoscaleTick()
		if c.poweredCount != st.wantFleet {
			t.Fatalf("%s: %d powered nodes, want %d", st.name, c.poweredCount, st.wantFleet)
		}
		for id, on := range c.powered {
			if on != (id < st.wantFleet) {
				t.Fatalf("%s: powered %v, want exactly nodes 0..%d", st.name, c.powered, st.wantFleet-1)
			}
		}
	}
}
