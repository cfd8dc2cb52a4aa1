package httpcluster

import (
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// asPeriod is the control period of the autoscaler test masters: at
// their TimeScale of 1e-6 it spans one virtual second.
const asPeriod = time.Microsecond

// launchAutoscaleMaster launches master id of a two-master tier {0, 1}
// over slaves {3, 4}, slave 4 master-capable, with its window counting
// and its autoscale loop not started: tests call autoscaleOnce with a
// synthetic now. Peer and slave URLs go nowhere.
func launchAutoscaleMaster(t *testing.T, id int, pol core.Policy) *Master {
	t.Helper()
	m, err := LaunchMaster(NodeOptions{
		ID:          id,
		TimeScale:   1e-6,
		Masters:     []int{0, 1},
		Slaves:      []int{3, 4},
		NodeURLs:    []string{"", "", "", "http://192.0.2.1:1", "http://192.0.2.1:2"},
		Policy:      pol,
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	m.asEvery = asPeriod
	m.memMu.Lock()
	m.tier, err = core.NewTier(id, 5, m.Membership(), []int{0, 1, 4})
	m.memMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// liveWindow is a virtual second in which every arrival completed:
// statics of 1 ms and dynamics of 50 ms of demand.
func liveWindow(statics, dynamics int) core.Window {
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

// plannedM is the shared law's m for window w on m's current
// membership, with the live plane's λ scaling by the master count.
func plannedM(t *testing.T, m *Master, w core.Window, pl core.Planner, at time.Time) int {
	t.Helper()
	mb := m.Membership()
	r, ok := w.Rates(1)
	if !ok {
		t.Fatal("test window has no signal")
	}
	r.LambdaH *= float64(len(mb.Masters))
	r.LambdaC *= float64(len(mb.Masters))
	r.P = len(mb.Masters) + len(mb.Slaves)
	got, _ := pl.Plan(r, len(mb.Masters), at.Sub(m.origin).Seconds())
	return got
}

// Only the lowest-id master of the membership plans: master 1 harvests
// nothing and announces nothing, however busy its window.
func TestAutoscaleOnceOnlyLowestMasterActs(t *testing.T) {
	m := launchAutoscaleMaster(t, 1, core.NewMS(nil, 1))
	m.win = liveWindow(600, 10)
	m.autoscaleOnce(m.origin.Add(time.Second))
	if got := m.Epoch(); got != 0 {
		t.Fatalf("epoch %d after a non-lowest master's period, want 0", got)
	}
	if m.win != liveWindow(600, 10) || m.as != (core.Planner{}) {
		t.Fatalf("non-lowest master touched its window or planner: %+v %+v", m.win, m.as)
	}
}

// A window without signal in both classes changes nothing: no epoch,
// no hold.
func TestAutoscaleOnceEmptyWindowKeepsPlan(t *testing.T) {
	m := launchAutoscaleMaster(t, 0, core.NewMS(nil, 1))
	for _, w := range []core.Window{{}, liveWindow(600, 0)} {
		m.win = w
		m.autoscaleOnce(m.origin.Add(time.Second))
		if got := m.Epoch(); got != 0 || m.memberApplies.Load() != 0 {
			t.Fatalf("epoch %d, %d applies after window %+v, want none", got, m.memberApplies.Load(), w)
		}
		if m.as != (core.Planner{}) || m.win != (core.Window{}) {
			t.Fatalf("planner %+v / window %+v after window %+v, want zero", m.as, m.win, w)
		}
	}
}

// One control period on the two-master tier over four nodes: a busy
// window announces exactly one membership, one epoch on, with
// core.Planner's m; a saturated window or a demotion inside the hold
// announces nothing; and the planner state after the period is the
// law's. The windows carry, scaled by the two masters, the rates the
// simulator's autoscaleTick test feeds it, and plan the same m.
func TestAutoscaleOncePlansLikeTheLaw(t *testing.T) {
	held := core.Planner{}
	held.Settle(true, 0.5, 1) // a hold epoch until t = 2.5
	cases := []struct {
		name   string
		w      core.Window
		before core.Planner
		wantM  int
	}{
		{"promotion", liveWindow(600, 10), core.Planner{}, 3},
		{"demotion", liveWindow(100, 20), core.Planner{}, 1},
		{"saturated window keeps m", liveWindow(100, 40), core.Planner{}, 2},
		{"demotion inside the hold", liveWindow(100, 20), held, 2},
	}
	for _, tc := range cases {
		m := launchAutoscaleMaster(t, 0, core.NewMS(nil, 1))
		at := m.origin.Add(time.Second)
		want := plannedM(t, m, tc.w, tc.before, at)
		m.as, m.win = tc.before, tc.w
		m.autoscaleOnce(at)

		mb, wantEpoch := m.Membership(), uint64(0)
		if want != 2 {
			wantEpoch = 1
		}
		if want != tc.wantM || len(mb.Masters) != want || mb.Epoch != wantEpoch ||
			m.memberApplies.Load() != int64(wantEpoch) {
			t.Errorf("%s: membership %+v after %d applies, law says %d masters, want %d at epoch %d",
				tc.name, mb, m.memberApplies.Load(), want, tc.wantM, wantEpoch)
		}
		ref := tc.before
		ref.Settle(want != 2, 1, asPeriod.Seconds())
		if m.as != ref {
			t.Errorf("%s: planner %+v after the period, law says %+v", tc.name, m.as, ref)
		}
	}
}

// Across periods the hold follows the shared law: the promotion opens
// a hold and doubles it, a demotion wanted inside the hold is deferred
// and halves it, and past the hold the same window demotes.
func TestAutoscaleOnceHoldsDemotion(t *testing.T) {
	m := launchAutoscaleMaster(t, 0, core.NewMS(nil, 1))
	var ref core.Planner
	sec := asPeriod.Seconds()

	t1 := m.origin.Add(time.Second)
	m.win = liveWindow(600, 10)
	m.autoscaleOnce(t1)
	if mb := m.Membership(); mb.Epoch != 1 || len(mb.Masters) != 3 {
		t.Fatalf("fixture: busy period left %+v, want 3 masters at epoch 1", mb)
	}
	ref.Settle(true, t1.Sub(m.origin).Seconds(), sec)
	if m.as != ref {
		t.Fatalf("planner %+v after the promotion, want %+v", m.as, ref)
	}

	// One period on, a quiet window wants fewer masters: the hold defers it.
	t2 := t1.Add(asPeriod)
	if got := plannedM(t, m, liveWindow(100, 20), core.Planner{}, t2); got >= 3 {
		t.Fatalf("fixture: quiet window plans %d masters, want a demotion", got)
	}
	m.win = liveWindow(100, 20)
	m.autoscaleOnce(t2)
	if mb := m.Membership(); mb.Epoch != 1 || len(mb.Masters) != 3 {
		t.Fatalf("demotion inside the hold announced %+v", mb)
	}
	ref.Settle(false, t2.Sub(m.origin).Seconds(), sec)
	if m.as != ref {
		t.Fatalf("planner %+v after the deferred demotion, want %+v", m.as, ref)
	}

	// Past the hold the same window demotes.
	t3 := t1.Add(3 * asPeriod)
	want := plannedM(t, m, liveWindow(100, 20), ref, t3)
	m.win = liveWindow(100, 20)
	m.autoscaleOnce(t3)
	if mb := m.Membership(); mb.Epoch != 2 || len(mb.Masters) != want || want >= 3 {
		t.Fatalf("after the hold: %+v, want epoch 2 with %d (< 3) masters", mb, want)
	}
	ref.Settle(true, t3.Sub(m.origin).Seconds(), sec)
	if m.as != ref {
		t.Fatalf("planner %+v after the demotion, want %+v", m.as, ref)
	}
}

// everyOther admits every other degraded-regime dynamic at the master,
// so exactly half of them shed.
type everyOther struct {
	*core.MS
	n int
}

func (e *everyOther) AdmitsAtMaster() bool {
	e.n++
	return e.n%2 == 0
}

// Shed requests are arrivals: a window in which half the dynamics were
// shed plans the same master count as the same arrivals with none shed.
// Counting completions instead would have planned a different one.
func TestAutoscaleCountsShedArrivals(t *testing.T) {
	m := launchAutoscaleMaster(t, 0, &everyOther{MS: core.NewMS(nil, 1)})
	m.brk.open(&m.brk.slots[4], time.Now().UnixNano()) // the own shard is saturated
	start := time.Now()
	for i := 0; i < 100; i++ {
		m.serveReq(reqParams{class: trace.Static, demand: 0.001, w: 0.5}, start, 0)
	}
	for i := 0; i < 20; i++ {
		m.serveReq(reqParams{class: trace.Dynamic, demand: 0.05, w: 0.5}, start, 0)
	}
	if m.Shed() != 10 {
		t.Fatalf("fixture: %d of 20 dynamics shed, want 10", m.Shed())
	}
	if w := m.win; w.ArrivedC != 20 || w.DoneC != 10 {
		t.Fatalf("window %+v, want 20 dynamic arrivals and 10 completions", w)
	}
	at := m.origin.Add(time.Second)
	if plannedM(t, m, liveWindow(100, 10), core.Planner{}, at) == plannedM(t, m, liveWindow(100, 20), core.Planner{}, at) {
		t.Fatal("fixture: the completions-only window plans like the arrivals; the test would not see the bug")
	}
	m.autoscaleOnce(at)

	unshed := launchAutoscaleMaster(t, 0, core.NewMS(nil, 1))
	unshed.win = liveWindow(100, 20)
	unshed.autoscaleOnce(at)
	got, want := m.Membership(), unshed.Membership()
	if len(got.Masters) != len(want.Masters) || got.Epoch != want.Epoch {
		t.Fatalf("shed window planned %+v, unshed window %+v", got, want)
	}
}
