package cluster

import (
	"testing"

	"msweb/internal/core"
	"msweb/internal/obs"
	"msweb/internal/trace"
)

func TestSlaveFailureRestartsWork(t *testing.T) {
	tr := genTrace(t, trace.ADL, 300, 4000, 1.0/40, 21)
	cfg := DefaultConfig(6, 2)
	// Slave 5 dies mid-run and never returns.
	cfg.Events = []AvailabilityEvent{{Node: 5, At: 3.0, Available: false}}
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every request must still complete exactly once.
	if res.Summary.Count != 4000 {
		t.Fatalf("completed %d/4000 requests after a slave failure", res.Summary.Count)
	}
	if res.Failovers == 0 {
		t.Fatal("no failovers recorded despite a mid-run crash")
	}
	// The dead node must process nothing after the crash: its submit
	// count stays below what an even share would be.
	if res.NodeStats[5].Completed+res.NodeStats[5].Aborted != res.NodeStats[5].Submitted {
		t.Fatalf("node 5 conservation broken: %+v", res.NodeStats[5])
	}
}

// arrivalLog records the arrival events of a run in emission order.
type arrivalLog []obs.Event

func (l *arrivalLog) Emit(ev obs.Event) {
	if ev.Kind == obs.KindArrival {
		*l = append(*l, ev)
	}
}

// The requests a crash loses restart in the order they first arrived,
// whatever order the in-flight set holds them in: their retry events tie
// on time, so any other order would reach the replay.
func TestFailoverRestartsInArrivalOrder(t *testing.T) {
	tr := genTrace(t, trace.ADL, 300, 4000, 1.0/40, 21)
	cfg := DefaultConfig(6, 2)
	cfg.Events = []AvailabilityEvent{{Node: 5, At: 3.0, Available: false}}
	var log arrivalLog
	cfg.Tracer = &log
	if _, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr); err != nil {
		t.Fatal(err)
	}
	// A restart re-emits its original arrival time, which lies before
	// the latest first arrival already seen; consecutive restarts are
	// one batch of tied retry events.
	latest, batch, longest := 0.0, 0, 0
	for i, ev := range log {
		if ev.Time >= latest {
			latest, batch = ev.Time, 0
			continue
		}
		if batch > 0 && ev.Time < log[i-1].Time {
			t.Fatalf("restart of the request that arrived at %v follows the one that arrived at %v", ev.Time, log[i-1].Time)
		}
		batch++
		longest = max(longest, batch)
	}
	if longest < 2 {
		t.Fatalf("longest batch of restarts is %d: the crash did not exercise the restart order", longest)
	}
}

func TestMasterFailurePromotesReplacement(t *testing.T) {
	tr := genTrace(t, trace.KSU, 200, 2500, 1.0/40, 22)
	cfg := DefaultConfig(4, 1)
	// The only master crashes at t=2 and returns at t=6.
	cfg.Events = []AvailabilityEvent{
		{Node: 0, At: 2.0, Available: false},
		{Node: 0, At: 6.0, Available: true},
	}
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != 2500 {
		t.Fatalf("completed %d/2500 with a master outage", res.Summary.Count)
	}
	// The promoted node (1) must have served static requests while the
	// master was down.
	if res.NodeStats[1].Submitted == 0 {
		t.Fatal("no replacement master took over")
	}
}

func TestRecruitmentAddsCapacity(t *testing.T) {
	tr := genTrace(t, trace.ADL, 350, 6000, 1.0/40, 23)
	base := DefaultConfig(8, 2)
	// Nodes 6 and 7 are non-dedicated: absent in the baseline run,
	// recruited at t=1 in the recruited run.
	baseline := base
	baseline.InitiallyDown = []int{6, 7}
	resBase, err := Simulate(baseline, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	recruited := base
	recruited.InitiallyDown = []int{6, 7}
	recruited.Events = []AvailabilityEvent{
		{Node: 6, At: 1.0, Available: true},
		{Node: 7, At: 1.0, Available: true},
	}
	resRec, err := Simulate(recruited, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if resRec.Summary.Count != 6000 || resBase.Summary.Count != 6000 {
		t.Fatal("runs incomplete")
	}
	// Recruited nodes must actually absorb work...
	if resRec.NodeStats[6].Submitted == 0 || resRec.NodeStats[7].Submitted == 0 {
		t.Fatal("recruited nodes stayed idle")
	}
	// ...and the extra capacity must improve the stretch factor.
	if resRec.StretchFactor >= resBase.StretchFactor {
		t.Fatalf("recruitment did not help: %v vs %v", resRec.StretchFactor, resBase.StretchFactor)
	}
}

func TestFailureDuringDispatchLatencyWindow(t *testing.T) {
	// Crash a slave at many instants; the dispatch-window race (target
	// fails between Place and Submit) must never lose a request.
	tr := genTrace(t, trace.ADL, 300, 3000, 1.0/40, 24)
	cfg := DefaultConfig(4, 1)
	var events []AvailabilityEvent
	for i := 0; i < 20; i++ {
		at := 0.5 * float64(i+1)
		events = append(events,
			AvailabilityEvent{Node: 3, At: at, Available: i%2 == 1})
	}
	cfg.Events = events
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != 3000 {
		t.Fatalf("flapping slave lost requests: %d/3000", res.Summary.Count)
	}
}

func TestEventValidation(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.Events = []AvailabilityEvent{{Node: 9, At: 1, Available: false}}
	if cfg.Validate() == nil {
		t.Fatal("out-of-range event node accepted")
	}
	cfg = DefaultConfig(4, 1)
	cfg.Events = []AvailabilityEvent{{Node: 1, At: -1, Available: false}}
	if cfg.Validate() == nil {
		t.Fatal("negative event time accepted")
	}
	cfg = DefaultConfig(4, 1)
	cfg.InitiallyDown = []int{4}
	if cfg.Validate() == nil {
		t.Fatal("out-of-range initially-down node accepted")
	}
	cfg = DefaultConfig(4, 1)
	cfg.RetryDelay = -1
	if cfg.Validate() == nil {
		t.Fatal("negative retry delay accepted")
	}
}

func TestAvailableAccessor(t *testing.T) {
	tr := genTrace(t, trace.KSU, 100, 200, 1.0/40, 25)
	cfg := DefaultConfig(3, 1)
	cfg.InitiallyDown = []int{2}
	eng, c := newClusterForTest(t, cfg)
	if c.Available(2) {
		t.Fatal("initially-down node reported available")
	}
	if !c.Available(0) || !c.Available(1) {
		t.Fatal("up nodes reported unavailable")
	}
	if c.Available(-1) || c.Available(99) {
		t.Fatal("out-of-range ids reported available")
	}
	if _, err := c.Run(tr); err != nil {
		t.Fatal(err)
	}
	_ = eng
}

func TestClusterAffinityEndToEnd(t *testing.T) {
	// All dynamics of every script are pinned to node 3; every fork in
	// the run must land there.
	tr := genTrace(t, trace.KSU, 150, 1500, 1.0/40, 26)
	cfg := DefaultConfig(4, 1)
	cfg.Affinity = core.ScriptAffinity{}
	for s := 1; s <= trace.KSU.NumScripts; s++ {
		cfg.Affinity[s] = []int{3}
	}
	res, err := Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.NodeStats {
		if i == 3 {
			if st.Forks != uint64(res.TotalDynamics) {
				t.Fatalf("pinned node ran %d forks of %d dynamics", st.Forks, res.TotalDynamics)
			}
		} else if st.Forks != 0 {
			t.Fatalf("node %d ran %d forks despite the pin", i, st.Forks)
		}
	}
}

func TestClusterAffinityValidation(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.Affinity = core.ScriptAffinity{1: {7}}
	if cfg.Validate() == nil {
		t.Fatal("affinity naming a missing node accepted")
	}
}
