package simos

import (
	"math"
	"testing"
	"testing/quick"

	"msweb/internal/obs"
	"msweb/internal/sim"
)

func newTestNode(t *testing.T, eng *sim.Engine, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(eng, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.CPUQuantum = 0 },
		func(c *Config) { c.PriorityUpdate = 0 },
		func(c *Config) { c.ContextSwitch = -1 },
		func(c *Config) { c.ForkOverhead = -1 },
		func(c *Config) { c.PageIOTime = 0 },
		func(c *Config) { c.TotalPages = 0 },
		func(c *Config) { c.ReadyLevels = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestUnloadedCPUJobRunsInDemandTime(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	var done float64 = -1
	n.Submit(Job{CPUTime: 0.035, Done: func(now float64) { done = now }})
	eng.Run()
	if !approx(done, 0.035, 1e-9) {
		t.Fatalf("CPU job finished at %v, want 0.035", done)
	}
}

func TestUnloadedMixedJobRunsInDemandTime(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	var done float64 = -1
	// 10 ms CPU + 6 ms I/O → exactly 16 ms on an idle node.
	n.Submit(Job{CPUTime: 0.010, IOTime: 0.006, Done: func(now float64) { done = now }})
	eng.Run()
	if !approx(done, 0.016, 1e-9) {
		t.Fatalf("mixed job finished at %v, want 0.016", done)
	}
}

func TestForkOverheadCharged(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	var done float64 = -1
	n.Submit(Job{CPUTime: 0.010, Fork: true, Done: func(now float64) { done = now }})
	eng.Run()
	if !approx(done, 0.013, 1e-9) {
		t.Fatalf("forked job finished at %v, want 0.013 (10ms + 3ms fork)", done)
	}
	if n.Stats().Forks != 1 {
		t.Fatalf("fork count = %d", n.Stats().Forks)
	}
}

func TestPureIOJob(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	var done float64 = -1
	n.Submit(Job{IOTime: 0.009, Done: func(now float64) { done = now }})
	eng.Run()
	if !approx(done, 0.009, 1e-9) {
		t.Fatalf("pure I/O job finished at %v, want 0.009", done)
	}
	// 9 ms of I/O at ~2 ms bursts → 4 or 5 disk ops.
	if ops := n.Stats().DiskOps; ops < 4 || ops > 5 {
		t.Fatalf("disk ops = %d, want 4-5", ops)
	}
}

func TestZeroJobCompletes(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	doneCount := 0
	n.Submit(Job{Done: func(float64) { doneCount++ }})
	eng.Run()
	if doneCount != 1 {
		t.Fatalf("zero job completed %d times", doneCount)
	}
}

func TestInvalidJobPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("negative CPU job accepted")
		}
	}()
	n.Submit(Job{CPUTime: -1})
}

func TestTwoCPUJobsShareProcessor(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	var t1, t2 float64
	n.Submit(Job{CPUTime: 0.050, Done: func(now float64) { t1 = now }})
	n.Submit(Job{CPUTime: 0.050, Done: func(now float64) { t2 = now }})
	eng.Run()
	// Total CPU work is 100 ms; the later finisher must land at 100 ms,
	// the earlier one within a quantum of it (round-robin interleave).
	last := math.Max(t1, t2)
	first := math.Min(t1, t2)
	if !approx(last, 0.100, 1e-9) {
		t.Fatalf("last job finished at %v, want 0.100", last)
	}
	if first < 0.085 {
		t.Fatalf("first job finished at %v; round-robin should keep them within a quantum", first)
	}
}

func TestMLFQFavorsShortJobs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	n := newTestNode(t, eng, cfg)
	var shortDone, longDone float64
	// A CPU hog starts first; a short (static-like) job arrives later.
	n.Submit(Job{CPUTime: 0.500, Done: func(now float64) { longDone = now }})
	eng.Schedule(0.200, func() {
		n.Submit(Job{CPUTime: 0.001, Done: func(now float64) { shortDone = now }})
	})
	eng.Run()
	// The hog has sunk to a low priority level by t=0.2; the short job
	// must complete promptly rather than waiting for the hog.
	if delay := shortDone - 0.200; delay > 0.015 {
		t.Fatalf("short job waited %v behind a CPU hog; MLFQ should favor it", delay)
	}
	if longDone < 0.5 {
		t.Fatalf("long job finished impossibly early at %v", longDone)
	}
}

func TestContextSwitchCounted(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	n.Submit(Job{CPUTime: 0.030})
	n.Submit(Job{CPUTime: 0.030})
	eng.Run()
	st := n.Stats()
	// Interleaving two 3-quantum jobs forces several switches.
	if st.ContextSwitches < 3 {
		t.Fatalf("context switches = %d, want several", st.ContextSwitches)
	}
}

func TestContextSwitchAddsWallTime(t *testing.T) {
	run := func(cs float64) float64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.ContextSwitch = cs
		n, _ := NewNode(eng, 0, cfg)
		var last float64
		for i := 0; i < 4; i++ {
			n.Submit(Job{CPUTime: 0.020, Done: func(now float64) { last = now }})
		}
		eng.Run()
		return last
	}
	without := run(0)
	with := run(0.001) // exaggerated 1 ms switches
	if with <= without {
		t.Fatalf("context switches added no wall time: %v vs %v", with, without)
	}
}

func TestMemoryGrantAndRelease(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TotalPages = 1000
	n := newTestNode(t, eng, cfg)
	n.Submit(Job{CPUTime: 0.010, MemPages: 400})
	if n.FreePages() != 600 {
		t.Fatalf("free pages during run = %d, want 600", n.FreePages())
	}
	eng.Run()
	if n.FreePages() != 1000 {
		t.Fatalf("free pages after completion = %d, want 1000", n.FreePages())
	}
}

func TestMemoryDeficitCausesPaging(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TotalPages = 100
	n := newTestNode(t, eng, cfg)
	var lean, starved float64
	n.Submit(Job{CPUTime: 0.010, MemPages: 90, Done: func(now float64) { lean = now }})
	n.Submit(Job{CPUTime: 0.010, MemPages: 90, Done: func(now float64) { starved = now }})
	eng.Run()
	st := n.Stats()
	if st.PageFaults != 80 {
		t.Fatalf("page faults = %d, want 80 (deficit of the second job)", st.PageFaults)
	}
	if starved <= lean {
		t.Fatalf("starved job (%v) should finish after the lean one (%v) due to page-in I/O", starved, lean)
	}
}

func TestPagingCapBoundsRunaway(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TotalPages = 10
	n := newTestNode(t, eng, cfg)
	var done float64 = -1
	n.Submit(Job{CPUTime: 0.001, MemPages: 100000, Done: func(now float64) { done = now }})
	eng.Run()
	if done < 0 {
		t.Fatal("hugely overcommitted job never completed")
	}
	// The cap limits page-in I/O to 4·ioLeft+64 bursts.
	if done > 1.0 {
		t.Fatalf("overcommitted job took %v, paging cap failed", done)
	}
}

func TestDiskServesFIFORoundRobin(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	var first, second float64
	// Two I/O-heavy jobs; round-robin should interleave their bursts so
	// they finish close together rather than strictly sequentially.
	n.Submit(Job{IOTime: 0.020, Done: func(now float64) { first = now }})
	n.Submit(Job{IOTime: 0.020, Done: func(now float64) { second = now }})
	eng.Run()
	gap := math.Abs(second - first)
	if gap > 0.004 {
		t.Fatalf("I/O jobs finished %v apart; round robin should interleave them", gap)
	}
	if last := math.Max(first, second); !approx(last, 0.040, 1e-9) {
		t.Fatalf("total disk time %v, want 0.040", last)
	}
}

func TestLoadRatiosReflectActivity(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	n := newTestNode(t, eng, cfg)
	// Saturate the CPU for the first 100 ms.
	n.Submit(Job{CPUTime: 0.100})
	eng.RunUntil(0.100)
	idle := n.CPUIdleRatio()
	if idle > 0.1 {
		t.Fatalf("CPU idle ratio %v during saturation, want ~0", idle)
	}
	disk := n.DiskAvailRatio()
	if disk < 0.9 {
		t.Fatalf("disk avail ratio %v with no I/O, want ~1", disk)
	}
	// Next window: idle.
	eng.RunUntil(0.300)
	if idle := n.CPUIdleRatio(); idle < 0.9 {
		t.Fatalf("CPU idle ratio %v after work drained, want ~1", idle)
	}
}

func TestQueueLengths(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	for i := 0; i < 5; i++ {
		n.Submit(Job{CPUTime: 0.050})
	}
	cpu, disk := n.QueueLengths()
	if cpu != 5 {
		t.Fatalf("cpu queue = %d, want 5", cpu)
	}
	if disk != 0 {
		t.Fatalf("disk queue = %d, want 0", disk)
	}
	eng.Run()
	cpu, disk = n.QueueLengths()
	if cpu != 0 || disk != 0 {
		t.Fatalf("queues after drain: cpu=%d disk=%d", cpu, disk)
	}
}

func TestStatsConservation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ContextSwitch = 0
	n := newTestNode(t, eng, cfg)
	const jobs = 50
	totalCPU := 0.0
	completed := 0
	for i := 0; i < jobs; i++ {
		cpu := 0.001 * float64(i%7+1)
		totalCPU += cpu
		n.Submit(Job{CPUTime: cpu, IOTime: 0.002, Done: func(float64) { completed++ }})
	}
	eng.Run()
	st := n.Stats()
	if st.Submitted != jobs || st.Completed != jobs || completed != jobs {
		t.Fatalf("conservation: submitted=%d completed=%d callbacks=%d", st.Submitted, st.Completed, completed)
	}
	if !approx(st.CPUBusy, totalCPU, 1e-6) {
		t.Fatalf("CPU busy integral %v, want %v", st.CPUBusy, totalCPU)
	}
	if !approx(st.DiskBusy, float64(jobs)*0.002, 1e-6) {
		t.Fatalf("disk busy integral %v, want %v", st.DiskBusy, float64(jobs)*0.002)
	}
}

// Property: any batch of jobs eventually completes, exactly once each,
// and memory returns to its initial level.
func TestCompletionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.TotalPages = 256
		n, err := NewNode(eng, 0, cfg)
		if err != nil {
			return false
		}
		want := 0
		got := 0
		for _, r := range raw {
			if want >= 40 {
				break
			}
			want++
			n.Submit(Job{
				CPUTime:  float64(r%50) / 1000,
				IOTime:   float64(r%30) / 1000,
				MemPages: int(r % 300),
				Fork:     r%2 == 0,
				Done:     func(float64) { got++ },
			})
		}
		eng.Run()
		return got == want && n.FreePages() == 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewNodeRejectsBadConfig(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.CPUQuantum = -1
	if _, err := NewNode(eng, 0, cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestPriorityDecayLetsHogRecover(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	var hogDone float64
	n.Submit(Job{CPUTime: 0.300, Done: func(now float64) { hogDone = now }})
	// A stream of short jobs arrives; decay must still let the hog finish.
	for i := 1; i <= 20; i++ {
		at := float64(i) * 0.020
		eng.Schedule(at, func() { n.Submit(Job{CPUTime: 0.002}) })
	}
	eng.Run()
	if hogDone <= 0 {
		t.Fatal("CPU hog starved forever")
	}
	// Work conservation bound: total work is 0.300 + 20·0.002 = 0.340
	// plus switches; the hog cannot finish later than the drain point.
	if hogDone > 0.40 {
		t.Fatalf("hog finished at %v, far beyond total work", hogDone)
	}
}

func TestWorkingSetRefaults(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.TotalPages = 100
	n := newTestNode(t, eng, cfg)
	// A resident hog exhausts memory for the whole run; the starved
	// job's working set keeps refaulting while it executes.
	n.Submit(Job{CPUTime: 1.0, MemPages: 100})
	var starvedDone float64 = -1
	n.Submit(Job{CPUTime: 0.050, IOTime: 0.010, MemPages: 50,
		Done: func(now float64) { starvedDone = now }})
	eng.Run()
	if starvedDone < 0 {
		t.Fatal("starved job never completed (refault livelock?)")
	}
	st := n.Stats()
	// Initial deficit 50 plus at least one execution-time refault.
	if st.PageFaults <= 50 {
		t.Fatalf("page faults = %d, want > 50 (initial deficit plus refaults)", st.PageFaults)
	}
	// The livelock bound: at most deficit extra refaults.
	if st.PageFaults > 100 {
		t.Fatalf("page faults = %d, refaults unbounded", st.PageFaults)
	}
}

func TestNoRefaultsWhenMemoryFree(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	n.Submit(Job{CPUTime: 0.100, IOTime: 0.020, MemPages: 100})
	eng.Run()
	if st := n.Stats(); st.PageFaults != 0 {
		t.Fatalf("page faults = %d on an uncontended node", st.PageFaults)
	}
}

// captureTracer records emitted events for assertions.
type captureTracer struct{ events []obs.Event }

func (c *captureTracer) Emit(ev obs.Event) { c.events = append(c.events, ev) }

func TestTracedJobEmitsPhases(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(t, eng, DefaultConfig())
	tr := &captureTracer{}
	n.SetTracer(tr)

	done := false
	n.Submit(Job{CPUTime: 0.02, IOTime: 0.004, TraceID: 42, Done: func(float64) { done = true }})
	// An untraced job on the same node must stay silent.
	n.Submit(Job{CPUTime: 0.01, Done: func(float64) {}})
	eng.Run()
	if !done {
		t.Fatal("traced job did not complete")
	}
	var cpu, disk float64
	var nCPU, nDisk int
	for _, ev := range tr.events {
		if ev.Req != 42 {
			t.Fatalf("event for untraced job: %+v", ev)
		}
		if ev.Node != 0 {
			t.Fatalf("event node %d, want 0", ev.Node)
		}
		switch ev.Kind {
		case obs.KindPhaseCPU:
			cpu += ev.Value
			nCPU++
		case obs.KindPhaseDisk:
			disk += ev.Value
			nDisk++
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
	if nCPU == 0 || nDisk == 0 {
		t.Fatalf("phases missing: %d cpu, %d disk", nCPU, nDisk)
	}
	if !approx(cpu, 0.02, 1e-9) {
		t.Fatalf("traced CPU %v, want 0.02", cpu)
	}
	if !approx(disk, 0.004, 1e-9) {
		t.Fatalf("traced disk %v, want 0.004", disk)
	}

	// Removing the tracer silences subsequent jobs.
	n.SetTracer(nil)
	before := len(tr.events)
	n.Submit(Job{CPUTime: 0.01, TraceID: 43, Done: func(float64) {}})
	eng.Run()
	if len(tr.events) != before {
		t.Fatal("events emitted after tracer removal")
	}
}
