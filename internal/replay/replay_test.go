package replay

import (
	"context"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/trace"
)

func startTestCluster(t *testing.T, masters, nodes int, scale float64) *httpcluster.Cluster {
	t.Helper()
	cfg := httpcluster.DefaultConfig(masters, func(id int) core.Policy {
		return core.NewMS(nil, int64(id)+1)
	})
	cfg.Nodes = nodes
	cfg.TimeScale = scale
	cfg.LoadRefresh = 25 * time.Millisecond
	cfg.PolicyTick = 50 * time.Millisecond
	c, err := httpcluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestReplaySmallTrace(t *testing.T) {
	c := startTestCluster(t, 1, 3, 0.25)
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 40, Requests: 80, MuH: 110, R: 1.0 / 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), c.MasterURLs(), tr, Options{TimeScale: 0.25, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed", res.Failed)
	}
	if res.Summary.Count != 80 {
		t.Fatalf("collected %d samples, want 80", res.Summary.Count)
	}
	if sf := res.StretchFactor(); sf < 1 || sf > 50 {
		t.Fatalf("implausible stretch factor %v", sf)
	}
}

func TestReplayRoundRobinAcrossMasters(t *testing.T) {
	c := startTestCluster(t, 2, 4, 0.25)
	tr := &trace.Trace{Name: "rr"}
	for i := 0; i < 10; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: float64(i) * 0.01, Class: trace.Static, Demand: 0.001, CPUWeight: 0.3,
		})
	}
	res, err := Run(context.Background(), c.MasterURLs(), tr, Options{TimeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed", res.Failed)
	}
	// Statics execute at the receiving master; round robin must split
	// them evenly.
	if a, b := c.Masters[0].Executed(), c.Masters[1].Executed(); a != 5 || b != 5 {
		t.Fatalf("masters executed %d and %d, want 5 and 5", a, b)
	}
}

// The frame drive mode replays the same trace over persistent 'Q'
// frames instead of HTTP GETs: same completions, same counters on the
// cluster side, no response bodies to verify.
func TestReplayOverFrames(t *testing.T) {
	c := startTestCluster(t, 2, 4, 0.25)
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 40, Requests: 60, MuH: 110, R: 1.0 / 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), c.MasterURLs(), tr,
		Options{TimeScale: 0.25, Timeout: time.Minute, Frames: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed over frames", res.Failed)
	}
	if res.Summary.Count != 60 {
		t.Fatalf("collected %d samples, want 60", res.Summary.Count)
	}
	if got := c.Masters[0].Accepted() + c.Masters[1].Accepted(); got != 60 {
		t.Fatalf("masters accepted %d requests, want 60", got)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	c := startTestCluster(t, 1, 2, 0.25)
	res, err := Run(context.Background(), c.MasterURLs(), &trace.Trace{Name: "empty"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 0 || res.Summary.Count != 0 {
		t.Fatalf("empty replay: %+v", res)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Run(context.Background(), nil, &trace.Trace{}, DefaultOptions()); err == nil {
		t.Fatal("no masters accepted")
	}
	bad := &trace.Trace{Requests: []trace.Request{{Arrival: 5}, {Arrival: 1}}}
	if _, err := Run(context.Background(), []string{"http://127.0.0.1:1"}, bad, DefaultOptions()); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestReplayCancellation(t *testing.T) {
	c := startTestCluster(t, 1, 2, 1)
	tr := &trace.Trace{Name: "slow"}
	for i := 0; i < 50; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: float64(i), Class: trace.Static, Demand: 0.001, CPUWeight: 0.3,
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, c.MasterURLs(), tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent >= 50 {
		t.Fatalf("cancellation did not stop the replay: sent %d", res.Sent)
	}
}

func TestReplayUnreachableClusterCountsFailures(t *testing.T) {
	tr := &trace.Trace{Name: "x", Requests: []trace.Request{
		{Arrival: 0, Class: trace.Static, Demand: 0.001, CPUWeight: 0.3},
	}}
	res, err := Run(context.Background(), []string{"http://127.0.0.1:9"}, tr, Options{TimeScale: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	if res.Err() == nil {
		t.Fatal("an all-failed replay reports no error")
	}
	// The rule is "more than a tenth": 1 of 10 passes, 2 of 10 do not.
	if err := (&Result{Sent: 10, Failed: 1}).Err(); err != nil {
		t.Fatalf("1/10 failed: %v, want nil", err)
	}
	if err := (&Result{Sent: 10, Failed: 2}).Err(); err == nil {
		t.Fatal("2/10 failed: nil error")
	}
}

func TestReplayConcurrencyGate(t *testing.T) {
	c := startTestCluster(t, 1, 2, 0.25)
	tr := &trace.Trace{Name: "gate"}
	for i := 0; i < 20; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 0, Class: trace.Static, Demand: 0.004, CPUWeight: 0.3,
		})
	}
	res, err := Run(context.Background(), c.MasterURLs(), tr, Options{TimeScale: 0.25, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Summary.Count != 20 {
		t.Fatalf("gated replay: failed=%d count=%d", res.Failed, res.Summary.Count)
	}
}
