package replay

import (
	"context"
	"math"
	"testing"
	"time"

	"msweb/internal/trace"
	"msweb/internal/workload"
)

func testSessions(t *testing.T, n int) []workload.Session {
	t.Helper()
	sessions, err := workload.Generate(workload.Config{
		Profile:      trace.KSU,
		Sessions:     n,
		SessionRate:  40,
		MeanRequests: 4,
		MeanThink:    0.05,
		MuH:          110,
		R:            1.0 / 40,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sessions
}

func TestRunClosedCompletes(t *testing.T) {
	c := startTestCluster(t, 1, 3, 0.2)
	sessions := testSessions(t, 20)
	res, err := RunClosed(context.Background(), c.MasterURLs(), sessions, Options{TimeScale: 0.2, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want := workload.TotalRequests(sessions)
	if res.Sent != want || res.Failed != 0 {
		t.Fatalf("sent=%d failed=%d want=%d", res.Sent, res.Failed, want)
	}
	if sf := res.StretchFactor(); sf < 1 || sf > 100 {
		t.Fatalf("implausible stretch %v", sf)
	}
}

func TestRunClosedSequentialWithinSession(t *testing.T) {
	c := startTestCluster(t, 1, 2, 0.25)
	// One session, 3 requests of 20 ms each and 10 ms thinks: the
	// session cannot finish faster than its serial time.
	s := workload.Session{
		Start: 0,
		Requests: []trace.Request{
			{Class: trace.Static, Demand: 0.02, CPUWeight: 0.5},
			{Class: trace.Static, Demand: 0.02, CPUWeight: 0.5},
			{Class: trace.Static, Demand: 0.02, CPUWeight: 0.5},
		},
		Thinks: []float64{0.01, 0.01},
	}
	start := time.Now()
	res, err := RunClosed(context.Background(), c.MasterURLs(), []workload.Session{s}, Options{TimeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// Serial time scaled: (3·20 + 2·10) ms × 0.25 = 20 ms.
	if e := time.Since(start); e < 18*time.Millisecond {
		t.Fatalf("closed session finished in %v, below serial minimum", e)
	}
	if res.Sent != 3 || res.Failed != 0 {
		t.Fatalf("sent=%d failed=%d", res.Sent, res.Failed)
	}
}

func TestRunClosedValidation(t *testing.T) {
	if _, err := RunClosed(context.Background(), nil, nil, DefaultOptions()); err == nil {
		t.Fatal("no masters accepted")
	}
	bad := []workload.Session{{Start: 0}}
	if _, err := RunClosed(context.Background(), []string{"http://x"}, bad, DefaultOptions()); err == nil {
		t.Fatal("invalid session accepted")
	}
	good := []workload.Session{{Requests: make([]trace.Request, 1)}}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunClosed(context.Background(), []string{"http://x"}, good, Options{TimeScale: scale}); err == nil {
			t.Fatalf("time scale %v accepted", scale)
		}
	}
}

// A think too long for a time.Duration still waits: the session sends
// its first request and then nothing until the context ends.
func TestRunClosedHugeThinkWaits(t *testing.T) {
	c := startTestCluster(t, 1, 2, 1)
	req := trace.Request{Class: trace.Static, Demand: 0.001, CPUWeight: 0.5}
	s := workload.Session{Requests: []trace.Request{req, req}, Thinks: []float64{1e300}}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := RunClosed(ctx, c.MasterURLs(), []workload.Session{s}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1 || res.Duration < 200*time.Millisecond {
		t.Fatalf("sent %d in %v, want 1 request and a wait until the context ended", res.Sent, res.Duration)
	}
}

func TestRunClosedCancellation(t *testing.T) {
	c := startTestCluster(t, 1, 2, 1)
	// Sessions starting far in the future; cancellation must return early.
	s := workload.Session{
		Start:    60,
		Requests: []trace.Request{{Class: trace.Static, Demand: 0.001, CPUWeight: 0.5}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := RunClosed(ctx, c.MasterURLs(), []workload.Session{s}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 0 {
		t.Fatalf("cancelled replay sent %d", res.Sent)
	}
}
