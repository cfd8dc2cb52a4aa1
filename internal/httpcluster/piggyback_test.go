package httpcluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"msweb/internal/core"
)

// With polling disabled, the master's view of a slave still refreshes:
// the frame reply's piggybacked report lands in the working view,
// and the staleness stamp moves — strictly fresher than the poll-only
// baseline, which would never update at all here.
func TestPiggybackRefreshesView(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	if m.fresh.Stamp(1) != 0 {
		t.Fatal("freshness stamp set before any traffic or poll")
	}
	before := time.Now().UnixNano()
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if m.piggyTotal.Load() == 0 {
		t.Fatal("no piggybacked report received")
	}
	if s := m.fresh.Stamp(1); s < before {
		t.Fatalf("freshness stamp %d not advanced past %d", s, before)
	}
	// The report must be visible to placement without any poll round.
	l, at := m.peekPiggy(1)
	if at == 0 {
		t.Fatal("piggy slot empty")
	}
	m.placeMu.Lock()
	m.refreshWorkView(nil)
	got := m.workView.Load[1]
	m.placeMu.Unlock()
	if got != l {
		t.Fatalf("working view load %+v, want piggybacked %+v", got, l)
	}
}

// A poll round skips nodes whose piggybacked report is younger than the
// poll interval, and counts the skips.
func TestPollSkipsFreshPiggyback(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	// Seed the slot via real traffic, then run one poll round by hand
	// (the configured hour-long ticker never fires during the test).
	if resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	polled := n.Executed()
	reports := make([]core.Load, len(m.urls))
	fetched := make([]bool, len(m.urls))
	fetchedAt := make([]int64, len(m.urls))
	m.pollOnce(time.Hour, reports, fetched, fetchedAt)
	if m.pollSkipped.Load() != 1 {
		t.Fatalf("poll_skipped=%d, want 1", m.pollSkipped.Load())
	}
	if !fetched[1] {
		t.Fatal("skipped node's report not substituted from the piggy slot")
	}
	if n.Executed() != polled {
		t.Fatal("slave saw extra traffic during the skipped poll round")
	}

	// Age the slot past the interval: the next round must really poll.
	m.piggy[1].mu.Lock()
	m.piggy[1].at -= int64(2 * time.Millisecond)
	m.piggy[1].mu.Unlock()
	m.pollOnce(time.Millisecond, reports, fetched, fetchedAt)
	if m.pollSkipped.Load() != 1 {
		t.Fatalf("stale slot still skipped (poll_skipped=%d)", m.pollSkipped.Load())
	}
}

// A master reads its own load column in process: a lone master's
// poller hands nothing to net/http, so across poll rounds the edge
// counts no hand-off (a /load GET to itself would be one), and the
// column is stamped by every round.
func TestPollReadsOwnLoadInProcess(t *testing.T) {
	m, err := LaunchMaster(NodeOptions{
		ID: 0, Masters: []int{0}, NodeURLs: []string{""},
		Policy:      core.NewMS(nil, 1),
		TimeScale:   1e-6,
		LoadRefresh: 2 * time.Millisecond, PolicyTick: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for m.snap.Load().epoch < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d poll rounds in 5 s", m.snap.Load().epoch-1)
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.edgeHandoffs.Load(); got != 0 {
		t.Fatalf("%d hand-offs to net/http: the poller fetched its own /load", got)
	}
	if m.snap.Load().atNode[0] == 0 {
		t.Fatal("the master's own column was never sampled")
	}
	if m.pollSkipped.Load() != 0 {
		t.Fatalf("poll_skipped=%d: the master's own column counted as a skip", m.pollSkipped.Load())
	}
}

// A /load reply that parses but reports a load no node can have is a
// failed poll: the node's breaker opens and its view column keeps the
// last valid report instead of pricing the node at ~0 RSRC.
func TestPollRejectsOutOfRangeLoad(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", core.LoadWireContentType)
		io.WriteString(rw, "l1 1e300 1e300 0 0 1\n") //nolint:errcheck
	}))
	defer bad.Close()
	m := launchTestMaster(t, bad.URL)
	before := m.snap.Load().view.Load[1]

	reports := make([]core.Load, len(m.urls))
	fetched := make([]bool, len(m.urls))
	fetchedAt := make([]int64, len(m.urls))
	m.pollOnce(time.Hour, reports, fetched, fetchedAt)
	if fetched[1] || m.BreakerState(1) != breakerOpen {
		t.Fatalf("out-of-range report accepted: fetched=%v breaker state %d", fetched[1], m.BreakerState(1))
	}
	if got := m.snap.Load().view.Load[1]; got != before {
		t.Fatalf("view column %+v after the rejected poll, want %+v", got, before)
	}
}
