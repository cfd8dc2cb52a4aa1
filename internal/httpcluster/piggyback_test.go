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
// the frame reply's piggybacked report lands in the report table and
// the working view, and its stamp moves — strictly fresher than the
// poll-only baseline, which would never update at all here.
func TestPiggybackRefreshesView(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	m := launchTestMaster(t, n.URL)

	if _, at := m.report(1); at != 0 {
		t.Fatal("report stamp set before any traffic or poll")
	}
	before := time.Now().UnixNano()
	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if m.piggyTotal.Load() == 0 {
		t.Fatal("no piggybacked report received")
	}
	l, at := m.report(1)
	if at < before {
		t.Fatalf("report stamp %d not advanced past %d", at, before)
	}
	// The report must be visible to placement without any poll round.
	m.placeMu.Lock()
	m.refreshWorkView(nil)
	got := m.workView.Load[1]
	m.placeMu.Unlock()
	if got != l {
		t.Fatalf("working view load %+v, want piggybacked %+v", got, l)
	}
}

// A poll round skips nodes whose latest report is a piggyback younger
// than the poll interval, and counts the skips; a report the poller
// itself wrote is never a reason to skip.
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
	_, piggyAt := m.report(1)
	m.pollOnce(time.Hour)
	if m.pollSkipped.Load() != 1 {
		t.Fatalf("poll_skipped=%d, want 1", m.pollSkipped.Load())
	}
	if _, at := m.report(1); at != piggyAt {
		t.Fatal("skipped node's piggybacked report replaced during the skipped round")
	}
	if n.Executed() != polled {
		t.Fatal("slave saw extra traffic during the skipped poll round")
	}

	// Age the slot past the interval: the next round must really poll.
	m.reports[1].mu.Lock()
	m.reports[1].at -= int64(2 * time.Millisecond)
	m.reports[1].mu.Unlock()
	m.pollOnce(time.Millisecond)
	if m.pollSkipped.Load() != 1 {
		t.Fatalf("stale slot still skipped (poll_skipped=%d)", m.pollSkipped.Load())
	}
	if _, at := m.report(1); at <= piggyAt {
		t.Fatal("the real poll's report did not land in the table")
	}
	// The table now holds the poll's own fresh report: the next round
	// polls again rather than skipping.
	m.pollOnce(time.Hour)
	if m.pollSkipped.Load() != 1 {
		t.Fatalf("a polled report counted as a piggyback (poll_skipped=%d)", m.pollSkipped.Load())
	}
}

// A master reads its own load column in process: a lone master's
// poller hands nothing to net/http, so across poll rounds the edge
// counts no hand-off (a /load GET to itself would be one), and the
// column's stamp follows the node's own samples round after round.
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
	var last int64
	for stamps := 0; stamps < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("the own column took only %d samples in 5 s", stamps)
		}
		if _, at := m.report(0); at != last {
			last = at
			stamps++
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.edgeHandoffs.Load(); got != 0 {
		t.Fatalf("%d hand-offs to net/http: the poller fetched its own /load", got)
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
	before, _ := m.report(1)

	m.pollOnce(time.Hour)
	if _, at := m.report(1); at != 0 || m.BreakerState(1) != breakerOpen {
		t.Fatalf("out-of-range report accepted: stamp=%d breaker state %d", at, m.BreakerState(1))
	}
	if got, _ := m.report(1); got != before {
		t.Fatalf("view column %+v after the rejected poll, want %+v", got, before)
	}
}

// Polls and piggybacks write one table and the newest receipt wins,
// whichever channel writes last: a piggyback that lands while a fetch
// is in flight loses to the fetch's later receipt, a piggyback after
// the fetch replaces it, and a poll sampled before a piggyback but
// written after it (a reordered write) leaves the piggyback in place.
func TestReportNewestReceiptWins(t *testing.T) {
	piggy := core.Load{CPUIdle: 0.25, DiskAvail: 0.5, CPUQueue: 3, Speed: 1}
	polled := core.Load{CPUIdle: 0.75, DiskAvail: 1, Speed: 1}
	var m *Master
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		m.storePiggy(1, piggy) // arrives mid-fetch
		rw.Header().Set("Content-Type", core.LoadWireContentType)
		rw.Write(polled.AppendWire(nil)) //nolint:errcheck
	}))
	defer srv.Close()
	m = launchTestMaster(t, srv.URL)
	// check asserts that the table and the working view both hold want.
	check := func(want core.Load, why string) {
		t.Helper()
		m.placeMu.Lock()
		m.refreshWorkView(nil)
		inView := m.workView.Load[1]
		m.placeMu.Unlock()
		if inTable, _ := m.report(1); inTable != want || inView != want {
			t.Fatalf("table %+v, working view %+v; want %+v, %s", inTable, inView, want, why)
		}
	}

	m.pollOnce(time.Hour)
	check(polled, "the poll received after the mid-fetch piggyback")
	m.storePiggy(1, piggy)
	check(piggy, "the piggyback received after the poll")
	_, receipt := m.report(1)
	m.storeReport(1, polled, receipt-1, true)
	check(piggy, "the newer piggyback over a reordered older poll")
}

// A booking charge stays on a node's column until that node's next
// report arrives: a poll round resets the charges of the nodes it
// brings a report for, and only theirs.
func TestBookingChargeSurvivesUntilItsNodeReports(t *testing.T) {
	idle := core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", core.LoadWireContentType)
		rw.Write(idle.AppendWire(nil)) //nolint:errcheck
	}))
	defer srv.Close()
	m := launchTestMaster(t, srv.URL, srv.URL)
	// Node 2's latest report is a fresh piggyback, so the round skips it.
	m.storePiggy(2, idle)

	m.placeMu.Lock()
	m.refreshWorkView(nil)
	for _, id := range []int{1, 2} {
		m.workView.Load[id].CPUIdle = 0.5 // a booking charge, as placement books it
	}
	m.placeMu.Unlock()

	m.pollOnce(time.Hour)
	m.placeMu.Lock()
	m.refreshWorkView(nil)
	got1, got2 := m.workView.Load[1].CPUIdle, m.workView.Load[2].CPUIdle
	m.placeMu.Unlock()
	if got1 != 1 {
		t.Fatalf("node 1 CPUIdle %v after its poll, want the report's 1", got1)
	}
	if got2 != 0.5 {
		t.Fatalf("node 2 CPUIdle %v: a round that brought it no report dropped its charge", got2)
	}
}
