package httpcluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// The staleness gauge tracks report receipt: -1 before any report, then
// the age of the last one — so delayed reports surface as growing age,
// not as a silently frozen view.
func TestStalenessGaugeUnderDelayedReports(t *testing.T) {
	m := launchTestMaster(t, "http://192.0.2.1:1")

	now := time.Now().UnixNano()
	if age := m.reportAge(1, now); age != -1 {
		t.Fatalf("age %v before any report, want -1", age)
	}
	m.storePiggy(1, core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1})
	_, stamp := m.report(1)
	if stamp == 0 {
		t.Fatal("report stamp not set by the report")
	}
	if age := m.reportAge(1, stamp); age != 0 {
		t.Fatalf("age %v at receipt instant, want 0", age)
	}
	// No further reports for (a simulated) 7 s: the gauge must say so.
	if age := m.reportAge(1, stamp+7e9); age != 7 {
		t.Fatalf("age %v after a 7s report gap, want 7", age)
	}
}

// The summary-age gauge reads the age of the copy a master holds: a
// strictly older copy (same epoch, smaller AtNs) loses newest-wins and
// leaves the gauge where it was, ageing with the held copy that spill
// reads.
func TestSummaryAgeGaugeReadsHeldCopy(t *testing.T) {
	m := launchShardedTestMaster(t, core.NewMS(nil, 1), "http://192.0.2.1:1", "http://192.0.2.1:2")
	now := time.Now().UnixNano()
	m.storeShardSummary(&core.ShardSummary{Shard: 1, AtNs: now, Nodes: 1})
	slot := &m.shardSums[1]
	slot.mu.Lock()
	slot.at -= int64(5 * time.Second) // the held copy landed 5 s ago
	slot.mu.Unlock()

	m.storeShardSummary(&core.ShardSummary{Shard: 1, AtNs: now - 1, Nodes: 9})
	const series = `msweb_master_shard_summary_age_seconds{shard="1"} `
	var age float64 = -1
	for _, line := range strings.Split(scrape(t, m.URL), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			age, _ = strconv.ParseFloat(v, 64)
		}
	}
	if age < 5 {
		t.Fatalf("summary age %v s after a losing older copy, want the held copy's ≥ 5 s", age)
	}
}

// launchShardedTestMaster wires master 0 of a two-shard pair: shard 0
// (its own) holds slave 4, shard 1 holds slave 3 — the IDs are chosen so
// the hash ring splits them one per shard, and the helper checks that it
// did. Master 1 is a placeholder peer (never launched); node 2 is unused.
func launchShardedTestMaster(t *testing.T, pol core.Policy, ownURL, remoteURL string) *Master {
	t.Helper()
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0, 1},
		Slaves:      []int{3, 4},
		NodeURLs:    []string{"", "", "", remoteURL, ownURL},
		Policy:      pol,
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	if ms := m.mem.Load(); len(ms.slaves) != 1 || ms.slaves[0] != 4 {
		t.Fatalf("own shard holds %v, want just slave 4", ms.slaves)
	}
	return m
}

// freshRemoteSummary plants a just-stamped shard-1 summary advertising
// node 3 as an idle spill candidate.
func freshRemoteSummary(m *Master) {
	m.storeShardSummary(&core.ShardSummary{
		Shard: 1, AtNs: time.Now().UnixNano(), Nodes: 1,
		CPUIdle: 1, DiskAvail: 1, Idle: 1,
		Top: []core.ShardDigest{{Node: 3, Load: core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}}},
	})
}

// A cross-shard spill whose remote candidate fails (and whose breaker
// then opens) must end in the same terminal taxonomy local dispatch
// produces — 503 shed, never a hang or a stray 5xx class — including
// when the request arrives over the binary frame transport.
func TestSpillBreakerTaxonomyOverFrames(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(hijackClose))
	defer bad.Close()
	// Own shard's slave 4 and remote shard's slave 3 both refuse.
	m := launchShardedTestMaster(t, core.NewMS(nil, 1), bad.URL, bad.URL)

	// The local shard is saturated: its only slave's circuit is open.
	now := time.Now().UnixNano()
	m.brk.open(&m.brk.slots[4], now)
	freshRemoteSummary(m)

	fc, err := DialFrame(m.URL, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	sawShed := false
	for i := 0; i < 5 && !sawShed; i++ {
		sts, err := fc.Do([]FrameRequest{{Demand: 0, W: 0.5, Dynamic: true, Idem: true}},
			time.Now().Add(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		switch sts[0] {
		case http.StatusOK:
			// The reservation admitted this one at the master; keep driving.
		case http.StatusServiceUnavailable:
			sawShed = true
		default:
			t.Fatalf("frame status %d, want 200 or 503 — spill must keep local dispatch's taxonomy", sts[0])
		}
	}
	if !sawShed {
		t.Fatal("no dynamic was shed with the local shard saturated and the remote candidate failing")
	}
	// The failed spill attempt was a real dispatch: it tripped node 3's
	// breaker and was counted, so the *next* shed skipped the remote
	// (no candidate left → 503), exactly like all-breakers-open locally.
	if m.quality.SpillFailed.Load() == 0 {
		t.Fatal("spill failure not counted")
	}
	if m.BreakerState(3) != breakerOpen {
		t.Fatalf("breaker state %d for the failed spill target, want open", m.BreakerState(3))
	}
	if m.Shed() == 0 {
		t.Fatal("shed counter did not move")
	}
	if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
		t.Fatalf("accepted=%d served=%d shed=%d exhausted=%d: outcomes do not add up",
			m.Accepted(), m.Served(), m.Shed(), m.Exhausted())
	}

	// And the HTTP path agrees: same saturation, same 503 + Retry-After.
	sawShed = false
	for i := 0; i < 5 && !sawShed; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawShed = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("shed response missing Retry-After")
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 or 503", resp.StatusCode)
		}
	}
	if !sawShed {
		t.Fatal("HTTP path never shed under the same saturation")
	}
}

// denyAll is an admission stage that never admits a dynamic at a
// master, so a master whose own-shard breakers are all open sheds — and
// spills — every dynamic.
type denyAll struct{}

func (denyAll) Name() string                                    { return "deny" }
func (denyAll) ObserveArrival(trace.Class)                      {}
func (denyAll) AdmitAtMaster() bool                             { return false }
func (denyAll) CountPlacement(bool)                             {}
func (denyAll) ObserveCompletion(trace.Class, float64, float64) {}
func (denyAll) Tick(int, int)                                   {}

// firstCandidate routes to the first candidate, so a spill tries the
// remote digests in the order their summary lists them.
type firstCandidate struct{}

func (firstCandidate) Name() string { return "first" }
func (firstCandidate) Route(_ core.Request, _ float64, cands []int, _ *core.View) (int, float64) {
	return cands[0], 0
}

// A spill whose first remote candidate refuses retries on the next one,
// and counts that second attempt in Retries() as a local failover does:
// the benchmark's "nothing executed twice" check trusts Retries() to be
// 0 only when no request was dispatched twice.
func TestSpillRetryCounted(t *testing.T) {
	refuses := newFakeFrameSlave(t, frameReply{status: http.StatusInternalServerError})
	good := newFakeFrameSlave(t, frameReply{status: http.StatusOK})
	slaves := []int{2, 3, 4, 5, 6, 7, 8, 9}
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		TimeScale:   1e-6,
		Masters:     []int{0, 1},
		Slaves:      slaves,
		NodeURLs:    make([]string, 10),
		Policy:      core.NewPipeline(core.PipelineConfig{Admission: denyAll{}, Routing: firstCandidate{}}),
		LoadRefresh: time.Hour,
		PolicyTick:  time.Hour,
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	ms := m.mem.Load()
	var remote []int
	for _, id := range slaves {
		if ms.sm.ShardOf(id) == 1 {
			remote = append(remote, id)
		}
	}
	if len(ms.slaves) == 0 || len(remote) < 2 {
		t.Fatalf("shards hold %v and %v, want both non-empty and two remote slaves", ms.slaves, remote)
	}
	now := time.Now().UnixNano()
	for _, id := range ms.slaves {
		m.brk.open(&m.brk.slots[id], now)
	}
	m.SetNodeURL(remote[0], refuses.URL)
	m.SetNodeURL(remote[1], good.URL)
	idle := core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	m.storeShardSummary(&core.ShardSummary{
		Shard: 1, AtNs: now, Nodes: 2, CPUIdle: 1, DiskAvail: 1, Idle: 2,
		Top: []core.ShardDigest{{Node: remote[0], Load: idle}, {Node: remote[1], Load: idle}},
	})

	resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the second remote candidate", resp.StatusCode)
	}
	if refuses.hits.Load() != 1 || good.hits.Load() != 1 {
		t.Fatalf("frames read %d/%d, want one each", refuses.hits.Load(), good.hits.Load())
	}
	if m.Retries() != 1 || m.Failovers() != 1 {
		t.Fatalf("retries=%d failovers=%d, want 1/1", m.Retries(), m.Failovers())
	}
	if m.quality.Spilled.Load() != 1 || m.quality.SpillFailed.Load() != 1 {
		t.Fatalf("spilled=%d spill_failures=%d, want 1/1", m.quality.Spilled.Load(), m.quality.SpillFailed.Load())
	}
}

// With no fresh remote summary at all, a sharded master's shed is
// indistinguishable from the unsharded one: straight 503, no spill
// attempt, nothing counted against placement quality.
func TestSpillSkippedWithoutFreshSummary(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(hijackClose))
	defer bad.Close()
	m := launchShardedTestMaster(t, core.NewMS(nil, 1), bad.URL, bad.URL)
	m.brk.open(&m.brk.slots[4], time.Now().UnixNano())

	sawShed := false
	for i := 0; i < 5 && !sawShed; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no shed with the local shard saturated")
	}
	if got := m.quality.Spilled.Load(); got != 0 {
		t.Fatalf("spilled=%d without any remote summary, want 0", got)
	}
	if m.quality.SpillFailed.Load() != 0 {
		t.Fatalf("spill_failures=%d without any dispatch attempt, want 0", m.quality.SpillFailed.Load())
	}
}

// Sharded smoke: a 4-master loopback cluster in fast mode, partitioned
// 4 ways, serves a mixed static/dynamic burst on every master with zero
// 5xx — the CI gate for the sharded control plane under -race. Masters
// dispatch to slaves over frames in both cases; the first sends client
// requests as HTTP GET /req, the second scales to 128 slaves and sends
// them as 'Q' frames.
func TestShardedClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("68- and 132-server smoke clusters")
	}
	for _, tc := range []struct {
		name   string
		nodes  int
		frames bool
	}{{"68-http", 68, false}, {"132-frames", 132, true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Start(Config{
				Nodes: tc.nodes, Masters: 4, Shards: 4,
				TimeScale:    1e-6,
				LoadRefresh:  20 * time.Millisecond,
				PolicyTick:   50 * time.Millisecond,
				GossipEvery:  40 * time.Millisecond,
				Uncalibrated: true,
				MakePolicy:   func(id int) core.Policy { return core.NewMS(nil, int64(id)+1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			urls := c.MasterURLs()

			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}, Timeout: 10 * time.Second}
			// send issues request i and returns its status.
			send := func(i int) (int, error) {
				base, dynamic := urls[i%len(urls)], i%2 == 1
				if tc.frames {
					fc, err := DialFrame(base, 10*time.Second)
					if err != nil {
						return 0, err
					}
					defer fc.Close()
					sts, err := fc.Do([]FrameRequest{{Demand: 0.0001, W: 0.5, Script: i % 10, Dynamic: dynamic, Idem: true}},
						time.Now().Add(10*time.Second))
					if err != nil {
						return 0, err
					}
					return sts[0], nil
				}
				cls := "s"
				if dynamic {
					cls = "d"
				}
				resp, err := client.Get(fmt.Sprintf("%s/req?class=%s&demand=0.0001&w=0.5&script=%d", base, cls, i%10))
				if err != nil {
					return 0, err
				}
				resp.Body.Close()
				return resp.StatusCode, nil
			}
			const reqs = 400
			var bad5xx, failed atomic.Int64
			var wg sync.WaitGroup
			sem := make(chan struct{}, 32)
			for i := 0; i < reqs; i++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					status, err := send(i)
					if err != nil {
						failed.Add(1)
						return
					}
					if status >= 500 {
						bad5xx.Add(1)
					}
				}(i)
			}
			wg.Wait()
			if n := failed.Load(); n != 0 {
				t.Fatalf("%d transport failures", n)
			}
			if n := bad5xx.Load(); n != 0 {
				t.Fatalf("%d responses ≥500, want zero under the sharded smoke", n)
			}

			// Every master stayed inside its shard: a healthy cluster never
			// spills, and the outcome accounting closes on each master.
			for _, m := range c.Masters {
				if m.Accepted() != m.Served()+m.Shed()+m.Exhausted() {
					t.Fatalf("master %d: accepted=%d served=%d shed=%d exhausted=%d",
						m.ID, m.Accepted(), m.Served(), m.Shed(), m.Exhausted())
				}
			}
		})
	}
}
