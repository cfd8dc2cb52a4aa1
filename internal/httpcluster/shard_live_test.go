package httpcluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/core"
)

// A piggybacked report that arrives mid-poll-round — older than the
// round's publish stamp, newer than the node's actual sample — must
// survive the epoch move. Flooring the overlay at the snapshot publish
// time (the reordered-report race this regression pins) would silently
// drop such a report on every round.
func TestPiggybackSurvivesEpochMove(t *testing.T) {
	m := launchTestMaster(t, Resilience{DisableShedding: true}, "http://192.0.2.1:1")

	piggyLoad := core.Load{CPUIdle: 0.25, DiskAvail: 0.5, CPUQueue: 3, Speed: 1}
	m.storePiggy(1, piggyLoad)
	_, receipt := m.peekPiggy(1)

	// Simulate the race: the poller sampled node 1 *before* the piggyback
	// arrived, then published *after* it.
	polled := core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
	publish := func(sampleAt int64) {
		prev := m.snap.Load()
		view := prev.view
		view.Load = append([]core.Load(nil), prev.view.Load...)
		view.Load[1] = polled
		atNode := make([]int64, len(view.Load))
		atNode[1] = sampleAt
		m.snap.Store(&loadSnapshot{
			epoch:  prev.epoch + 1,
			at:     time.Now().UnixNano(),
			atNode: atNode,
			view:   view,
		})
	}
	publish(receipt - 1)

	m.placeMu.Lock()
	m.refreshWorkView()
	got := m.workView.Load[1]
	m.placeMu.Unlock()
	if got != piggyLoad {
		t.Fatalf("working view %+v after epoch move, want the fresher piggybacked %+v", got, piggyLoad)
	}

	// Newest-wins cuts the other way too: when the poll sample is fresher
	// than the stored report, the epoch move keeps the polled column.
	publish(receipt + 1)
	m.placeMu.Lock()
	m.refreshWorkView()
	got = m.workView.Load[1]
	m.placeMu.Unlock()
	if got != polled {
		t.Fatalf("working view %+v, want the fresher polled %+v over the stale report", got, polled)
	}
}

// The staleness gauge tracks report receipt: -1 before any report, then
// the age of the last one — so delayed reports surface as growing age,
// not as a silently frozen view.
func TestStalenessGaugeUnderDelayedReports(t *testing.T) {
	m := launchTestMaster(t, Resilience{DisableShedding: true}, "http://192.0.2.1:1")

	now := time.Now().UnixNano()
	if age := m.fresh.AgeSeconds(1, now); age != -1 {
		t.Fatalf("age %v before any report, want -1", age)
	}
	m.storePiggy(1, core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1})
	stamp := m.fresh.Stamp(1)
	if stamp == 0 {
		t.Fatal("freshness stamp not touched by the report")
	}
	if age := m.fresh.AgeSeconds(1, stamp); age != 0 {
		t.Fatalf("age %v at receipt instant, want 0", age)
	}
	// No further reports for (a simulated) 7 s: the gauge must say so.
	if age := m.fresh.AgeSeconds(1, stamp+7e9); age != 7 {
		t.Fatalf("age %v after a 7s report gap, want 7", age)
	}
}

// launchShardedTestMaster wires master 0 of a two-shard pair: shard 0
// (its own) holds slave 2, shard 1 holds slave 3, partitioned statically
// so the test controls who owns what. Master 1 is a placeholder peer
// (never launched).
func launchShardedTestMaster(t *testing.T, rs Resilience, slave2URL, slave3URL string) *Master {
	t.Helper()
	m, err := LaunchMaster(NodeOptions{
		ID:           0,
		TimeScale:    1e-6,
		Masters:      []int{0, 1},
		Slaves:       []int{2, 3},
		NodeURLs:     []string{"", "", slave2URL, slave3URL},
		Policy:       core.NewMS(nil, 1),
		LoadRefresh:  time.Hour,
		PolicyTick:   time.Hour,
		Shards:       2,
		ShardMapMode: core.ShardStatic,
		Resilience:   rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
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
	// Own shard's slave 2 and remote shard's slave 3 both refuse.
	m := launchShardedTestMaster(t, Resilience{}, bad.URL, bad.URL)

	// The local shard is saturated: its only slave's circuit is open.
	now := time.Now().UnixNano()
	m.brk.open(&m.brk.slots[2], now)
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
	// (attempted=false → 503), exactly like all-breakers-open locally.
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

// With no fresh remote summary at all, a sharded master's shed is
// indistinguishable from the unsharded one: straight 503, no spill
// attempt, nothing counted against placement quality.
func TestSpillSkippedWithoutFreshSummary(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(hijackClose))
	defer bad.Close()
	m := launchShardedTestMaster(t, Resilience{}, bad.URL, bad.URL)
	m.brk.open(&m.brk.slots[2], time.Now().UnixNano())

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
