package chaos

import (
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
)

// without returns ids with one id removed (order preserved).
func without(ids []int, id int) []int {
	out := make([]int, 0, len(ids))
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// TestScaleEventInvariants is the churn acceptance test for the
// epoch-versioned membership plane: a sharded 8-node cluster (3 masters)
// survives a master crash, a scale-down and a scale-back-up — three
// membership epochs, one of them a rejoin — while closed-loop clients
// keep requesting against the surviving masters. Every admitted request
// must still reach exactly one terminal outcome, the survivors must
// converge on the same final epoch, and tearing the harness down must
// not leak goroutines, file descriptors or frame connections.
func TestScaleEventInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run takes a few seconds")
	}
	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs(t)

	cfg := httpcluster.Config{
		Nodes:        8,
		Masters:      3,
		Shards:       3,
		TimeScale:    1,
		Uncalibrated: true,
		LoadRefresh:  20 * time.Millisecond,
		PolicyTick:   60 * time.Millisecond,
		GossipEvery:  30 * time.Millisecond,
		MakePolicy:   func(id int) core.Policy { return core.NewMS(nil, int64(id)+1) },
		Resilience: httpcluster.Resilience{
			Breaker:         httpcluster.BreakerConfig{OpenFor: 200 * time.Millisecond},
			DispatchTimeout: 2 * time.Second,
			RetryBudget:     3,
			RetryBackoff:    2 * time.Millisecond,
			MaxQueue:        256,
		},
	}
	c, err := httpcluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	m0, m1, m2 := c.Masters[0], c.Masters[1], c.Masters[2]

	// waitEpoch blocks until every listed master has adopted at least
	// the wanted epoch — the convergence bound is one gossip round past
	// the announce, so seconds of budget is generous.
	waitEpoch := func(want uint64, masters ...*httpcluster.Master) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			all := true
			for _, m := range masters {
				if m.Epoch() < want {
					all = false
				}
			}
			if all {
				return
			}
			if time.Now().After(deadline) {
				for _, m := range masters {
					t.Logf("master %d at epoch %d", m.ID, m.Epoch())
				}
				t.Fatalf("masters never converged on epoch %d", want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Closed-loop clients hammer only the two masters that survive the
	// whole run, so every request has exactly one terminal outcome to
	// classify (the killed master's share of churn is the point of the
	// membership plane, not of the client accounting).
	var ok, shed, exhausted, unexpected atomic.Int64
	stop := make(chan struct{})
	targets := []string{m0.URL, m1.URL}
	var clients sync.WaitGroup
	for cl := 0; cl < 6; cl++ {
		clients.Add(1)
		go func(cl int) {
			defer clients.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := targets[cl%len(targets)] + "/req?class=d&demand=0.004&w=0.9&script=1"
				if i%4 == 0 {
					url = targets[cl%len(targets)] + "/req?class=s&demand=0.001&w=0.3&script=0"
				}
				resp, err := client.Get(url)
				if err != nil {
					unexpected.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()              //nolint:errcheck
				switch {
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					ok.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					shed.Add(1)
				case resp.StatusCode == http.StatusBadGateway:
					exhausted.Add(1)
				default:
					unexpected.Add(1)
				}
			}
		}(cl)
	}

	// Epoch 1 — crash: master 2 dies mid-run. The survivors' gossip
	// pulls go silent, the lowest live master declares it dead and
	// announces a rebalanced map over the remaining tier.
	time.Sleep(300 * time.Millisecond)
	m2.Shutdown()
	waitEpoch(1, m0, m1)
	if mb := m0.Membership(); len(mb.Masters) != 2 {
		t.Fatalf("epoch 1 masters = %v, want the two survivors", mb.Masters)
	}

	// Epoch 2 — scale-down: demote master 1 to the slave tier (what the
	// autoscaler announces when measured load stops justifying the
	// master). Its clients keep getting served — a demoted master falls
	// back to self-service.
	mb := m0.Membership()
	mb.Masters = without(mb.Masters, m1.ID)
	mb.Slaves = append(mb.Slaves, m1.ID)
	mb.Epoch++
	if err := m0.AnnounceMembership(mb); err != nil {
		t.Fatalf("demote announce: %v", err)
	}
	waitEpoch(2, m0, m1)

	// Epoch 3 — scale-back-up: the demoted master rejoins the tier. Its
	// gossip-miss history must not poison the rejoin.
	time.Sleep(200 * time.Millisecond)
	mb = m0.Membership()
	mb.Masters = append(mb.Masters, m1.ID)
	mb.Slaves = without(mb.Slaves, m1.ID)
	mb.Epoch++
	if err := m0.AnnounceMembership(mb); err != nil {
		t.Fatalf("re-promote announce: %v", err)
	}
	waitEpoch(3, m0, m1)

	// Let traffic settle on the final topology, then stop the clients.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	clients.Wait()

	var accepted, served, mShed, mExhausted int64
	for _, m := range c.Masters {
		accepted += m.Accepted()
		served += m.Served()
		mShed += m.Shed()
		mExhausted += m.Exhausted()
	}
	total := ok.Load() + shed.Load() + exhausted.Load()
	t.Logf("client: ok=%d shed=%d exhausted=%d unexpected=%d; server: accepted=%d served=%d shed=%d exhausted=%d; epochs: m0=%d m1=%d; rebalancing sheds: m0=%d m1=%d",
		ok.Load(), shed.Load(), exhausted.Load(), unexpected.Load(),
		accepted, served, mShed, mExhausted, m0.Epoch(), m1.Epoch(),
		m0.ShedRebalancing(), m1.ShedRebalancing())

	if n := unexpected.Load(); n != 0 {
		t.Errorf("%d requests hit a non-terminal outcome across the scale events", n)
	}
	if ok.Load() == 0 {
		t.Error("no request succeeded during the churn run")
	}
	// Terminal-outcome invariant across three epoch changes: nothing a
	// master admitted was double-counted or lost in a handoff.
	if accepted != served+mShed+mExhausted {
		t.Errorf("terminal outcomes leak: accepted=%d != served=%d + shed=%d + exhausted=%d",
			accepted, served, mShed, mExhausted)
	}
	if total != accepted {
		t.Errorf("client terminal outcomes %d != master accepted %d", total, accepted)
	}
	if ok.Load() != served || shed.Load() != mShed || exhausted.Load() != mExhausted {
		t.Errorf("client/server outcome mismatch: ok %d/%d shed %d/%d exhausted %d/%d",
			ok.Load(), served, shed.Load(), mShed, exhausted.Load(), mExhausted)
	}
	// Convergence: both survivors operate the same final map.
	if e0, e1 := m0.Epoch(), m1.Epoch(); e0 != e1 || e0 < 3 {
		t.Errorf("epochs diverged: m0=%d m1=%d, want equal and >= 3", e0, e1)
	}
	if fin := m0.Membership(); len(fin.Masters) != 2 || fin.Masters[0] != m0.ID || fin.Masters[1] != m1.ID {
		t.Errorf("final master tier %v, want [%d %d]", fin.Masters, m0.ID, m1.ID)
	}

	// Scale-down leak checks: the whole harness (including the master
	// killed mid-run and the demote/re-promote cycle) must unwind to the
	// baseline — goroutines, fds, and every node's hijacked frame conns.
	c.Shutdown()
	for _, m := range c.Masters {
		if n := m.FrameConns(); n != 0 {
			t.Errorf("master %d still tracks %d frame conns after shutdown", m.ID, n)
		}
	}
	for _, s := range c.Slaves {
		if n := s.FrameConns(); n != 0 {
			t.Errorf("slave %d still tracks %d frame conns after shutdown", s.ID, n)
		}
	}
	checkNoLeaks(t, goroutinesBefore, fdsBefore)
}
