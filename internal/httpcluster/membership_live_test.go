package httpcluster

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"msweb/internal/core"
)

// postMembershipLine POSTs an m1 line to a master's /membership and
// returns the response.
func postMembershipLine(t *testing.T, m *Master, mb core.Membership) *http.Response {
	t.Helper()
	wire := mb.AppendWire(nil)
	resp, err := http.Post(m.URL+MembershipPath, core.MembershipWireContentType,
		strings.NewReader(string(wire)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The membership endpoint round-trips the epoch-versioned topology:
// GET serves the current m1 line, POST folds one in newest-wins (204 on
// adoption, 200 + the newer current line otherwise), and unsharded
// masters answer 404 like /shard.
func TestMembershipEndpoint(t *testing.T) {
	m := launchShardedTestMaster(t, Resilience{DisableShedding: true},
		"http://192.0.2.1:1", "http://192.0.2.1:2")

	resp, body := getStatus(t, m.URL+MembershipPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /membership: status %d", resp.StatusCode)
	}
	var mb core.Membership
	if err := core.ParseMembership([]byte(body), &mb); err != nil {
		t.Fatalf("GET body %q: %v", body, err)
	}
	if mb.Epoch != 0 || len(mb.Masters) != 2 || len(mb.Slaves) != 2 {
		t.Fatalf("initial membership %+v, want epoch 0 with 2 masters / 2 slaves", mb)
	}

	// A newer epoch is adopted: 204, and the master's map moves.
	next := mb.Clone()
	next.Epoch = 1
	next.Masters = []int{0}
	next.Slaves = []int{1, 2, 3}
	if resp := postMembershipLine(t, m, next); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST newer membership: status %d, want 204", resp.StatusCode)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("epoch %d after adopting epoch-1 membership, want 1", got)
	}
	if applies := m.memberApplies.Load(); applies != 1 {
		t.Fatalf("memberApplies %d, want 1", applies)
	}

	// Replays and stale lines are refused with the current (newer) line,
	// so a lagging sender converges from the response.
	stale := postMembershipLine(t, m, mb) // epoch 0 again
	if stale.StatusCode != http.StatusOK {
		t.Fatalf("POST stale membership: status %d, want 200", stale.StatusCode)
	}
	b := make([]byte, 256)
	n, _ := stale.Body.Read(b)
	var cur core.Membership
	if err := core.ParseMembership(b[:n], &cur); err != nil || cur.Epoch != 1 {
		t.Fatalf("stale POST answered %q (err %v), want the epoch-1 line", b[:n], err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("epoch moved to %d on a stale POST, want to stay at 1", got)
	}

	// Unsharded masters have no membership to exchange.
	um := launchTestMaster(t, Resilience{DisableShedding: true}, "http://192.0.2.1:1")
	if resp, _ := getStatus(t, um.URL+MembershipPath, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsharded GET /membership: status %d, want 404", resp.StatusCode)
	}
}

// Adopting a membership rebalances the whole derived topology in one
// swap: shard map, poll set, view tier lists, and the own-shard stamp
// all reflect the new epoch immediately — no poll round in between. A
// master dropped from the tier demotes cleanly: it stops advertising a
// shard (404 on /shard) and schedules only onto itself.
func TestApplyMembershipRebalanceAndDemotion(t *testing.T) {
	m := launchShardedTestMaster(t, Resilience{DisableShedding: true},
		"http://192.0.2.1:1", "http://192.0.2.1:2")

	// Peer master 1 leaves: master 0 absorbs every slave.
	applied, err := m.ApplyMembership(core.Membership{
		Epoch: 1, Mode: core.ShardStatic, Masters: []int{0}, Slaves: []int{2, 3},
	})
	if err != nil || !applied {
		t.Fatalf("apply: applied=%v err=%v", applied, err)
	}
	ms := m.mem.Load()
	if ms.shard != 0 || len(ms.slaves) != 2 {
		t.Fatalf("memState shard=%d slaves=%v, want shard 0 owning both slaves", ms.shard, ms.slaves)
	}
	snap := m.snap.Load()
	if len(snap.view.Slaves) != 2 {
		t.Fatalf("snapshot slaves %v published on apply, want both", snap.view.Slaves)
	}
	if until := m.rebalanceUntil.Load(); until <= time.Now().Add(-time.Second).UnixNano() {
		t.Fatalf("rebalance window not opened (until=%d)", until)
	}
	// The refreshed stamp carries the new epoch (an s2 line now).
	resp, body := getStatus(t, m.URL+"/shard", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /shard: status %d", resp.StatusCode)
	}
	var sum core.ShardSummary
	if err := core.ParseShardSummary([]byte(body), &sum); err != nil {
		t.Fatalf("shard body %q: %v", body, err)
	}
	if sum.Epoch != 1 || sum.Nodes != 2 {
		t.Fatalf("own summary %+v after rebalance, want epoch 1 over 2 nodes", sum)
	}

	// Now master 0 itself is demoted out of the tier.
	applied, err = m.ApplyMembership(core.Membership{
		Epoch: 2, Mode: core.ShardStatic, Masters: []int{1}, Slaves: []int{0, 2, 3},
	})
	if err != nil || !applied {
		t.Fatalf("demoting apply: applied=%v err=%v", applied, err)
	}
	ms = m.mem.Load()
	if ms.shard != -1 {
		t.Fatalf("demoted master still owns shard %d", ms.shard)
	}
	if len(ms.pollSet) != 1 || ms.pollSet[0] != 0 {
		t.Fatalf("demoted poll set %v, want just itself", ms.pollSet)
	}
	if resp, _ := getStatus(t, m.URL+"/shard", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("demoted GET /shard: status %d, want 404", resp.StatusCode)
	}
	// Demoted ≠ dead: it still serves requests, locally.
	if resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("demoted /req: status %d, want 200 (local execution)", resp.StatusCode)
	}
}

// Summary ordering across epochs is (epoch, AtNs) with epoch dominant:
// a pre-rebalance summary — however fresh its owner clock stamp — must
// never overwrite a post-rebalance one, and anything two epochs behind
// the local map is dropped outright. This pins the stale-wire hazard
// the epoch field exists for: an epoch-0 line re-delivered after the
// tier moved on.
func TestSummaryNewestWinsAcrossEpochs(t *testing.T) {
	m := launchShardedTestMaster(t, Resilience{DisableShedding: true},
		"http://192.0.2.1:1", "http://192.0.2.1:2")

	now := time.Now().UnixNano()
	m.storeShardSummary(&core.ShardSummary{
		Shard: 1, Epoch: 1, AtNs: now, Nodes: 1,
		Top: []core.ShardDigest{{Node: 3, Load: core.Load{CPUIdle: 0.5, DiskAvail: 0.5, Speed: 1}}},
	})

	// An epoch-0 copy stamped *later* loses: epoch dominates AtNs.
	stale0 := core.ShardSummary{
		Shard: 1, Epoch: 0, AtNs: now + int64(time.Hour), Nodes: 9,
		Top: []core.ShardDigest{{Node: 2, Load: core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}}},
	}
	m.storeShardSummary(&stale0)
	slot := &m.shardSums[1]
	slot.mu.Lock()
	epoch, nodes := slot.sum.Epoch, slot.sum.Nodes
	slot.mu.Unlock()
	if epoch != 1 || nodes != 1 {
		t.Fatalf("slot holds epoch=%d nodes=%d after stale epoch-0 replay, want the epoch-1 summary", epoch, nodes)
	}

	// The wire path enforces the same rule: a piggybacked epoch-0 line
	// cannot clobber the held epoch-1 state.
	m.storeShardSummaryWire(stale0.AppendWire(nil))
	slot.mu.Lock()
	epoch = slot.sum.Epoch
	slot.mu.Unlock()
	if epoch != 1 {
		t.Fatalf("piggybacked stale epoch-0 line overwrote the epoch-1 summary (epoch now %d)", epoch)
	}

	// Two epochs behind the local map: dropped before the slot is even
	// consulted — outside the dual-epoch handoff window.
	if _, err := m.ApplyMembership(core.Membership{
		Epoch: 2, Mode: core.ShardStatic, Masters: []int{0, 1}, Slaves: []int{2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	rxBefore := m.gossipRx.Load()
	m.storeShardSummary(&stale0) // epoch 0 vs local epoch 2
	if rx := m.gossipRx.Load(); rx != rxBefore {
		t.Fatalf("summary two epochs behind was folded in (rx %d→%d), want dropped", rxBefore, rx)
	}
}

// Sheds inside the post-rebalance handoff window are attributed to the
// rebalance, not steady-state overload: the distinct counter moves, the
// Retry-After hint derives from the window's remainder, and /metrics
// splits the shed family by reason.
func TestRebalancingShedReason(t *testing.T) {
	m := launchShardedTestMaster(t, Resilience{}, "http://192.0.2.1:1", "http://192.0.2.1:2")
	// Saturate the local shard so dynamics shed (no fresh remote summary
	// → no spill either), then open a handoff window.
	m.brk.open(&m.brk.slots[2], time.Now().UnixNano())
	windowEnd := time.Now().Add(30 * time.Second)
	m.rebalanceUntil.Store(windowEnd.UnixNano())

	sawShed := false
	var retryAfter int
	for i := 0; i < 5 && !sawShed; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawShed = true
			retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
		}
	}
	if !sawShed {
		t.Fatal("no shed with the local shard saturated")
	}
	if m.ShedRebalancing() == 0 {
		t.Fatal("shed inside the handoff window not counted as rebalancing")
	}
	// The hint tracks the handoff's expected completion (~30 s), not the
	// breaker hold-down (~1 s).
	if retryAfter < 5 || retryAfter > 31 {
		t.Fatalf("Retry-After %d during a 30s handoff window, want the window remainder", retryAfter)
	}

	_, metrics := getStatus(t, m.URL+"/metrics", nil)
	if !strings.Contains(metrics, `msweb_master_shed_total{node="0",reason="rebalancing"} `+
		strconv.FormatInt(m.ShedRebalancing(), 10)) {
		t.Fatalf("metrics missing the rebalancing shed series:\n%s", metrics)
	}
	if !strings.Contains(metrics, `msweb_master_epoch{node="0"}`) {
		t.Fatalf("metrics missing the epoch gauge:\n%s", metrics)
	}

	// Outside the window the same shed books as plain overload.
	m.rebalanceUntil.Store(time.Now().Add(-time.Second).UnixNano())
	before := m.ShedRebalancing()
	for i := 0; i < 5; i++ {
		resp, _ := getStatus(t, m.URL+"/req?class=d&demand=0&w=0.5", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
	}
	if got := m.ShedRebalancing(); got != before {
		t.Fatalf("shed outside the window still counted as rebalancing (%d→%d)", before, got)
	}
}

// Gossip silence is the failure detector: once a peer owner misses
// three consecutive /shard pulls, the lowest-id surviving master bumps
// the epoch and adopts the dead peer's shard — no coordinator, no
// election, just the deterministic initiator rule.
func TestDetectDeadMasterAdoptsShard(t *testing.T) {
	// Peer master 1 is a real listener that dies immediately: dials fail
	// fast, so gossip rounds record misses instead of timing out.
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	m := launchShardedTestMaster(t, Resilience{DisableShedding: true},
		"http://192.0.2.1:1", "http://192.0.2.1:2")
	m.SetNodeURL(1, deadURL)

	for i := 0; i < gossipMissThreshold; i++ {
		m.gossipOnce(50 * time.Millisecond)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("epoch %d after %d silent gossip rounds, want 1 (dead peer removed)", got, gossipMissThreshold)
	}
	mb := m.Membership()
	if len(mb.Masters) != 1 || mb.Masters[0] != 0 {
		t.Fatalf("membership masters %v after failover, want just the survivor", mb.Masters)
	}
	ms := m.mem.Load()
	if len(ms.slaves) != 2 {
		t.Fatalf("survivor owns %v, want both slaves after adopting the dead peer's shard", ms.slaves)
	}
	if m.rebalanceUntil.Load() == 0 {
		t.Fatal("failover did not open a handoff window")
	}
}

// The tier-resize planner: promotions take the lowest master-capable
// slaves, demotions return the highest masters to the slave tier, and
// illegal moves (no capable slave, last master) degrade to no-ops.
func TestNextTierPlan(t *testing.T) {
	m := launchShardedTestMaster(t, Resilience{DisableShedding: true},
		"http://192.0.2.1:1", "http://192.0.2.1:2")
	m.masterCapable[2] = true // slave 2 was launched master-capable
	ms := m.mem.Load()

	grow := m.nextTierPlan(ms, 3)
	if grow == nil || len(grow.Masters) != 3 || grow.Epoch != 1 {
		t.Fatalf("grow plan %+v, want 3 masters at epoch 1", grow)
	}
	if grow.MasterIndex(2) < 0 {
		t.Fatalf("grow plan %+v skipped the capable slave", grow)
	}

	shrink := m.nextTierPlan(ms, 1)
	if shrink == nil || len(shrink.Masters) != 1 || shrink.MasterIndex(0) < 0 {
		t.Fatalf("shrink plan %+v, want master 0 alone", shrink)
	}
	if !shrink.HasSlave(1) {
		t.Fatalf("shrink plan %+v did not return the demoted master to the slave tier", shrink)
	}

	// Growing beyond the capable pool stalls at what's legal (slave 3 is
	// not capable), and a no-op target returns nil.
	if p := m.nextTierPlan(ms, 4); p == nil || len(p.Masters) != 3 {
		t.Fatalf("over-grow plan %+v, want to stall at 3 masters", p)
	}
	if p := m.nextTierPlan(ms, 2); p != nil {
		t.Fatalf("same-size plan %+v, want nil", p)
	}
}
