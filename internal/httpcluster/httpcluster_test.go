package httpcluster

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"msweb/internal/core"
)

func TestResourceDeliversService(t *testing.T) {
	r := NewResource(10*time.Millisecond, time.Now())
	start := time.Now()
	r.Use(30 * time.Millisecond)
	elapsed := time.Since(start)
	if elapsed < 28*time.Millisecond {
		t.Fatalf("30ms of service delivered in %v", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("idle resource took %v for 30ms of service", elapsed)
	}
}

func TestResourceSharesRoundRobin(t *testing.T) {
	r := NewResource(5*time.Millisecond, time.Now())
	var wg sync.WaitGroup
	times := make([]time.Duration, 2)
	start := time.Now()
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Use(40 * time.Millisecond)
			times[i] = time.Since(start)
		}()
	}
	wg.Wait()
	// Total service is 80 ms. Serial (FIFO) service would finish the
	// first job at half the second job's time; round robin keeps both
	// running until near the end. Sleep overshoot counts as delivered
	// service, so on a loaded machine absolute times wobble — the
	// first/last finisher ratio is the load-robust discriminator:
	// ~0.5 for FIFO, ~1.0 for RR.
	first, last := times[0], times[1]
	if first > last {
		first, last = last, first
	}
	if last < 40*time.Millisecond {
		t.Fatalf("jobs finished at %v and %v; 80 ms of combined service cannot take < 40 ms", times[0], times[1])
	}
	if ratio := float64(first) / float64(last); ratio < 0.55 {
		t.Fatalf("first/last finisher ratio %.2f (%v, %v); FIFO-like, want round robin", ratio, times[0], times[1])
	}
}

func TestResourceZeroAndClosed(t *testing.T) {
	r := NewResource(5*time.Millisecond, time.Now())
	r.Use(0)  // returns immediately
	r.Use(-1) // returns immediately
	r.Close()
	done := make(chan struct{})
	go func() { r.Use(time.Hour); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Use on closed resource blocked")
	}
}

func TestResourceIdleRatio(t *testing.T) {
	r := NewResource(5*time.Millisecond, time.Now())
	_ = r.IdleRatio() // reset window
	r.Use(50 * time.Millisecond)
	idle := r.IdleRatio()
	if idle > 0.6 {
		t.Fatalf("idle ratio %v after a busy window", idle)
	}
	time.Sleep(50 * time.Millisecond)
	if idle := r.IdleRatio(); idle < 0.6 {
		t.Fatalf("idle ratio %v after an idle window", idle)
	}
}

func TestNodeExecEndpoint(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	start := time.Now()
	resp, err := http.Get(n.URL + "/exec?w=0.5&demand=0.03&fork=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// 30 ms demand + 3 ms fork.
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Fatalf("exec returned in %v, want ≥ 33ms", e)
	}
	if n.Executed() != 1 || n.CGIServed() != 1 {
		t.Fatalf("counters: executed=%d cgi=%d", n.Executed(), n.CGIServed())
	}
}

func TestNodeExecRejectsBadParams(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	for _, q := range []string{"demand=-1&w=0.5", "demand=abc&w=0.5", "demand=0.01&w=zz", "demand=1e10&w=0.5", "demand=1e300&w=0.5"} {
		resp, err := http.Get(n.URL + "/exec?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestNodeLoadEndpoint(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	resp, err := http.Get(n.URL + "/load")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != core.LoadWireContentType {
		t.Fatalf("Content-Type %q, want %q", ct, core.LoadWireContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// ParseLoadWire validates: idle ratios in [0, 1], queues ≥ 0.
	if _, err := core.ParseLoadWire(body); err != nil {
		t.Fatalf("/load body %q: %v", body, err)
	}
}

func TestClusterStartAndDispatch(t *testing.T) {
	cfg := DefaultConfig(2, func(id int) core.Policy {
		return core.NewMS(nil, int64(id)+1)
	})
	cfg.Nodes = 4
	cfg.TimeScale = 0.25
	cfg.LoadRefresh = 25 * time.Millisecond
	cfg.PolicyTick = 50 * time.Millisecond
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	if len(c.MasterURLs()) != 2 || len(c.Slaves) != 2 {
		t.Fatalf("topology: %d masters %d slaves", len(c.Masters), len(c.Slaves))
	}

	// A static request executes at the master.
	resp, err := http.Get(c.MasterURLs()[0] + "/req?class=s&demand=0.002&w=0.3&script=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static status %d", resp.StatusCode)
	}
	if c.Masters[0].Executed() != 1 {
		t.Fatalf("master executed %d, want 1", c.Masters[0].Executed())
	}

	// Enough dynamics must reach the slave tier.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := http.Get(c.MasterURLs()[0] + "/req?class=d&demand=0.02&w=0.9&script=1")
			if err == nil {
				r.Body.Close()
			}
		}()
	}
	wg.Wait()
	slaveRan := c.Slaves[0].Executed() + c.Slaves[1].Executed()
	if slaveRan == 0 {
		t.Fatal("no dynamic request reached the slave tier")
	}
	total := int64(0)
	for _, n := range c.NodeExecuted() {
		total += n
	}
	if total != 13 {
		t.Fatalf("cluster executed %d requests, want 13", total)
	}
}

func TestClusterValidate(t *testing.T) {
	bad := DefaultConfig(0, nil)
	if bad.Validate() == nil {
		t.Fatal("masters=0 with nil policy accepted")
	}
	cfg := DefaultConfig(2, func(int) core.Policy { return core.NewFlat() })
	cfg.Nodes = 1
	if cfg.Validate() == nil {
		t.Fatal("masters > nodes accepted")
	}
	for _, s := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg := DefaultConfig(1, func(int) core.Policy { return core.NewFlat() })
		cfg.TimeScale = s
		if cfg.Validate() == nil {
			t.Fatalf("time scale %v accepted", s)
		}
	}
}

func TestMasterFailsOverOnDeadSlave(t *testing.T) {
	cfg := DefaultConfig(1, func(id int) core.Policy {
		return core.NewMS(nil, int64(id)+1)
	})
	cfg.Nodes = 3
	cfg.TimeScale = 0.25
	cfg.LoadRefresh = 20 * time.Millisecond
	cfg.PolicyTick = 50 * time.Millisecond
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// Kill one slave behind the master's back.
	c.Slaves[0].Shutdown()

	// Fire dynamics; every request must succeed despite the dead node.
	var wg sync.WaitGroup
	var failed int64
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := http.Get(c.MasterURLs()[0] + "/req?class=d&demand=0.02&w=0.9&script=1")
			ok := err == nil && r.StatusCode == http.StatusOK
			if r != nil {
				r.Body.Close()
			}
			if !ok {
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failed != 0 {
		t.Fatalf("%d requests failed despite failover", failed)
	}
	// The surviving slave and/or the master must have absorbed the work.
	absorbed := c.Slaves[1].Executed() + c.Masters[0].Executed()
	if absorbed != 16 {
		t.Fatalf("only %d requests absorbed by surviving nodes", absorbed)
	}
	// At least one forward error must have been recorded unless the
	// hold-down caught the dead node before the first placement.
	if c.Masters[0].Failovers() == 0 && c.Slaves[1].Executed()+c.Masters[0].Executed() != 16 {
		t.Fatal("no failovers and missing work")
	}
}

func TestResponseBodyCarriesRequestedSize(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 0, TimeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	resp, err := http.Get(n.URL + "/exec?w=0.5&demand=0.001&size=65536")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 128<<10)
	total := 0
	for {
		k, err := resp.Body.Read(buf)
		total += k
		if err != nil {
			break
		}
	}
	if total != 65536 {
		t.Fatalf("body was %d bytes, want 65536", total)
	}
}

func TestResponseBodyFallsBackOnBadSize(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 0, TimeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	for _, q := range []string{"", "&size=abc", "&size=-5", "&size=999999999999"} {
		resp, err := http.Get(n.URL + "/exec?w=0.5&demand=0.001" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("size query %q: status %d", q, resp.StatusCode)
		}
	}
}

// A node's request counters — executed and forked — are exposed through
// its accessors and its /metrics families, labelled with the node id.
func TestStatsEndpoint(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 2, TimeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	r, err := http.Get(n.URL + "/exec?w=0.5&demand=0.002&fork=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if n.Executed() != 1 || n.CGIServed() != 1 {
		t.Fatalf("executed %d, cgi served %d; want 1 and 1", n.Executed(), n.CGIServed())
	}

	resp, err := http.Get(n.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`msweb_node_executed_total{node="2"} 1`,
		`msweb_node_cgi_served_total{node="2"} 1`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
