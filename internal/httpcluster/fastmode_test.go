package httpcluster

import (
	"net/http"
	"testing"
	"time"

	"msweb/internal/core"
)

// Uncalibrated resources never sleep: seconds of virtual demand
// complete at CPU speed, while the load report still shows the offered
// demand (busy fraction, virtual queue backlog).
func TestFastResourceAccounting(t *testing.T) {
	r := NewFastResource(10*time.Millisecond, time.Now())
	start := time.Now()
	r.Use(5 * time.Second)
	if wall := time.Since(start); wall > 100*time.Millisecond {
		t.Fatalf("fast Use(5s) took %v of wall clock", wall)
	}
	if q := r.QueueLength(); q < 100 {
		t.Fatalf("queue length %d after 5s of instantaneous demand, want a deep virtual backlog", q)
	}
	if bf := r.BusyFraction(); bf <= 0.5 {
		t.Fatalf("busy fraction %v after far-oversubscribed demand, want ~1", bf)
	}
	if idle := r.IdleRatio(); idle > 0.5 {
		t.Fatalf("idle ratio %v right after saturating demand, want ~0", idle)
	}
	// The rstat window resets on sample: with no further demand the next
	// window reports idle again.
	if idle := r.IdleRatio(); idle < 0.5 {
		t.Fatalf("idle ratio %v in a quiet follow-up window, want ~1", idle)
	}
}

// An uncalibrated node answers /exec for large demands immediately and
// its /load report reflects the backlog the demand implies.
func TestUncalibratedNodeFast(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, Uncalibrated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()

	start := time.Now()
	resp, body := getStatus(t, n.URL+"/exec?w=0.5&demand=3&fork=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("uncalibrated /exec of 3s demand took %v", wall)
	}
	if n.Executed() != 1 || n.CGIServed() != 1 {
		t.Fatalf("executed=%d cgi=%d, want 1/1", n.Executed(), n.CGIServed())
	}
	if q := n.res.CPU.QueueLength(); q == 0 {
		t.Fatal("virtual CPU backlog empty after 1.5s of CPU demand")
	}
}

// The whole cluster runs uncalibrated end to end: a demand mix that
// would take seconds calibrated finishes immediately, through the
// regular scheduling path.
func TestUncalibratedClusterSmoke(t *testing.T) {
	c, err := Start(Config{
		Nodes: 3, Masters: 1, TimeScale: 1,
		LoadRefresh: 50 * time.Millisecond, PolicyTick: 100 * time.Millisecond,
		MakePolicy:   func(id int) core.Policy { return core.NewMS(nil, int64(id)+1) },
		Uncalibrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	start := time.Now()
	url := c.MasterURLs()[0]
	for i := 0; i < 20; i++ {
		resp, body := getStatus(t, url+"/req?class=d&demand=0.1&w=0.5&script=1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("20 uncalibrated dynamics (2s virtual demand) took %v", wall)
	}
}
