package httpcluster

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/core"
)

// TestReqRaceStress drives the whole live data plane concurrently: many
// /req clients (static and dynamic mix) against a fast-ticking fan-out
// load poller and policy ticker, a node killed mid-run (exercising
// failover and the hold-down atomics), /metrics scrapes racing the
// serving path, and finally a clean Shutdown with requests still in
// flight. Its job is to give `go test -race` every pair of accesses the
// view design relies on: report-table writes vs placement reads,
// URL and hold-down atomics, pooled rrJobs, and the narrow stat locks.
func TestReqRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	cfg := DefaultConfig(2, func(id int) core.Policy {
		return core.NewMS(nil, int64(id)+1)
	})
	cfg.Nodes = 4
	cfg.TimeScale = 0.02 // 50× fast: real sleeps, compressed wall time
	// Fast enough that many poll rounds and policy ticks overlap the
	// client burst, slow enough that the fan-out's HTTP traffic doesn't
	// oversubscribe a single-CPU box under the race detector.
	cfg.LoadRefresh = 25 * time.Millisecond
	cfg.PolicyTick = 30 * time.Millisecond
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
		Timeout:   30 * time.Second,
	}
	get := func(url string) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	const clients = 6
	const perClient = 20
	var failed atomic.Int64
	var wg sync.WaitGroup
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})

	// Metrics scrapers race the serving path on both masters. Tracked
	// outside wg: it runs until the clients are done, then is told to stop.
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			for _, m := range c.Masters {
				get(m.URL + "/metrics") //nolint:errcheck
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			master := c.MasterURLs()[i%len(c.Masters)]
			for j := 0; j < perClient; j++ {
				var q string
				if j%3 == 0 {
					q = "/req?class=s&demand=0.002&w=0.3&script=0&size=2048"
				} else {
					q = "/req?class=d&demand=0.01&w=0.9&script=1&size=512"
				}
				if err := get(master + q); err != nil {
					failed.Add(1)
				}
			}
		}(i)
	}

	// Kill a slave mid-run, behind the masters' backs: placements must
	// fail over and polls must mark it down without a lost request.
	time.Sleep(30 * time.Millisecond)
	c.Slaves[0].Shutdown()

	wg.Wait()
	close(stopScrape)
	<-scrapeDone

	if got := failed.Load(); got != 0 {
		t.Fatalf("%d requests failed despite failover", got)
	}
	var absorbed int64
	for _, m := range c.Masters {
		absorbed += m.Executed()
	}
	absorbed += c.Slaves[1].Executed()
	if dead := c.Slaves[0].Executed(); absorbed+dead < clients*perClient {
		t.Fatalf("only %d requests absorbed (%d on the dead node), want %d",
			absorbed, dead, clients*perClient)
	}

	// Clean shutdown with the poller mid-tick must not hang or race.
	done := make(chan struct{})
	go func() { c.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster Shutdown hung")
	}
}
