package httpcluster

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"msweb/internal/core"
)

// startFrameTestCluster boots a small uncalibrated cluster with a
// sharded master for the concurrent frame-client tests.
func startFrameTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := Start(Config{
		Nodes: 3, Masters: 1, TimeScale: 1,
		LoadRefresh: 50 * time.Millisecond, PolicyTick: 100 * time.Millisecond,
		MakePolicy:     func(int) core.Policy { return core.NewMS(nil, 1) },
		Uncalibrated:   true,
		ListenerShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// Many frame clients hammering one sharded master concurrently: every
// connection sends its own deterministic accept/reject pattern, so any
// cross-connection response mixup (a status delivered to the wrong
// client, or out of order within one connection) is detected by a
// status that does not match that connection's own schedule. Run under
// -race this also exercises the per-shard connection registries.
func TestConcurrentFrameClientsNoCrossTalk(t *testing.T) {
	c := startFrameTestCluster(t)
	url := c.Masters[0].URL

	const clients = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc, err := DialFrame(url, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer fc.Close()
			for j := 0; j < iters; j++ {
				// Connection i's schedule: iteration j is deliberately
				// malformed (negative demand → 400) iff (i+j) is even.
				req := FrameRequest{Demand: 0.0001, W: 0.5, Dynamic: j%3 == 0}
				want := http.StatusOK
				if (i+j)%2 == 0 {
					req.Demand = -1
					want = http.StatusBadRequest
				}
				sts, err := fc.Do([]FrameRequest{req}, time.Now().Add(5*time.Second))
				if err != nil {
					errs <- err
					return
				}
				if len(sts) != 1 || sts[0] != want {
					t.Errorf("client %d iter %d: status %v, want %d", i, j, sts, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Multi-entry 'Q' batches from concurrent clients: per-entry statuses
// must come back in request order with the right count, even though the
// master serves batch entries concurrently.
func TestConcurrentFrameBatchesKeepOrder(t *testing.T) {
	c := startFrameTestCluster(t)
	url := c.Masters[0].URL

	const clients = 4
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc, err := DialFrame(url, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer fc.Close()
			for j := 0; j < iters; j++ {
				// Entry k is malformed iff (i+j+k) ≡ 0 (mod 3): each batch
				// carries a connection-specific mix of accepts and rejects.
				batch := make([]FrameRequest, 3)
				want := make([]int, 3)
				for k := range batch {
					batch[k] = FrameRequest{Demand: 0.0001, W: 0.5}
					want[k] = http.StatusOK
					if (i+j+k)%3 == 0 {
						batch[k].Demand = -1
						want[k] = http.StatusBadRequest
					}
				}
				sts, err := fc.Do(batch, time.Now().Add(5*time.Second))
				if err != nil {
					errs <- err
					return
				}
				if len(sts) != len(want) {
					t.Errorf("client %d iter %d: %d statuses, want %d", i, j, len(sts), len(want))
					return
				}
				for k := range want {
					if sts[k] != want[k] {
						t.Errorf("client %d iter %d entry %d: status %d, want %d", i, j, k, sts[k], want[k])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
