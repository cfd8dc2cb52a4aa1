package httpcluster

import (
	"io"
	"net/http"
	"testing"
	"time"

	"msweb/internal/core"
)

// A sharded node must open exactly the requested number of accept
// sockets on platforms with SO_REUSEPORT, and exactly one everywhere
// else — quiet degradation, never an error.
func TestMultiListenShardCount(t *testing.T) {
	lis, err := multiListen(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, l := range lis {
			l.Close()
		}
	}()
	want := 4
	if !reuseportSupported {
		want = 1
	}
	if len(lis) != want {
		t.Fatalf("multiListen(4) opened %d listeners, want %d", len(lis), want)
	}
	addr := lis[0].Addr().String()
	for i, l := range lis {
		if l.Addr().String() != addr {
			t.Fatalf("listener %d bound %s, want %s", i, l.Addr(), addr)
		}
	}
}

func TestMultiListenDefaultsToOne(t *testing.T) {
	for _, shards := range []int{0, 1, -3} {
		lis, err := multiListen(shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(lis) != 1 {
			t.Fatalf("multiListen(%d) opened %d listeners, want 1", shards, len(lis))
		}
		lis[0].Close()
	}
}

// HTTP and the frame upgrade must both work against a sharded node: the
// kernel may hand each connection to any accept queue, and every queue
// feeds the same server.
func TestShardedNodeServesBothTransports(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, Uncalibrated: true, ListenerShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	if got := n.ListenerShards(); reuseportSupported && got != 4 {
		t.Fatalf("ListenerShards() = %d, want 4", got)
	}

	// Enough sequential HTTP requests that, with 4 accept queues, more
	// than one shard almost surely serves traffic.
	for i := 0; i < 16; i++ {
		resp, err := http.Get(n.URL + "/exec?w=0.5&demand=0.001")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

}

// A sharded master must keep serving /req — shutdown included, so the
// per-listener serve loops and the frame registries drain cleanly.
func TestShardedMasterServesReq(t *testing.T) {
	c, err := Start(Config{
		Nodes: 2, Masters: 1, TimeScale: 1,
		LoadRefresh: 50 * time.Millisecond, PolicyTick: 100 * time.Millisecond,
		MakePolicy:     func(int) core.Policy { return core.NewMS(nil, 1) },
		Uncalibrated:   true,
		ListenerShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	m := c.Masters[0]
	for i := 0; i < 8; i++ {
		resp, err := http.Get(m.URL + "/req?demand=0.001&w=0.5")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	// Several persistent 'Q'-frame connections at once against the
	// sharded master: tracked in the per-shard registries, served, and
	// torn down cleanly.
	clients := make([]*FrameClient, 3)
	for i := range clients {
		fc, err := DialFrame(m.URL, time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients[i] = fc
	}
	if got := m.FrameConns(); got != len(clients) {
		t.Fatalf("FrameConns() = %d, want %d", got, len(clients))
	}
	for i, fc := range clients {
		sts, err := fc.Do([]FrameRequest{{Demand: 0.001, W: 0.5}}, time.Now().Add(2*time.Second))
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if len(sts) != 1 || sts[0] != http.StatusOK {
			t.Fatalf("client %d: statuses %v", i, sts)
		}
	}
	for _, fc := range clients {
		fc.Close()
	}
}

func TestListenerShardsValidation(t *testing.T) {
	if err := (NodeOptions{ListenerShards: -1}).Validate(false); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if err := (NodeOptions{ListenerShards: 300}).Validate(false); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}
