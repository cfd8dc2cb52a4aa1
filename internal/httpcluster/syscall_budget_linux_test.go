//go:build linux

package httpcluster

import (
	"bytes"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"msweb/internal/core"
)

// procIO reads the process's read and write syscall counters from
// /proc/self/io (syscr, syscw). Client, masters and slaves all run in
// this process, so a delta counts every hop of a request.
func procIO(t *testing.T) (reads, writes int64) {
	t.Helper()
	buf, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Fatalf("read /proc/self/io: %v", err)
	}
	field := func(name string) int64 {
		for _, line := range bytes.Split(buf, []byte("\n")) {
			if v, ok := bytes.CutPrefix(line, []byte(name+": ")); ok {
				n, err := strconv.ParseInt(string(v), 10, 64)
				if err != nil {
					t.Fatalf("/proc/self/io %s: %v", name, err)
				}
				return n
			}
		}
		t.Fatalf("/proc/self/io has no %s", name)
		return 0
	}
	return field("syscr"), field("syscw")
}

// A dynamic 'Q' request crosses four TCP messages: client → master,
// master → slave ('E'), slave → master, master → client. Each costs one
// write, one read of the data and one read that finds the socket empty
// (EAGAIN) before the goroutine parks in the netpoller: 4 writes and 8
// reads is the floor for this transport. The budget pins the dispatch
// path at that floor, with a margin for the load polls and gossip that
// run beside it.
func TestDynamicFrameSyscallBudget(t *testing.T) {
	c, err := Start(Config{
		Nodes: 4, Masters: 1, TimeScale: 6.5e-5,
		LoadRefresh: 50 * time.Millisecond, PolicyTick: 100 * time.Millisecond,
		MakePolicy:   func(int) core.Policy { return core.NewMS(nil, 1) },
		Uncalibrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	const clients, perClient = 2, 5000
	req := []FrameRequest{{Demand: 0.36, W: 0.9, Script: 1, Dynamic: true, Idem: true}}
	fcs := make([]*FrameClient, clients)
	for i := range fcs {
		fc, err := DialFrame(c.Masters[0].URL, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		// One request per connection first: the master's frame dial to
		// each slave is set-up, not per-request cost.
		if sts, err := fc.Do(req, time.Now().Add(5*time.Second)); err != nil || sts[0] != http.StatusOK {
			t.Fatalf("priming request: %v %v", sts, err)
		}
		fcs[i] = fc
	}
	slaveExecuted := func() (n int64) {
		for _, s := range c.Slaves {
			n += s.Executed()
		}
		return n
	}

	exec0 := slaveExecuted()
	r0, w0 := procIO(t)
	var wg sync.WaitGroup
	for _, fc := range fcs {
		wg.Add(1)
		go func(fc *FrameClient) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				sts, err := fc.Do(req, time.Now().Add(5*time.Second))
				if err != nil || sts[0] != http.StatusOK {
					t.Errorf("request %d: %v %v", j, sts, err)
					return
				}
			}
		}(fc)
	}
	wg.Wait()
	r1, w1 := procIO(t)
	if t.Failed() {
		return
	}

	const n = clients * perClient
	if remote := slaveExecuted() - exec0; remote < n*9/10 {
		t.Fatalf("only %d of %d dynamic requests ran on a slave: the dispatch hop was not measured", remote, n)
	}
	reads, writes := float64(r1-r0)/n, float64(w1-w0)/n
	t.Logf("%.3f reads and %.3f writes per dynamic request", reads, writes)
	if writes > 4.1 || reads > 8.5 {
		t.Fatalf("%.3f reads and %.3f writes per dynamic request, budget 8.5 and 4.1", reads, writes)
	}
}
