package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/httpcluster"
)

// TestProxyModes exercises each fault mode against a real HTTP backend.
func TestProxyModes(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong") //nolint:errcheck
	}))
	defer backend.Close()
	p, err := NewProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Fresh connection per request so mode flips are felt immediately.
	client := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	get := func() (string, error) {
		resp, err := client.Get(p.URL)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close() //nolint:errcheck
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("ModeOK: got %q, %v", body, err)
	}
	p.SetMode(ModeDown, 0)
	if _, err := get(); err == nil {
		t.Fatal("ModeDown: request unexpectedly succeeded")
	}
	p.SetMode(ModeLatency, 80*time.Millisecond)
	start := time.Now()
	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("ModeLatency: got %q, %v", body, err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("ModeLatency: round trip %v, want >= 80ms", d)
	}
	p.SetMode(ModeSlowLoris, 5*time.Millisecond)
	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("ModeSlowLoris: got %q, %v", body, err)
	}
	p.SetMode(ModePaused, 0)
	shortClient := &http.Client{
		Timeout:   300 * time.Millisecond,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	if _, err := shortClient.Get(p.URL); err == nil {
		t.Fatal("ModePaused: request unexpectedly completed")
	}
	p.SetMode(ModeOK, 0)
	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("recovery: got %q, %v", body, err)
	}
}

// TestRandomReproducible pins the seed contract: the same seed yields
// byte-identical schedules, different seeds differ, and every node ends
// healthy.
func TestRandomReproducible(t *testing.T) {
	cfg := RandomConfig{Nodes: []int{2, 3, 4, 5}, Length: 3 * time.Second}
	a, b := Random(42, cfg), Random(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if c := Random(43, cfg); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	last := map[int]Mode{}
	cycling := map[int]int{}
	for _, e := range a {
		last[e.Node] = e.Mode
		if e.Mode != ModeOK {
			cycling[e.Node]++
		}
	}
	for node, mode := range last {
		if mode != ModeOK {
			t.Fatalf("node %d ends schedule in %v, want ok", node, mode)
		}
	}
	if len(cycling) < 2 {
		t.Fatalf("schedule faults only %d nodes, want >= 2", len(cycling))
	}
}

func TestFromAvailability(t *testing.T) {
	events := []cluster.AvailabilityEvent{
		{Node: 3, At: 2.0, Available: false},
		{Node: 3, At: 5.0, Available: true},
		{Node: 4, At: 1.0, Available: false},
	}
	s := FromAvailability(events, 0.1)
	want := Schedule{
		{Node: 4, At: 100 * time.Millisecond, Mode: ModeDown},
		{Node: 3, At: 200 * time.Millisecond, Mode: ModeDown},
		{Node: 3, At: 500 * time.Millisecond, Mode: ModeOK},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("got %+v, want %+v", s, want)
	}
}

// TestChaosInvariants is the resilience acceptance test: a 6-node
// 2-master live cluster whose four slaves cycle through randomized
// faults every few hundred milliseconds while closed-loop clients keep
// requesting. Every accepted request must reach exactly one terminal
// outcome (2xx served, 503 shed, 502 exhausted), the non-shed error
// rate must stay under an explicit budget, and the harness must not
// leak goroutines or file descriptors. The proxies fault the TCP link
// that carries the masters' persistent 'E'-frame dispatch connections.
func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds")
	}
	t.Run("frames", func(t *testing.T) {
		goroutinesBefore := runtime.NumGoroutine()
		fdsBefore := countFDs(t)

		cfg := httpcluster.Config{
			Nodes:       6,
			Masters:     2,
			TimeScale:   1,
			LoadRefresh: 25 * time.Millisecond,
			PolicyTick:  100 * time.Millisecond,
			MakePolicy:  func(id int) core.Policy { return core.NewMS(nil, int64(id)+1) },
		}
		h, err := Launch(cfg)
		if err != nil {
			t.Fatal(err)
		}

		const seed = 42
		sched := Random(seed, RandomConfig{
			Nodes:  h.SlaveIDs(),
			Length: 2500 * time.Millisecond,
		})
		faulted := map[int]bool{}
		for _, e := range sched {
			if e.Mode != ModeOK {
				faulted[e.Node] = true
			}
		}
		if len(faulted) < 2 {
			t.Fatalf("schedule faults only %d nodes, want >= 2", len(faulted))
		}

		ctx, cancel := context.WithCancel(context.Background())
		var schedDone sync.WaitGroup
		schedDone.Add(1)
		go func() {
			defer schedDone.Done()
			Run(ctx, time.Now(), sched, h.Proxies)
		}()

		// Closed-loop clients: each hammers one master with a static/dynamic
		// mix until the schedule window closes, classifying every response
		// into exactly one terminal bucket. Every request carries a 2 s
		// budget, so a dispatch into a faulted link ends within it.
		// Clients only ever ask for /req, so their connections stay on the
		// masters' own HTTP edge: every reply must come from it (an edge reply
		// carries no Date; net/http's adapter would stamp one).
		var ok, shed, exhausted, unexpected, viaNetHTTP atomic.Int64
		deadline := time.Now().Add(2500 * time.Millisecond)
		urls := h.MasterURLs()
		var clients sync.WaitGroup
		for c := 0; c < 8; c++ {
			clients.Add(1)
			go func(c int) {
				defer clients.Done()
				client := &http.Client{Timeout: 5 * time.Second}
				for i := 0; time.Now().Before(deadline); i++ {
					url := urls[c%len(urls)] + "/req?class=d&demand=0.004&w=0.9&script=1"
					if i%4 == 0 {
						url = urls[c%len(urls)] + "/req?class=s&demand=0.001&w=0.3&script=0"
					}
					resp, err := getWithBudget(client, url)
					if err != nil {
						unexpected.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()              //nolint:errcheck
					if resp.Header.Get("Date") != "" {
						viaNetHTTP.Add(1)
					}
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
			}(c)
		}
		clients.Wait()
		schedDone.Wait()
		cancel()

		var accepted, served, mShed, mExhausted, opens int64
		for _, m := range h.Cluster.Masters {
			accepted += m.Accepted()
			served += m.Served()
			mShed += m.Shed()
			mExhausted += m.Exhausted()
			for _, id := range h.SlaveIDs() {
				opens += m.BreakerOpens(id)
			}
		}
		total := ok.Load() + shed.Load() + exhausted.Load()
		t.Logf("client: ok=%d shed=%d exhausted=%d unexpected=%d; server: accepted=%d served=%d shed=%d exhausted=%d breaker_opens=%d",
			ok.Load(), shed.Load(), exhausted.Load(), unexpected.Load(), accepted, served, mShed, mExhausted, opens)

		if n := unexpected.Load(); n != 0 {
			t.Errorf("%d requests hit a non-terminal outcome (transport error or stray status)", n)
		}
		if ok.Load() == 0 {
			t.Error("no request succeeded during the chaos run")
		}
		if n := viaNetHTTP.Load(); n != 0 {
			t.Errorf("%d of %d replies came through net/http, want every /req served by the edge", n, total)
		}
		// Terminal-outcome invariant: everything a master admitted reached
		// exactly one of served/shed/exhausted, and the clients saw the same
		// totals the masters counted.
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
		// Non-shed error budget: with local fallback and retries across
		// nodes, dropped dynamics must stay a small fraction of admissions.
		if budget := float64(accepted) / 4; float64(mExhausted) > budget {
			t.Errorf("exhausted %d exceeds error budget %g of accepted %d", mExhausted, budget, accepted)
		}

		h.Shutdown()
		checkNoLeaks(t, goroutinesBefore, fdsBefore)
	})
}

// getWithBudget GETs url with the 2 s deadline budget the chaos clients
// give every request.
func getWithBudget(client *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(httpcluster.TimeoutHeader, "2000")
	return client.Do(req)
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// checkNoLeaks polls briefly for goroutine and fd counts to return near
// their pre-test baselines (idle HTTP keepalives and timer goroutines
// need a moment to unwind).
func checkNoLeaks(t *testing.T, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), countFDs(t)
		if g <= goroutines+5 && f <= fds+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("leak: goroutines %d -> %d, fds %d -> %d", goroutines, g, fds, f)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestScheduleRunScripted drives a one-node harness through a scripted
// kill/restart and watches the master's availability view follow it.
func TestScheduleRunScripted(t *testing.T) {
	cfg := httpcluster.Config{
		Nodes:       2,
		Masters:     1,
		TimeScale:   1,
		LoadRefresh: 20 * time.Millisecond,
		PolicyTick:  100 * time.Millisecond,
		MakePolicy:  func(id int) core.Policy { return core.NewMS(nil, 1) },
	}
	h, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	m := h.Cluster.Masters[0]
	slave := h.Cluster.Slaves[0].ID

	waitState := func(want int32, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for m.BreakerState(slave) != want {
			if time.Now().After(deadline) {
				t.Fatalf("breaker never reached %s state (now %d)", what, m.BreakerState(slave))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	sched := Schedule{
		{Node: slave, At: 0, Mode: ModeDown},
		{Node: slave, At: 400 * time.Millisecond, Mode: ModeOK},
	}
	go Run(context.Background(), time.Now(), sched, h.Proxies)

	waitState(2, "open") // node killed: load polls fail, breaker opens
	waitState(0, "closed")
	if fmt.Sprint(h.Proxies[slave].Mode()) != "ok" {
		t.Fatalf("proxy left in %v", h.Proxies[slave].Mode())
	}
}
