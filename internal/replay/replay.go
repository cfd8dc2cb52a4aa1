// Package replay drives a live msweb cluster with a trace: an open-loop
// client that fires each request at its (scaled) arrival time against
// the master tier in round-robin order — the paper's replay methodology
// ("requests are sent to servers in a round-robin fashion") — and
// measures per-request server-site response times for the stretch
// factor.
package replay

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"msweb/internal/httpcluster"
	"msweb/internal/metrics"
	"msweb/internal/trace"
)

// Options configure a replay.
type Options struct {
	// TimeScale compresses (<1) or dilates (>1) the trace's arrival
	// intervals and demands; it must match the cluster's TimeScale so
	// stretch factors stay dimensionless.
	TimeScale float64
	// Timeout bounds each request.
	Timeout time.Duration
	// Concurrency caps in-flight requests (0 = unlimited).
	Concurrency int
	// Frames sends requests as 'Q' frames over persistent msweb-frame/1
	// connections instead of HTTP GET /req — no request parse, no header
	// map, no response body (statuses only, so Size verification does not
	// apply). The masters must speak the frame protocol.
	Frames bool
}

// framePool shares persistent frame connections per master across the
// driver's request goroutines.
type framePool struct {
	timeout time.Duration
	mu      sync.Mutex
	idle    map[string][]*httpcluster.FrameClient
}

func newFramePool(timeout time.Duration) *framePool {
	return &framePool{timeout: timeout, idle: make(map[string][]*httpcluster.FrameClient)}
}

func (p *framePool) get(master string) (*httpcluster.FrameClient, error) {
	p.mu.Lock()
	if cs := p.idle[master]; len(cs) > 0 {
		fc := cs[len(cs)-1]
		p.idle[master] = cs[:len(cs)-1]
		p.mu.Unlock()
		return fc, nil
	}
	p.mu.Unlock()
	return httpcluster.DialFrame(master, p.timeout)
}

func (p *framePool) put(master string, fc *httpcluster.FrameClient) {
	p.mu.Lock()
	p.idle[master] = append(p.idle[master], fc)
	p.mu.Unlock()
}

func (p *framePool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cs := range p.idle {
		for _, fc := range cs {
			fc.Close()
		}
	}
	p.idle = nil
}

// do sends one request on a pooled connection; a transport error drops
// the connection (the next get dials fresh).
func (p *framePool) do(master string, req trace.Request) (ok bool, err error) {
	fc, err := p.get(master)
	if err != nil {
		return false, err
	}
	sts, err := fc.Do([]httpcluster.FrameRequest{{
		Demand: req.Demand, W: req.CPUWeight, Script: req.Script,
		Dynamic: req.Class == trace.Dynamic, Idem: true,
	}}, time.Now().Add(p.timeout))
	if err != nil {
		fc.Close()
		return false, err
	}
	// sts aliases the client's buffer: read it before another goroutine
	// can take the client from the pool.
	ok = sts[0] == http.StatusOK
	p.put(master, fc)
	return ok, nil
}

// DefaultOptions replays in real time.
func DefaultOptions() Options {
	return Options{TimeScale: 1, Timeout: 120 * time.Second}
}

// Result carries replay statistics.
type Result struct {
	Summary  metrics.Summary
	Sent     int
	Failed   int
	Duration time.Duration
}

// StretchFactor is the headline metric.
func (r *Result) StretchFactor() float64 { return r.Summary.StretchFactor }

// Err reports a replay whose stretch factor is not a measurement: more
// than a tenth of the requests failed, so the successes that remain are
// a biased sample of the trace.
func (r *Result) Err() error {
	if r.Failed > r.Sent/10 {
		return fmt.Errorf("%d/%d requests failed", r.Failed, r.Sent)
	}
	return nil
}

// Run replays tr against the given master URLs and blocks until every
// request has completed or failed.
func Run(ctx context.Context, masterURLs []string, tr *trace.Trace, opts Options) (*Result, error) {
	if len(masterURLs) == 0 {
		return nil, fmt.Errorf("replay: no master URLs")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 120 * time.Second
	}

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
		Timeout:   opts.Timeout,
	}
	var frames *framePool
	if opts.Frames {
		frames = newFramePool(opts.Timeout)
		defer frames.close()
	}

	var (
		mu        sync.Mutex
		collector = metrics.NewCollector()
		failed    int
		wg        sync.WaitGroup
	)
	var gate chan struct{}
	if opts.Concurrency > 0 {
		gate = make(chan struct{}, opts.Concurrency)
	}

	start := time.Now()
	base := 0.0
	if len(tr.Requests) > 0 {
		base = tr.Requests[0].Arrival
	}
	sent := 0
	for i, req := range tr.Requests {
		if ctx.Err() != nil {
			break
		}
		at := time.Duration((req.Arrival - base) * opts.TimeScale * float64(time.Second))
		if wait := at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		master := masterURLs[i%len(masterURLs)]
		req := req
		sent++
		if gate != nil {
			gate <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if gate != nil {
				defer func() { <-gate }()
			}
			var ok bool
			t0 := time.Now()
			if frames != nil {
				ok, _ = frames.do(master, req)
			} else {
				cls := "s"
				if req.Class == trace.Dynamic {
					cls = "d"
				}
				url := fmt.Sprintf("%s/req?class=%s&demand=%g&w=%g&script=%d&size=%d",
					master, cls, req.Demand, req.CPUWeight, req.Script, req.Size)
				resp, err := client.Get(url)
				var got int64
				if resp != nil {
					got, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				ok = err == nil && resp.StatusCode == http.StatusOK
				if ok && req.Size > 0 && got != req.Size {
					ok = false // truncated or padded body: count as failure
				}
			}
			elapsed := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				failed++
				return
			}
			// Normalize the measured response back to unscaled seconds
			// so stretch = response/demand is scale-free.
			collector.Add(metrics.Sample{
				Demand:   req.Demand,
				Response: elapsed.Seconds() / opts.TimeScale,
				Class:    req.Class.String(),
			})
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	return &Result{
		Summary:  collector.Summarize(),
		Sent:     sent,
		Failed:   failed,
		Duration: time.Since(start),
	}, nil
}
