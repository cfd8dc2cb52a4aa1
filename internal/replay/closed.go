package replay

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"msweb/internal/metrics"
	"msweb/internal/trace"
	"msweb/internal/workload"
)

// RunClosed drives a live cluster with closed-loop sessions: each
// session is a goroutine-user that waits for every response before
// thinking and issuing its next request. Master URLs are assigned to
// sessions round robin (a user keeps its front-end server, as a browser
// keeps its connection).
func RunClosed(ctx context.Context, masterURLs []string, sessions []workload.Session, opts Options) (*Result, error) {
	if len(masterURLs) == 0 {
		return nil, fmt.Errorf("replay: no master URLs")
	}
	for i, s := range sessions {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("replay: session %d: %w", i, err)
		}
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
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
		sent      int
		wg        sync.WaitGroup
	)
	start := time.Now()

	runSession := func(master string, s workload.Session) {
		defer wg.Done()
		if wait := opts.scaled(s.Start) - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		for i, req := range s.Requests {
			if ctx.Err() != nil {
				return
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
					ok = false
				}
			}
			elapsed := time.Since(t0)
			mu.Lock()
			sent++
			if ok {
				collector.Add(metrics.Sample{
					Demand:   req.Demand,
					Response: elapsed.Seconds() / opts.TimeScale,
					Class:    req.Class.String(),
				})
			} else {
				failed++
			}
			mu.Unlock()
			if i < len(s.Thinks) {
				select {
				case <-time.After(opts.scaled(s.Thinks[i])):
				case <-ctx.Done():
					return
				}
			}
		}
	}

	for i, s := range sessions {
		wg.Add(1)
		go runSession(masterURLs[i%len(masterURLs)], s)
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
