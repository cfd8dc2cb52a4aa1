// Command msload replays a trace file against a running mscluster and
// reports the measured stretch factor.
//
// Usage:
//
//	mstrace -profile ADL -lambda 30 -n 600 -muh 110 > adl.trace
//	msload -masters http://127.0.0.1:40001 -trace adl.trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"msweb/internal/replay"
	"msweb/internal/trace"
	"msweb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msload:", err)
		os.Exit(1)
	}
}

// run parses args, replays the trace, and prints the report. Split from
// main for testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("msload", flag.ContinueOnError)
	masters := fs.String("masters", "", "comma-separated master base URLs")
	traceFile := fs.String("trace", "", "trace file to replay (from mstrace)")
	scale := fs.Float64("timescale", 1, "interval/demand scale (must match the cluster)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request timeout")
	conc := fs.Int("concurrency", 0, "max in-flight requests (0 = unlimited)")
	frame := fs.Bool("frame", false, "drive masters over the persistent binary frame transport instead of HTTP")
	closed := fs.Bool("closed", false, "closed-loop mode: generate sessions instead of replaying a trace")
	profile := fs.String("profile", "KSU", "session profile for -closed (UCB, KSU, ADL)")
	sessionsN := fs.Int("sessions", 50, "session count for -closed")
	sessionRate := fs.Float64("session-rate", 5, "session arrival rate for -closed (sessions/second)")
	meanReqs := fs.Float64("mean-requests", 8, "mean requests per session for -closed")
	think := fs.Float64("think", 1, "mean think time for -closed (seconds)")
	muH := fs.Float64("muh", 110, "node static capability for -closed demand calibration")
	r := fs.Float64("r", 1.0/40, "service ratio for -closed demand calibration")
	seed := fs.Int64("seed", 1, "generation seed for -closed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *masters == "" {
		return fmt.Errorf("-masters is required")
	}
	if *closed {
		prof, ok := trace.ProfileByName(*profile)
		if !ok {
			return fmt.Errorf("unknown profile %q", *profile)
		}
		sessions, err := workload.Generate(workload.Config{
			Profile:      prof,
			Sessions:     *sessionsN,
			SessionRate:  *sessionRate,
			MeanRequests: *meanReqs,
			MeanThink:    *think,
			MuH:          *muH,
			R:            *r,
			Seed:         *seed,
		})
		if err != nil {
			return err
		}
		res, err := replay.RunClosed(context.Background(), strings.Split(*masters, ","), sessions, replay.Options{
			TimeScale: *scale,
			Timeout:   *timeout,
			Frames:    *frame,
		})
		if err != nil {
			return err
		}
		return report(stdout, res)
	}
	if *traceFile == "" {
		return fmt.Errorf("-trace is required (or use -closed)")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}

	urls := strings.Split(*masters, ",")
	res, err := replay.Run(context.Background(), urls, tr, replay.Options{
		TimeScale:   *scale,
		Timeout:     *timeout,
		Concurrency: *conc,
		Frames:      *frame,
	})
	if err != nil {
		return err
	}
	return report(stdout, res)
}

// report renders the replay summary and fails the run when too many
// requests failed for the stretch factor to mean anything. A replay in
// which no request succeeded prints no stretch factor at all.
func report(stdout io.Writer, res *replay.Result) error {
	s := res.Summary
	fmt.Fprintf(stdout, "replayed %d requests in %.1fs (%d failed)\n", res.Sent, res.Duration.Seconds(), res.Failed)
	if s.Count == 0 {
		return res.Err()
	}
	fmt.Fprintf(stdout, "stretch factor:   %.3f\n", s.StretchFactor)
	fmt.Fprintf(stdout, "mean response:    %.4f s\n", s.MeanResponse)
	fmt.Fprintf(stdout, "p50/p95/p99 stretch: %.2f / %.2f / %.2f\n", s.P50Stretch, s.P95Stretch, s.P99Stretch)
	for _, class := range []string{"static", "dynamic", "cached"} {
		if cs, ok := s.ByClass[class]; ok {
			fmt.Fprintf(stdout, "%-8s n=%-7d SF=%.3f meanResp=%.4fs\n", class, cs.Count, cs.StretchFactor, cs.MeanResponse)
		}
	}
	return res.Err()
}
