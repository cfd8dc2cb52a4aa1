// Accesslog: the adoption path for real sites — take a Web server's
// access log in Common Log Format, import it (classifying static vs
// CGI URLs and synthesizing calibrated service demands), accelerate it
// to a target load, plan the master tier with Theorem 1, and simulate.
//
// The example writes a small synthetic CLF file first so it runs
// self-contained; point `-log` at your own access log instead.
//
// Run with: go run ./examples/accesslog [-log /path/to/access.log]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/queuemodel"
	"msweb/internal/trace"
)

func main() {
	logPath := flag.String("log", "", "access log in Common Log Format (default: generate a demo log)")
	nodes := flag.Int("nodes", 8, "cluster size to plan for")
	rho := flag.Float64("rho", 0.65, "target utilization after acceleration")
	flag.Parse()

	path := *logPath
	if path == "" {
		path = writeDemoLog()
		fmt.Printf("no -log given; wrote a demo log to %s\n\n", path)
	}

	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	res, err := trace.ReadCLF(f, trace.CLFOptions{
		MuH: 1200, R: 1.0 / 40, SkipErrors: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Malformed > 0 {
		fmt.Printf("skipped %d malformed lines of %d\n", res.Malformed, res.Lines)
	}
	c := trace.Characterize(res.Trace)
	fmt.Printf("imported %d requests: %.1f%% CGI, a=%.3f, native rate %.1f req/s\n",
		c.Requests, c.PctCGI, c.ArrivalRatio, 1/c.MeanInterval)

	// Accelerate the historical log to the target utilization, the
	// paper's replay methodology.
	params := queuemodel.NewParams(*nodes, 1, c.ArrivalRatio, 1200, 1.0/40)
	targetLambda := *rho / params.FlatUtilization()
	factor := targetLambda * c.MeanInterval
	accelerated := trace.ScaleIntervals(res.Trace, factor)
	fmt.Printf("accelerating ×%.0f to %.0f req/s for a %d-node cluster at ρ=%.2f\n\n",
		factor, targetLambda, *nodes, *rho)

	plan, err := queuemodel.NewParams(*nodes, targetLambda, c.ArrivalRatio, 1200, 1.0/40).OptimalPlan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 1 plan: %d masters, θ₂=%.3f, predicted gain %.0f%%\n",
		plan.M, plan.Theta2, plan.Improvement())

	wt := core.SampleW(accelerated, 16)
	cfg := cluster.DefaultConfig(*nodes, plan.M)
	cfg.WarmupFraction = 0.1
	simRes, err := cluster.Simulate(cfg, core.NewMS(wt, 1), accelerated)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated stretch factor: %.2f\n", simRes.StretchFactor)
	for _, class := range []string{"static", "dynamic"} {
		if cs, ok := simRes.Summary.ByClass[class]; ok {
			fmt.Printf("  %-8s n=%-6d SF=%.2f\n", class, cs.Count, cs.StretchFactor)
		}
	}
}

// writeDemoLog fabricates a plausible access log: static pages, a popular
// search CGI with repeating queries, and image fetches.
func writeDemoLog() string {
	path := filepath.Join(os.TempDir(), "msweb-demo-access.log")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4000; i++ {
		min := i / 120 % 60
		sec := i / 2 % 60
		switch i % 4 {
		case 0:
			fmt.Fprintf(f, "h%d - - [02/Jun/1999:04:%02d:%02d -0700] \"GET /index.html HTTP/1.0\" 200 7519\n", i%19, min, sec)
		case 1:
			fmt.Fprintf(f, "h%d - - [02/Jun/1999:04:%02d:%02d -0700] \"GET /img/%d.gif HTTP/1.0\" 200 2326\n", i%23, min, sec, i%12)
		case 2:
			fmt.Fprintf(f, "h%d - - [02/Jun/1999:04:%02d:%02d -0700] \"GET /cgi-bin/search?q=%d HTTP/1.0\" 200 8730\n", i%17, min, sec, i%397)
		default:
			fmt.Fprintf(f, "h%d - - [02/Jun/1999:04:%02d:%02d -0700] \"GET /docs/paper.html HTTP/1.0\" 200 4591\n", i%13, min, sec)
		}
	}
	return path
}
