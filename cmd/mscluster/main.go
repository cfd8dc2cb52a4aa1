// Command mscluster boots a live master/slave Web cluster on loopback
// and prints the master URLs. Drive it with cmd/msload.
//
// Usage:
//
//	mscluster -nodes 6 -masters 3 -policy ms
//	mscluster -nodes 6 -masters 2 -fast
//	mscluster -policy jsq2
//	mscluster -list-policies
//
// -policy names a preset of internal/policy (-list-policies prints them).
//
// -fast runs the slaves uncalibrated (virtual-time demand accounting,
// no wall-clock sleeps). Masters always dispatch to slaves over the
// persistent binary frame transport.
//
// The process serves until interrupted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/policy"
)

// errListed signals the -list-policies print-and-exit path.
var errListed = errors.New("listed policies")

// profileFlags holds the -mutexprofile/-blockprofile destinations; the
// profiles are captured for the whole serving lifetime and written at
// shutdown.
var profileFlags struct{ mutex, block string }

func main() {
	cfg, err := buildConfig(os.Args[1:])
	if errors.Is(err, errListed) {
		fmt.Print(policy.ListText())
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscluster:", err)
		os.Exit(2)
	}
	if profileFlags.mutex != "" {
		runtime.SetMutexProfileFraction(100)
		defer writeProfile("mutex", profileFlags.mutex)
	}
	if profileFlags.block != "" {
		runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
		defer writeProfile("block", profileFlags.block)
	}
	c, err := httpcluster.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscluster:", err)
		os.Exit(1)
	}
	defer c.Shutdown()
	printBanner(os.Stdout, cfg, c)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
}

// writeProfile dumps a runtime profile family (mutex, block) to path;
// failures are reported but never change the exit status.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mscluster: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "mscluster: no %s profile\n", name)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "mscluster: %s profile: %v\n", name, err)
	}
}

// buildConfig turns command-line flags into a cluster configuration.
// Split from main for testability.
func buildConfig(args []string) (httpcluster.Config, error) {
	fs := flag.NewFlagSet("mscluster", flag.ContinueOnError)
	nodes := fs.Int("nodes", 6, "cluster size")
	masters := fs.Int("masters", 2, "number of master nodes")
	var pf policy.Flags
	pf.Register(fs)
	scale := fs.Float64("timescale", 1, "duration scale factor (1 = real time)")
	refresh := fs.Duration("refresh", 100*time.Millisecond, "load polling period")
	seed := fs.Int64("seed", 1, "policy randomization seed")
	fast := fs.Bool("fast", false, "run uncalibrated: virtual-time demand accounting, no wall-clock sleeps")
	shards := fs.Int("shards", 0, "partition the slave tier across the masters (must equal -masters; 0/1 = global view)")
	gossip := fs.Duration("gossip", 0, "master↔master shard-summary pull period (0 = 4×refresh)")
	autoscale := fs.Duration("autoscale-masters", 0, "live master-tier autoscaler period (0: off; needs -shards)")
	fs.StringVar(&profileFlags.mutex, "mutexprofile", "", "write a mutex-contention profile to this file at shutdown")
	fs.StringVar(&profileFlags.block, "blockprofile", "", "write a goroutine-blocking profile to this file at shutdown")
	if err := fs.Parse(args); err != nil {
		return httpcluster.Config{}, err
	}
	if pf.List {
		return httpcluster.Config{}, errListed
	}

	build, err := pf.Resolve()
	if err != nil {
		return httpcluster.Config{}, err
	}
	cfg := httpcluster.DefaultConfig(*masters, func(id int) core.Policy {
		return build(nil, *seed+int64(id))
	})
	cfg.Nodes = *nodes
	cfg.TimeScale = *scale
	cfg.LoadRefresh = *refresh
	cfg.Uncalibrated = *fast
	cfg.Shards = *shards
	cfg.GossipEvery = *gossip
	cfg.AutoscaleMasters = *autoscale
	return cfg, cfg.Validate()
}

// printBanner announces the running cluster.
func printBanner(w io.Writer, cfg httpcluster.Config, c *httpcluster.Cluster) {
	fmt.Fprintf(w, "cluster up: %d nodes, %d masters\n", cfg.Nodes, cfg.Masters)
	urls := c.MasterURLs()
	for i, url := range urls {
		fmt.Fprintf(w, "master %d: %s\n", i, url)
	}
	fmt.Fprintln(w, "send traffic with: msload -masters <url,url,...> -trace <file>")
	if len(urls) > 0 {
		fmt.Fprintf(w, "scrape metrics with: curl %s/metrics (every node serves /metrics)\n", urls[0])
	}
}
