package cluster_test

import (
	"fmt"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/trace"
)

// Simulate a 8-node master/slave cluster against a synthetic KSU-like
// workload and report the headline metric.
func ExampleSimulate() {
	tr, err := trace.Generate(trace.GenConfig{
		Profile:  trace.KSU,
		Lambda:   300,
		Requests: 3000,
		MuH:      1200,
		R:        1.0 / 40,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	wt := core.SampleW(tr, 16) // off-line demand sampling
	cfg := cluster.DefaultConfig(8, 2)
	res, err := cluster.Simulate(cfg, core.NewMS(wt, 1), tr)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed: %d requests\n", res.Summary.Count)
	fmt.Printf("statics stayed on masters: %v\n", res.MasterDynamics < res.TotalDynamics)
	fmt.Printf("stretch factor is finite and ≥ 1: %v\n", res.StretchFactor >= 1)
	// Output:
	// completed: 3000 requests
	// statics stayed on masters: true
	// stretch factor is finite and ≥ 1: true
}

// A failure schedule exercises the fault-tolerance path: each request
// the crashed slave held is reported to its core.Attempts and re-placed
// at once on another node, so nothing is lost.
func ExampleSimulate_failover() {
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.ADL, Lambda: 250, Requests: 2500,
		MuH: 1200, R: 1.0 / 40, Seed: 9,
	})
	if err != nil {
		panic(err)
	}
	cfg := cluster.DefaultConfig(6, 2)
	cfg.Events = []cluster.AvailabilityEvent{
		{Node: 5, At: 2.0, Available: false},
	}
	res, err := cluster.Simulate(cfg, core.NewMS(core.SampleW(tr, 16), 1), tr)
	if err != nil {
		panic(err)
	}
	fmt.Printf("all requests completed: %v\n", res.Summary.Count == 2500)
	fmt.Printf("failovers: %d, exhausted: %d\n", res.Failovers, res.Exhausted)
	// Output:
	// all requests completed: true
	// failovers: 1, exhausted: 0
}
