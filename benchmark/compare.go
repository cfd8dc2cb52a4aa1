package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compare A.json B.json applies the end-to-end bounds per (metric,
// workload) row, using the windows' medians and quartiles:
//
//   - worse: B's median is beyond the bound;
//   - unresolved (not unchanged): A's own inter-quartile spread exceeds
//     the bound, so a change of that size could not be seen;
//   - gain: B wins at least nine tenths of the paired windows (ties
//     count for neither) and the medians differ by more than A's
//     inter-quartile spread;
//   - unchanged: otherwise.
//
// Simulator digests and the deterministic simulator metrics are
// compared exactly. The exit code is 1 when any row is worse.

// minGainPairs is how many paired samples a gain verdict needs.
const minGainPairs = 5

func readDocument(path string) (*document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// verdict classifies one row. better is "higher" or "lower".
func verdict(a, b metricValue, better string, bound float64) (string, float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	// worseBy > 0 means B is worse, as a share of A's median.
	worseBy := sign * ratio(b.Value-a.Value, a.Value)
	if worseBy > bound {
		return "worse", worseBy
	}
	if a.Spread == nil || b.Spread == nil {
		return "unchanged", worseBy
	}
	iqr := a.Q3 - a.Q1
	if ratio(iqr, a.Value) > bound {
		return "unresolved", worseBy
	}
	pairs := len(a.Samples)
	if len(b.Samples) < pairs {
		pairs = len(b.Samples)
	}
	var wins, decided int
	for i := 0; i < pairs; i++ {
		switch d := sign * (b.Samples[i] - a.Samples[i]); {
		case d < 0:
			wins++
			decided++
		case d > 0:
			decided++
		}
	}
	gap := sign * (b.Value - a.Value)
	if pairs >= minGainPairs && decided > 0 && wins*10 >= decided*9 && -gap > iqr {
		return "gain", worseBy
	}
	return "unchanged", worseBy
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readDocument(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readDocument(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	fmt.Printf("A: commit %s go %s nproc %d clients %d seed %d seconds %g\n", a.Env.Commit, a.Env.GoVersion, a.Env.Nproc, a.Env.Clients, a.Env.Seed, a.Env.Seconds)
	fmt.Printf("B: commit %s go %s nproc %d clients %d seed %d seconds %g\n", b.Env.Commit, b.Env.GoVersion, b.Env.Nproc, b.Env.Clients, b.Env.Seed, b.Env.Seconds)
	fmt.Printf("%-22s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "B worse", "A iqr", "bound", "verdict")

	worse := 0
	for _, w := range workloadSpecs {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v, worseBy := verdict(va, vb, m.Better, m.Bound)
			if v == "worse" {
				worse++
			}
			var iqr float64
			if va.Spread != nil {
				iqr = ratio(va.Q3-va.Q1, va.Value)
			}
			fmt.Printf("%-22s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, va.Value, vb.Value, 100*worseBy, 100*iqr, 100*m.Bound, v)
		}
		if ra.Digest != "" || rb.Digest != "" {
			same := "identical"
			if ra.Digest != rb.Digest {
				same = "DIFFERS"
			}
			fmt.Printf("%-22s %-16s %14.12s %14.12s %44s\n", w.Name, "digest", ra.Digest, rb.Digest, same)
		}
		// Deterministic simulator metrics, where both runs were traced.
		var exact []string
		for name := range ra.PerLayer {
			if _, ok := rb.PerLayer[name]; ok && strings.HasPrefix(name, "sim_") {
				exact = append(exact, name)
			}
		}
		sort.Strings(exact)
		for _, name := range exact {
			same := "identical"
			if ra.PerLayer[name].Value != rb.PerLayer[name].Value {
				same = "DIFFERS"
			}
			fmt.Printf("%-22s %-16s %14.9g %14.9g %44s\n", w.Name, name, ra.PerLayer[name].Value, rb.PerLayer[name].Value, same)
		}
	}
	if worse > 0 {
		fmt.Printf("%d row(s) worse\n", worse)
		return 1
	}
	fmt.Println("no row worse")
	return 0
}
