package experiments

// Determinism regression harness. The simulator core trades allocation
// for pooling and keeps its events in a calendar queue in exact
// (time, sequence) order; these tests pin that none of it changes a
// single bit of experiment output. Every full-precision float must match
// its golden exactly at the same seeds — "statistically equivalent" is a
// bug here. cmd/msbench's TestCSVEmission pins the rest: the SHA-256 of
// every deterministic experiment's CSV, at -parallel 1 and 4.
//
// Regenerate (only when an intentional model change shifts the numbers)
// with:
//
//	go test ./internal/experiments -run Golden -update-golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"msweb/internal/cluster"
	"msweb/internal/core"
	"msweb/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the determinism golden files in testdata/")

// fullBits formats v with the fewest digits that round-trip the exact
// float64, so a golden match is a bit-for-bit match.
func fullBits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d diverges:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s length diverges: got %d lines, want %d", name, len(gl), len(wl))
}

// fig4GoldenText renders Fig4 rows at full float64 precision, one row
// per line.
func fig4GoldenText(rows []Fig4Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			r.Trace, fullBits(r.InvR), fullBits(r.Lambda), r.Masters,
			fullBits(r.MSStretch), fullBits(r.OverNS), fullBits(r.OverNR), fullBits(r.Over1))
	}
	return b.String()
}

// TestFig4GoldenRows replays the full Figure 4 quick grid (32 nodes,
// every trace profile, two 1/r points, four policy variants) at the
// default worker-pool width and demands bit-identical stretch rows.
func TestFig4GoldenRows(t *testing.T) {
	rows, err := RunFig4(32, Quick())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4_p32_quick.golden", fig4GoldenText(rows))
}

// TestFig4GoldenRowsAnyParallelism pins that the merged rows are the
// same bytes at worker-pool widths 1 and 4, against the same golden file.
func TestFig4GoldenRowsAnyParallelism(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		rows, err := RunFig4(32, Quick())
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		checkGolden(t, "fig4_p32_quick.golden", fig4GoldenText(rows))
	}
}

// table3QuickSims runs the simulated column of the quick Table 3
// configuration (the KSU cell: 6 nodes, λ=20, μ_h=110, r=1/40)
// sequentially, on the trace RunTable3(QuickTable3Options()) replays: the
// M/S baseline's stretch factor, then one per table3Variants entry.
func table3QuickSims(t *testing.T) (ms float64, alts []float64) {
	t.Helper()
	opts := QuickTable3Options()
	tr, wt, err := cachedTrace(trace.GenConfig{
		Profile: trace.KSU, Lambda: 20, Requests: 120,
		MuH: opts.MuHLive, R: opts.R, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := table3Masters("KSU")
	if ms, err = runSimTable3(opts, m, core.NewMS(wt, opts.Seed), tr); err != nil {
		t.Fatalf("M/S: %v", err)
	}
	for _, v := range table3Variants {
		masters := m
		if v.full {
			masters = opts.Nodes
		}
		sf, err := runSimTable3(opts, masters, v.mk(wt, opts.Seed), tr)
		if err != nil {
			t.Fatalf("%s: %v", v.key, err)
		}
		alts = append(alts, sf)
	}
	return ms, alts
}

// TestTable3SimGoldenRows pins the simulated column of the quick Table 3
// configuration for the M/S baseline and each compared variant. The live
// column is wall-clock noise; TestRunTable3Quick runs it.
func TestTable3SimGoldenRows(t *testing.T) {
	ms, alts := table3QuickSims(t)
	var b strings.Builder
	fmt.Fprintf(&b, "KSU\t20\tM/S\t%s\n", fullBits(ms))
	for i, v := range table3Variants {
		fmt.Fprintf(&b, "KSU\t20\t%s\t%s\n", v.key, fullBits(alts[i]))
	}
	checkGolden(t, "table3_ksu_quick.golden", b.String())
}

// TestClusterSimulateGoldenResult pins the one-call cluster.Simulate
// path end-to-end at full precision — the exact inner loop the
// zero-allocation rewrite touches — including event counts, so a
// behaviorally silent change that fires a different number of events
// still trips the golden.
func TestClusterSimulateGoldenResult(t *testing.T) {
	tr, wt, err := genTraceW(trace.KSU, 400, 1.0/40, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(8, 2)
	cfg.WarmupFraction = 0.1
	res, err := cluster.Simulate(cfg, core.NewMS(wt, 7), tr)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stretch\t%s\n", fullBits(res.StretchFactor))
	fmt.Fprintf(&b, "mean\t%s\n", fullBits(res.Summary.MeanResponse))
	fmt.Fprintf(&b, "count\t%d\n", res.Summary.Count)
	fmt.Fprintf(&b, "events\t%d\n", res.Events)
	fmt.Fprintf(&b, "simsec\t%s\n", fullBits(res.SimulatedSeconds))
	fmt.Fprintf(&b, "dyn\t%d\t%d\t%d\n", res.TotalDynamics, res.MasterDynamics, res.RemoteDynamics)
	for i, st := range res.NodeStats {
		fmt.Fprintf(&b, "node%d\t%d\t%d\t%d\t%d\t%d\n",
			i, st.Submitted, st.Completed, st.ContextSwitches, st.PageFaults, st.DiskOps)
	}
	checkGolden(t, "cluster_ksu_golden.golden", b.String())
}
