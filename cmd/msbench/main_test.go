package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunFastExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig3a", "fig3b"} {
		var out bytes.Buffer
		if err := run([]string{"-experiment", exp, "-quick"}, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "completed in") {
			t.Fatalf("%s: no completion marker:\n%s", exp, out.String())
		}
	}
}

func TestRunSimulatedExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-experiment", "flashcrowd", "-quick"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flash-crowd") {
		t.Fatalf("missing output:\n%s", out.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "nope"}, &out, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-badflag"}, &out, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestSeedAndRhoOverrides(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "table2", "-quick", "-seeds", "1", "-rho", "0.5"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0.50") {
		t.Fatalf("rho override not reflected:\n%s", out.String())
	}
}

func TestSeedsRhoWarningForNoOptionsExperiments(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-experiment", "fig3a", "-seeds", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "warning: -seeds/-rho have no effect") {
		t.Fatalf("missing ignored-flag warning on stderr:\n%s", errBuf.String())
	}
	if strings.Contains(out.String(), "warning:") {
		t.Fatalf("warning leaked into stdout:\n%s", out.String())
	}
	out.Reset()
	errBuf.Reset()
	if err := run([]string{"-experiment", "table2", "-quick", "-seeds", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errBuf.String(), "warning: -seeds/-rho") {
		t.Fatalf("spurious warning for an Options experiment:\n%s", errBuf.String())
	}
}

func TestTraceOutWarningForUntracedExperiments(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	args := []string{"-experiment", "fig3a", "-trace-out", dir + "/t.jsonl"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "warning: -trace-out captures nothing") {
		t.Fatalf("missing trace-out warning on stderr:\n%s", errBuf.String())
	}
}

func TestTraceOutWritesParseableJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 grid skipped in -short mode")
	}
	dir := t.TempDir()
	path := dir + "/trace.jsonl"
	var out bytes.Buffer
	args := []string{"-experiment", "fig4a", "-quick", "-parallel", "2",
		"-trace-out", path, "-trace-match", "/ms/seed1"}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace bytes") {
		t.Fatalf("no trace summary line:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace file has %d lines", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if cell, ok := m["cell"].(string); ok && !strings.Contains(cell, "/ms/seed1") {
			t.Fatalf("cell %q escaped -trace-match", cell)
		}
	}
}

func TestParallelAndProfileFlags(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-experiment", "table2", "-quick", "-parallel", "2",
		"-cpuprofile", dir + "/cpu.pprof", "-memprofile", dir + "/mem.pprof"}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "completed in") {
		t.Fatalf("no completion marker:\n%s", out.String())
	}
	if _, err := os.Stat(dir + "/cpu.pprof"); err != nil {
		t.Fatalf("cpu profile not written: %v", err)
	}
}

// TestCSVEmission checks each CSV-producing experiment writes one file
// with its header, and that the bytes do not depend on the worker pool
// width: the simulator grids are deterministic at any -parallel.
func TestCSVEmission(t *testing.T) {
	for _, tc := range []struct {
		args         []string
		file, header string
	}{
		{[]string{"-experiment", "table2", "-quick"},
			"table-2-workload-parameters.csv", "trace,a,p,target_rho,inv_r,lambda_req_s\n"},
		{[]string{"-experiment", "tournament", "-quick", "-seeds", "1"},
			"policy-tournament.csv", "profile,rho,policy,mean_ms,p99_ms,stretch,"},
		{[]string{"-experiment", "autoscale", "-quick"},
			"autoscale-vs-fixed-fleet.csv", "workload,scenario,stretch,slo_attainment,node_hours,"},
	} {
		t.Run(tc.args[1], func(t *testing.T) {
			var csv [2][]byte
			for i, width := range []string{"1", "4"} {
				dir := t.TempDir()
				args := append(append([]string{}, tc.args...), "-parallel", width, "-csv", dir)
				if err := run(args, io.Discard, io.Discard); err != nil {
					t.Fatal(err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 1 || entries[0].Name() != tc.file {
					t.Fatalf("csv dir contents: %v, want %s", entries, tc.file)
				}
				if csv[i], err = os.ReadFile(dir + "/" + tc.file); err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(csv[i], []byte(tc.header)) {
					t.Fatalf("csv header wrong:\n%.80s", csv[i])
				}
			}
			if !bytes.Equal(csv[0], csv[1]) {
				t.Fatalf("%s differs between -parallel 1 and 4:\n%s\n---\n%s", tc.file, csv[0], csv[1])
			}
		})
	}
}
