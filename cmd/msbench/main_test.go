package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"msweb/internal/report"
)

// TestRunFastExperiments also pins the stream split: stdout carries the
// table alone (it is what results/<name>.txt holds), the completion
// marker and the "wrote" lines go to stderr.
func TestRunFastExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig3"} {
		var out, errBuf bytes.Buffer
		if err := run([]string{"-experiment", exp, "-quick", "-csv", t.TempDir()}, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(errBuf.String(), "completed in") || !strings.Contains(errBuf.String(), "wrote ") {
			t.Fatalf("%s: no completion marker or wrote line on stderr:\n%s", exp, errBuf.String())
		}
		if strings.Contains(out.String(), "completed in") || strings.Contains(out.String(), "wrote ") {
			t.Fatalf("%s: progress lines leaked into stdout:\n%s", exp, out.String())
		}
	}
}

// TestDocListsEveryExperiment keeps the package doc in step with the
// experiment list (the -experiment help is built from the list).
func TestDocListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for _, name := range experimentNames() {
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(doc) {
			t.Errorf("package doc does not list experiment %q", name)
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

// TestMakefileResultsList keeps "make results" regenerating every
// deterministic experiment: all of them but the live table3.
func TestMakefileResultsList(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^RESULTS = (.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no RESULTS line")
	}
	var want []string
	for _, name := range experimentNames() {
		if name != "table3" {
			want = append(want, name)
		}
	}
	if got := strings.Fields(string(m[1])); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Makefile RESULTS = %q, want %q", got, want)
	}
}

func TestSeedAndRhoOverrides(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "table2", "-quick", "-seeds", "1", "-rho", "0.5", "-csv", dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dir + "/table-2-workload-parameters.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0][3] != "target_rho" {
		t.Fatalf("unexpected table 2 CSV: %q", recs)
	}
	for _, rec := range recs[1:] {
		if rec[3] != "0.5" {
			t.Fatalf("rho override not reflected: %q", rec)
		}
	}
}

func TestSeedsRhoWarningForNoOptionsExperiments(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-experiment", "fig3", "-seeds", "3"}, &out, &errBuf); err != nil {
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
	args := []string{"-experiment", "fig3", "-trace-out", dir + "/t.jsonl"}
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
	var errBuf bytes.Buffer
	args := []string{"-experiment", "fig4a", "-quick", "-parallel", "2",
		"-trace-out", path, "-trace-match", "/ms/seed1"}
	if err := run(args, io.Discard, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "trace bytes") {
		t.Fatalf("no trace summary line on stderr:\n%s", errBuf.String())
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
	var errBuf bytes.Buffer
	args := []string{"-experiment", "table2", "-quick", "-parallel", "2",
		"-cpuprofile", dir + "/cpu.pprof", "-memprofile", dir + "/mem.pprof"}
	if err := run(args, io.Discard, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "completed in") {
		t.Fatalf("no completion marker:\n%s", errBuf.String())
	}
	if _, err := os.Stat(dir + "/cpu.pprof"); err != nil {
		t.Fatalf("cpu profile not written: %v", err)
	}
}

// TestCSVEmission runs every experiment but the live table3 at -quick
// and checks that each writes one CSV file, named after the title its
// text starts with, whose bytes do not depend on the worker pool width:
// the simulator grids are deterministic at any -parallel.
func TestCSVEmission(t *testing.T) {
	headers := map[string]string{
		"table2":     "trace,a,p,target_rho,inv_r,lambda_req_s\n",
		"tournament": "profile,rho,policy,mean_ms,p99_ms,stretch,",
		"autoscale":  "workload,scenario,stretch,slo_attainment,node_hours,",
	}
	for _, name := range experimentNames() {
		if name == "table3" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var got [2][]byte
			for i, width := range []string{"1", "4"} {
				dir := t.TempDir()
				var out bytes.Buffer
				args := []string{"-experiment", name, "-quick", "-parallel", width, "-csv", dir}
				if err := run(args, &out, io.Discard); err != nil {
					t.Fatal(err)
				}
				title, _, _ := strings.Cut(out.String(), "\n")
				file := report.Slug(title) + ".csv"
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 1 || entries[0].Name() != file {
					t.Fatalf("csv dir contents: %v, want %s", entries, file)
				}
				if got[i], err = os.ReadFile(dir + "/" + file); err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(got[i], []byte(headers[name])) {
					t.Fatalf("csv header wrong:\n%.80s", got[i])
				}
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Fatalf("%s differs between -parallel 1 and 4:\n%s\n---\n%s", name, got[0], got[1])
			}
		})
	}
}
