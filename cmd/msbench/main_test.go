package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"msweb/internal/experiments"
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
// experiment list (the -experiment help is built from the list): the
// doc's "in the order "all" runs them" paragraph, its parenthesized
// glosses dropped, must name exactly experimentNames(), in order.
func TestDocListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	const lead = `Experiments, in the order "all" runs them:`
	_, list, ok := strings.Cut(f.Doc.Text(), lead)
	if !ok {
		t.Fatalf("package doc has no %q paragraph", lead)
	}
	list, _, _ = strings.Cut(list, "\n\n")
	list = regexp.MustCompile(`\([^)]*\)`).ReplaceAllString(list, "")
	listed := strings.FieldsFunc(list, func(r rune) bool {
		return r == ',' || r == ';' || r == '.' || unicode.IsSpace(r)
	})
	if want := experimentNames(); !slices.Equal(listed, want) {
		t.Fatalf("package doc lists experiments\n  %v\nbut \"all\" runs\n  %v", listed, want)
	}
}

func TestRunSimulatedExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-experiment", "failover", "-quick"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "failover") {
		t.Fatalf("missing output:\n%s", out.String())
	}
}

// An experiment that returns its table with an error (a failed
// scorecard claim) still prints and writes the table, then fails the
// run: "make results" keeps the failing scorecard and exits non-zero.
func TestRunPrintsTableBeforeItsError(t *testing.T) {
	saved := experimentList
	defer func() { experimentList = saved }()
	experimentList = []experiment{{"failing", func(*settings) (*report.Table, error) {
		tbl := &report.Table{Title: "Failing claim", Columns: []string{"claim", "verdict"}}
		tbl.AddRow("x", "fails")
		return tbl, fmt.Errorf("claim %q fails", "x")
	}}}
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-experiment", "failing", "-csv", dir}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `claim "x" fails`) {
		t.Fatalf("run error %v, want the claim's", err)
	}
	if !strings.Contains(out.String(), "x      fails") {
		t.Fatalf("table not printed:\n%s", out.String())
	}
	if _, err := os.Stat(dir + "/failing-claim.csv"); err != nil {
		t.Fatalf("csv not written: %v", err)
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
// deterministic experiment: its recipe must run TestResults, which
// writes all of them but the live table3. It also fails on a
// results/*.txt no experiment writes any more ("make results" deletes
// nothing, so a removed experiment's table would stay unchanged and pass
// the drift check); table3.txt and prN_*.txt evidence files are kept by
// hand.
func TestMakefileResultsList(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?m)^results:\n((?:\t.*\n)+)`).FindSubmatch(mk)
	if recipe == nil || !strings.Contains(string(recipe[1]), "-run '^TestResults$$' -update-golden") {
		t.Fatal("the Makefile's results recipe does not run TestResults with -update-golden")
	}
	want := deterministicNames()
	kept := map[string]bool{"table3.txt": true}
	for _, name := range want {
		kept[name+".txt"] = true
	}
	evidence := regexp.MustCompile(`^pr[0-9]+_.*\.txt$`)
	files, err := filepath.Glob("../../results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := filepath.Base(f); !kept[name] && !evidence.MatchString(name) {
			t.Errorf("results/%s is neither a deterministic experiment's table, table3.txt nor a prN_*.txt evidence file", name)
		}
	}
}

// goCommand matches a go run, test or build command in a document, up
// to the end of its line or of the code span it sits in.
var goCommand = regexp.MustCompile("\\bgo (?:run|test|build)\\b[^`\\n]*")

// TestDocCommandsNamePackages keeps the go commands quoted in the docs
// (docFiles) runnable: every ./path argument of a go run, go test or go
// build must name a directory of the repository, so a deleted or
// renamed package cannot leave a dead command in the docs.
func TestDocCommandsNamePackages(t *testing.T) {
	for _, doc := range docFiles {
		data, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		paths := 0
		for i, line := range strings.Split(string(data), "\n") {
			for _, cmd := range goCommand.FindAllString(line, -1) {
				for _, arg := range strings.Fields(cmd) {
					if !strings.HasPrefix(arg, "./") {
						continue
					}
					paths++
					dir := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
					if st, err := os.Stat("../../" + dir); err != nil || !st.IsDir() {
						t.Errorf("%s:%d: %q names no directory of the repository", doc, i+1, arg)
					}
				}
			}
		}
		if paths == 0 {
			t.Errorf("%s quotes no go command with a ./path; the pattern no longer matches", doc)
		}
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

// Out-of-range -rho, -seeds and -parallel are errors naming the flag and
// its range, not silent fallbacks to the defaults.
func TestOutOfRangeFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-rho", "1.5"},
		{"-rho", "1"},
		{"-rho", "-0.2"},
		{"-rho", "NaN"},
		{"-seeds", "-2"},
		{"-parallel", "-3"},
	} {
		var out bytes.Buffer
		err := run([]string{"-experiment", "table2", "-quick", tc.flag, tc.value}, &out, io.Discard)
		if err == nil {
			t.Errorf("%s %s accepted", tc.flag, tc.value)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag+" ") || !strings.Contains(err.Error(), "want") {
			t.Errorf("%s %s: error %q does not name the flag and its range", tc.flag, tc.value, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s: rejected run still printed a table", tc.flag, tc.value)
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

// deterministicNames lists every experiment but the live table3, in
// experimentList order: the ones whose output is a pure function of the
// source.
func deterministicNames() []string {
	var names []string
	for _, name := range experimentNames() {
		if name != "table3" {
			names = append(names, name)
		}
	}
	return names
}

var updateGolden = flag.Bool("update-golden", false, "rewrite "+digestPath+" from this run")

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks from results/")

// TestResults rewrites results/<name>.txt and results/csv/ at full
// fidelity for every deterministic experiment, under -update-golden
// only ("make results" runs it): each table's text, as msbench prints
// it, and its CSV, as -csv writes it. The experiments share one
// settings, as in one msbench run, so the scorecard reuses the inputs
// that ran before it instead of running them again.
func TestResults(t *testing.T) {
	if !*updateGolden {
		t.Skip("rewrites results/ under -update-golden only (make results)")
	}
	set := settings{opts: experiments.Default()}
	for _, e := range experimentList {
		if e.name == "table3" {
			continue
		}
		tbl, err := e.run(&set)
		if tbl != nil {
			var text, csv bytes.Buffer
			if err := errors.Join(tbl.WriteText(&text), tbl.WriteCSV(&csv),
				os.WriteFile("../../results/"+e.name+".txt", text.Bytes(), 0o644),
				os.WriteFile("../../results/csv/"+report.Slug(tbl.Title)+".csv", csv.Bytes(), 0o644)); err != nil {
				t.Fatal(err)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
}

// TestScorecardReusesInputs runs the scorecard's -quick inputs and then
// the scorecard on one settings, as "msbench -experiment all -quick"
// does. The scorecard reads their rows instead of running them again,
// and its CSV must still be the digest TestCSVEmission pins for a
// scorecard run alone.
func TestScorecardReusesInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short mode")
	}
	inputs := map[string]bool{"fig4a": true, "fig5": true, "failover": true, "autoscale": true, "staleness": true, "tournament": true}
	set := settings{quick: true, opts: experiments.Quick()}
	var card *report.Table
	for _, e := range experimentList {
		if !inputs[e.name] && e.name != "scorecard" {
			continue
		}
		tbl, err := e.run(&set)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		card = tbl
	}
	if set.done.Fig4a == nil || set.done.Fig5 == nil || set.done.Failover == nil ||
		set.done.Autoscale == nil || set.done.Staleness == nil || set.done.Tournament == nil {
		t.Fatal("an input's rows were not kept for the scorecard")
	}
	var csv bytes.Buffer
	if err := card.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv.Bytes())
	if got, want := hex.EncodeToString(sum[:]), readDigests(t, deterministicNames())["scorecard"]; got != want {
		t.Fatalf("scorecard from reused inputs: digest %s, want %s (%s)", got, want, digestPath)
	}
}

// TestScorecardBlock keeps EXPERIMENTS.md's scorecard the checked one:
// between its markers it must hold results/scorecard.txt verbatim, in a
// text fence. After an intended change,
//
//	go test ./cmd/msbench -run TestScorecardBlock -update
//
// rewrites the block ("make results" does, after results/scorecard.txt).
func TestScorecardBlock(t *testing.T) { checkResultBlock(t, "scorecard") }

// TestResultBlocks does for EXPERIMENTS.md's sharded and autoscale
// tables what TestScorecardBlock does for the scorecard.
func TestResultBlocks(t *testing.T) {
	for _, name := range []string{"sharded", "autoscale"} {
		t.Run(name, func(t *testing.T) { checkResultBlock(t, name) })
	}
}

// checkResultBlock checks that EXPERIMENTS.md holds results/<name>.txt
// verbatim, in a text fence, between the markers
// "<!-- name: results/name.txt -->" and "<!-- end name -->"; under
// -update it rewrites the block instead.
func checkResultBlock(t *testing.T, name string) {
	t.Helper()
	file := "results/" + name + ".txt"
	table, err := os.ReadFile("../../" + file)
	if err != nil {
		t.Fatal(err)
	}
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := "<!-- "+name+": "+file+" -->\n", "<!-- end "+name+" -->\n"
	before, rest, ok := strings.Cut(string(doc), begin)
	_, after, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("EXPERIMENTS.md has no %q … %q block", begin, end)
	}
	want := before + begin + "```text\n" + string(table) + "```\n" + end + after
	switch {
	case want == string(doc):
	case *update:
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Errorf("EXPERIMENTS.md's %s block differs from %s (rerun with -update)", name, file)
	}
}

// digestPath holds one "name sha256" line per deterministic experiment,
// in experimentList order: the SHA-256 of the CSV it writes at -quick.
const digestPath = "testdata/digests.txt"

// tracedCell is the one Figure 4 cell TestTraceOutWritesParseableJSONL
// traces.
const tracedCell = "fig4/p32/UCB/invr80/ms/seed1"

// TestCSVEmission runs every deterministic experiment at -quick, once at
// -parallel 1 and once at -parallel 4. Each run must write one CSV file,
// named after the title its text starts with, and that file's SHA-256
// must be the experiment's line in testdata/digests.txt at both widths:
// the simulator grids are byte-deterministic at any -parallel, and a
// number that moves anywhere fails exactly one named line. After an
// intended change, rewrite the file with
//
//	go test ./cmd/msbench -run TestCSVEmission -update-golden
//
// ("make results" does, so results/ and the digests move together).
func TestCSVEmission(t *testing.T) {
	headers := map[string]string{
		"table2":     "trace,a,p,target_rho,inv_r,lambda_req_s\n",
		"tournament": "profile,rho,policy,mean_ms,p99_ms,stretch,",
		"autoscale":  "workload,scenario,stretch,slo_attainment,node_hours,",
	}
	names := deterministicNames()
	want := readDigests(t, names)
	got := make(map[string]string)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var csvs [2][]byte
			for i, width := range []string{"1", "4"} {
				csvs[i], _ = runCSV(t, name, width)
				if !bytes.HasPrefix(csvs[i], []byte(headers[name])) {
					t.Fatalf("csv header wrong:\n%.80s", csvs[i])
				}
			}
			if !bytes.Equal(csvs[0], csvs[1]) {
				t.Fatalf("%s differs between -parallel 1 and 4:\n%s\n---\n%s", name, csvs[0], csvs[1])
			}
			sum := sha256.Sum256(csvs[0])
			got[name] = hex.EncodeToString(sum[:])
			switch {
			case *updateGolden:
			case want[name] == "":
				t.Errorf("%s has no %s line (run with -update-golden)", digestPath, name)
			case want[name] != got[name]:
				t.Errorf("%s digest moved:\n got: %s\nwant: %s (%s)", name, got[name], want[name], digestPath)
			}
		})
	}
	if *updateGolden {
		writeDigests(t, names, want, got)
	}
}

// TestTraceOutWritesParseableJSONL runs fig4a at -parallel 4 with
// -trace-out narrowed to tracedCell. The trace must hold that cell alone,
// as JSON lines, and stderr must say so; the CSV must still be fig4a's
// line in testdata/digests.txt, so tracing never perturbs a result.
func TestTraceOutWritesParseableJSONL(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	data, stderr := runCSV(t, "fig4a", "4",
		"-trace-out", path, "-trace-match", strings.TrimPrefix(tracedCell, "fig4/p32/"))
	checkTrace(t, path, stderr)
	if *updateGolden {
		return
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), readDigests(t, deterministicNames())["fig4a"]; got != want {
		t.Errorf("traced fig4a digest %s, want %s (%s)", got, want, digestPath)
	}
}

// runCSV runs one experiment at -quick with -csv into a fresh directory
// at the given -parallel width and returns the bytes of the one CSV file
// it must write, named after the title its text starts with, and its
// stderr.
func runCSV(t *testing.T, name, width string, extra ...string) ([]byte, string) {
	t.Helper()
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	args := append([]string{"-experiment", name, "-quick", "-parallel", width, "-csv", dir}, extra...)
	if err := run(args, &out, &errBuf); err != nil {
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
	data, err := os.ReadFile(dir + "/" + file)
	if err != nil {
		t.Fatal(err)
	}
	return data, errBuf.String()
}

// checkTrace asserts that -trace-out wrote tracedCell alone, as JSON
// lines, and said so on stderr.
func checkTrace(t *testing.T, path, stderr string) {
	t.Helper()
	if !strings.Contains(stderr, "trace bytes (1 cells) to "+path) {
		t.Fatalf("no trace summary line on stderr:\n%s", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var cells []string
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line %d not JSON: %v\n%s", i+1, err, line)
		}
		if cell, ok := m["cell"].(string); ok {
			cells = append(cells, cell)
		}
	}
	if len(cells) != 1 || cells[0] != tracedCell || len(lines) < 2 {
		t.Fatalf("trace has cells %q and %d lines, want only %q and its events", cells, len(lines), tracedCell)
	}
}

// readDigests parses digestPath into name → hex SHA-256. A malformed or
// duplicate line, or one that names no deterministic experiment, fails
// the test (under -update-golden it is dropped instead).
func readDigests(t *testing.T, names []string) map[string]string {
	t.Helper()
	bad := t.Errorf
	if *updateGolden {
		bad = t.Logf
	}
	want := make(map[string]string)
	data, err := os.ReadFile(digestPath)
	if err != nil {
		bad("%v (run with -update-golden)", err)
		return want
	}
	known := make(map[string]bool)
	for _, name := range names {
		known[name] = true
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) != 2 || len(f[1]) != 2*sha256.Size:
			bad("%s:%d: want \"name sha256\", got %q", digestPath, i+1, line)
		case !known[f[0]]:
			bad("%s:%d: %s is not a deterministic experiment", digestPath, i+1, f[0])
		case want[f[0]] != "":
			bad("%s:%d: second line for %s", digestPath, i+1, f[0])
		default:
			want[f[0]] = f[1]
		}
	}
	return want
}

// writeDigests rewrites digestPath in experimentList order: this run's
// digests, and the old line of any experiment the run filtered out.
func writeDigests(t *testing.T, names []string, old, got map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, name := range names {
		sum, ok := got[name]
		if !ok {
			sum, ok = old[name]
		}
		if ok {
			fmt.Fprintf(&b, "%s %s\n", name, sum)
		}
	}
	if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
