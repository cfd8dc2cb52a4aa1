// Command benchmark is the repository's one benchmark for both planes:
// five named workloads (three on the live loopback cluster, two on the
// simulator), six end-to-end metrics defined on every workload, and a
// per-layer ledger measured from outside — by timing calls into each
// module's exported functions and by reading its exported counters and
// /metrics text. BENCHMARK.json at the repository root declares the same
// surface for the driver; README.md explains every choice.
//
//	bash benchmark/run.sh --workload frame_dynamic --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh                    # all five, one fresh process each
//	bash benchmark/run.sh compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// an output check fails or the run is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// document is what a run writes to its -out file: the environment and
// one result per workload.
type document struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// environment is captured in every output, so two documents can be told
// apart before they are compared.
type environment struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
	When       string  `json:"when"`
}

func captureEnv(o options) environment {
	commit := os.Getenv("MSWEB_BENCH_COMMIT") // run.sh asks git; a bare checkout has none
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Clients: clientCount(1), Seed: o.seed, Seconds: o.seconds, Windows: o.windows,
		Traced: o.trace, Smoke: o.smoke, When: time.Now().UTC().Format(time.RFC3339),
	}
}

// outDir is where results and traces go: benchmark/out, git-ignored.
func outDir() string {
	if d := os.Getenv("MSWEB_BENCH_DIR"); d != "" {
		return filepath.Join(d, "out")
	}
	return "out"
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeTrace writes a traced run's spans, self times and per-layer table.
func writeTrace(o options, res *workloadResult, spans []span) error {
	return writeJSON(filepath.Join(outDir(), "trace-"+o.workload+".json"), struct {
		Workload  string                 `json:"workload"`
		Seed      int64                  `json:"seed"`
		PerLayer  map[string]metricValue `json:"per_layer"`
		Residuals []string               `json:"residuals"`
		SelfTimes []selfTime             `json:"self_times"`
		Spans     []span                 `json:"spans"`
	}{o.workload, o.seed, res.PerLayer, res.Residuals, res.SelfTimes, spans})
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(line resultLine) error {
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(buf))
	return err
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var traceFlag string
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all (one fresh process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seeds every generated request mix and trace")
	flag.Float64Var(&o.seconds, "seconds", 12, "seconds measured per run")
	flag.IntVar(&o.windows, "windows", 12, "measurement windows per live run (a multiple of 3: three cluster lifetimes)")
	flag.StringVar(&traceFlag, "trace", "0", "1: traced run — spans, probes and the per-layer table")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny cells and probe budgets, for the smoke test")
	flag.StringVar(&o.out, "out", "", "result document (default benchmark/out/<workload>[-trace].json)")
	flag.Parse()
	traced, err := strconv.ParseBool(traceFlag)
	if err != nil || flag.NArg() > 0 || o.seconds <= 0 || o.windows < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traced
	if o.out == "" {
		name := o.workload
		if o.trace {
			name += "-trace"
		}
		o.out = filepath.Join(outDir(), name+".json")
	}

	run := runOne
	if o.workload == "all" {
		run = runAll
	}
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// runOne runs one workload in this process, writes its document and
// prints the driver's result line.
func runOne(o options) (bool, error) {
	res, err := runWorkload(o)
	if err != nil {
		return false, err
	}
	doc := document{Env: captureEnv(o), Workloads: map[string]*workloadResult{o.workload: res}}
	if err := writeJSON(o.out, doc); err != nil {
		return false, err
	}
	report(os.Stderr, res)

	line := resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	metrics := res.EndToEnd
	if o.trace {
		metrics = res.PerLayer
	}
	for name, m := range metrics {
		line.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	return line.Correct, printResultLine(line)
}

// runAll runs every workload in a fresh process of its own (so that
// peak_rss_mb and setup_s are per workload), merges their documents,
// prints the merged document and a closing result line.
func runAll(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	doc := document{Env: captureEnv(o), Workloads: map[string]*workloadResult{}}
	line := resultLine{Correct: true, Metrics: map[string]driverValue{}}
	for _, w := range workloadSpecs {
		part := filepath.Join(filepath.Dir(o.out), "."+w.Name+".part.json")
		cmd := exec.Command(self,
			"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-windows", strconv.Itoa(o.windows), "-trace", strconv.FormatBool(o.trace),
			"-smoke="+strconv.FormatBool(o.smoke), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		runErr := cmd.Run()
		var child document
		buf, err := os.ReadFile(part)
		if err == nil {
			err = json.Unmarshal(buf, &child)
		}
		os.Remove(part) //nolint:errcheck // a leftover part file is only clutter
		if err != nil {
			return false, fmt.Errorf("workload %s: %v (document: %w)", w.Name, runErr, err)
		}
		res := child.Workloads[w.Name]
		doc.Workloads[w.Name] = res
		line.Correct = line.Correct && runErr == nil && res.correct()
		line.Attempted += res.Attempted
		line.Failed += res.Failed
	}
	if err := writeJSON(o.out, doc); err != nil {
		return false, err
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Println(string(buf))
	return line.Correct, printResultLine(line)
}

// report prints a run's metrics by name with units, for people.
func report(w *os.File, res *workloadResult) {
	fmt.Fprintf(w, "%s seed=%d traced=%v valid=%v samples=%d dropped=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.Valid, res.Samples, res.Dropped, res.Attempted, res.Failed)
	if res.Invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s\n", res.Invalid)
	}
	for _, m := range endToEnd {
		v := res.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-16s %14.6g %-6s min %.6g q1 %.6g q3 %.6g max %.6g n=%d\n",
			m.Name, v.Value, v.Unit, v.Min, v.Q1, v.Q3, v.Max, v.N)
	}
	if t := res.Tail; t != nil {
		fmt.Fprintf(w, "  highest percentile with >=10 samples beyond it: p%g = %.6g us (%d samples)\n", t.Percentile, t.ValueUs, t.Samples)
	}
	if res.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", res.Digest)
	}
	if res.PerLayer != nil {
		names := make([]string, 0, len(res.PerLayer))
		for name := range res.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-46s %14.6g %s\n", name, res.PerLayer[name].Value, res.PerLayer[name].Unit)
		}
		for _, r := range res.Residuals {
			fmt.Fprintf(w, "  %s\n", r)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
}
