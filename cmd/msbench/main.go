// Command msbench regenerates the paper's tables and figures.
//
// Usage:
//
//	msbench -experiment all                # everything (several minutes)
//	msbench -experiment fig3               # one artifact
//	msbench -experiment fig4a -quick       # reduced fidelity
//
// Experiments, in the order "all" runs them: table1, table2, fig3,
// fig4a, fig4b, fig5 (the paper's artifacts); cachesweep, failover,
// flashcrowd, autoscale, hetero (extension studies); discipline,
// openclosed (analysis and methodology); wsense, staleness (ablations);
// tournament, sharded (policy and control-plane comparisons); table3
// (the live loopback validation).
//
// Each experiment builds one report.Table: stdout gets its text
// rendering, -csv DIR its CSV, and stderr the progress lines, so
// "msbench -experiment x > results/x.txt" captures the table alone.
//
// Simulation grids run on a bounded worker pool (-parallel, default
// GOMAXPROCS; -parallel 1 forces the sequential order — output is
// byte-identical either way). -cpuprofile/-memprofile write pprof
// profiles for the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"msweb/internal/experiments"
	"msweb/internal/policy"
	"msweb/internal/report"
)

// settings is what the experiment runners read from the command line.
type settings struct {
	quick bool
	opts  experiments.Options
	tourn experiments.TournamentConfig
}

// experiment is one selectable artifact: run computes its rows and
// returns the table that is both printed and written as CSV.
type experiment struct {
	name string
	run  func(s *settings) (*report.Table, error)
}

// experimentList is every experiment in "all" order; the -experiment
// help and the package doc (TestDocListsEveryExperiment) follow it.
var experimentList = []experiment{
	{"table1", func(s *settings) (*report.Table, error) {
		n := 20000
		if s.quick {
			n = 3000
		}
		rows, err := experiments.RunTable1(n, 1)
		if err != nil {
			return nil, err
		}
		return experiments.Table1Table(rows), nil
	}},
	{"table2", func(s *settings) (*report.Table, error) {
		return experiments.Table2Table(experiments.RunTable2(s.opts)), nil
	}},
	{"fig3", func(*settings) (*report.Table, error) {
		return experiments.Fig3Table(experiments.RunFig3()), nil
	}},
	{"fig4a", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunFig4(32, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.Fig4Table(32, rows), nil
	}},
	{"fig4b", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunFig4(128, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.Fig4Table(128, rows), nil
	}},
	{"fig5", func(s *settings) (*report.Table, error) {
		res, err := experiments.RunFig5(32, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.Fig5Table(res), nil
	}},
	{"cachesweep", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunCacheSweep(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.CacheSweepTable(16, rows), nil
	}},
	{"failover", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunFailoverStudy(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.FailoverTable(16, rows), nil
	}},
	{"flashcrowd", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunFlashCrowd(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.FlashCrowdTable(16, rows), nil
	}},
	{"autoscale", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunAutoscale(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.AutoscaleTable(16, rows), nil
	}},
	{"hetero", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunHeteroStudy(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.HeteroTable(16, rows), nil
	}},
	{"discipline", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunDiscipline(32, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.DisciplineTable(32, rows), nil
	}},
	{"openclosed", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunOpenClosed(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.OpenClosedTable(16, rows), nil
	}},
	{"wsense", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunWSensitivity(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.WSensitivityTable(16, rows), nil
	}},
	{"staleness", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunStaleness(16, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.StalenessTable(16, rows), nil
	}},
	{"tournament", func(s *settings) (*report.Table, error) {
		rows, err := experiments.RunTournament(16, s.opts, s.tourn)
		if err != nil {
			return nil, err
		}
		return experiments.TournamentTable(16, rows), nil
	}},
	{"sharded", func(s *settings) (*report.Table, error) {
		fleets := []int{1000, 4000, 10000}
		if s.quick {
			fleets = []int{256, 1024}
		}
		rows, err := experiments.RunShardScale(fleets, s.opts)
		if err != nil {
			return nil, err
		}
		return experiments.ShardScaleTable(rows), nil
	}},
	{"table3", func(s *settings) (*report.Table, error) {
		t3 := experiments.DefaultTable3Options()
		if s.quick {
			t3 = experiments.QuickTable3Options()
		}
		rows, err := experiments.RunTable3(t3)
		if err != nil {
			return nil, err
		}
		return experiments.Table3Table(rows), nil
	}},
}

// experimentNames lists the experiments in "all" order.
func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}

// run parses args and executes the selected experiments. Split from
// main for testability. Tables go to stdout; warnings to stderr, so
// piped table output stays clean.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("msbench", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "which artifact to regenerate ("+strings.Join(experimentNames(), "|")+"|all)")
	var pf policy.Flags
	pf.Register(fs)
	quick := fs.Bool("quick", false, "reduced fidelity: fewer seeds, shorter replays")
	seeds := fs.Int("seeds", 0, "override the number of seeds averaged per cell")
	rho := fs.Float64("rho", 0, "override the target flat utilization (0 = default 0.65)")
	csvDir := fs.String("csv", "", "also write each experiment's rows as CSV into this directory")
	par := fs.Int("parallel", 0, "grid worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	traceOut := fs.String("trace-out", "", "write per-request lifecycle traces (JSONL) of fig4 cells to this file")
	traceMatch := fs.String("trace-match", "", "only trace cells whose label contains this substring (empty = all cells)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pf.List {
		fmt.Fprint(stdout, policy.ListText())
		return nil
	}
	set := settings{quick: *quick}
	// The unified policy flags select the tournament field: -policy takes
	// a comma-separated preset list here (it names one preset in the
	// serving binaries), and the stage flags add one custom pipeline
	// entrant on top.
	policySet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "policy" {
			policySet = true
		}
	})
	if policySet {
		for _, name := range strings.Split(pf.Preset, ",") {
			if name = strings.TrimSpace(name); name != "" {
				set.tourn.Policies = append(set.tourn.Policies, name)
			}
		}
	}
	if pf.Custom() {
		build, err := pf.Resolve()
		if err != nil {
			return err
		}
		name := pf.Spec().Name
		if name == "" {
			name = "custom"
		}
		set.tourn.Extra = append(set.tourn.Extra, policy.Preset{Name: name, Build: build})
	}

	experiments.SetParallelism(*par)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "msbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "msbench: memprofile:", err)
			}
		}()
	}

	emit := func(t *report.Table) error { return nil }
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		emit = func(t *report.Table) error {
			path := filepath.Join(*csvDir, report.Slug(t.Title)+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := t.WriteCSV(f); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
			return nil
		}
	}

	set.opts = experiments.Default()
	if *quick {
		set.opts = experiments.Quick()
	}
	if *seeds > 0 {
		set.opts.Seeds = set.opts.Seeds[:0]
		for i := 1; i <= *seeds; i++ {
			set.opts.Seeds = append(set.opts.Seeds, int64(i))
		}
	}
	if *rho > 0 && *rho < 1 {
		set.opts.TargetRho = *rho
	}
	var traces *experiments.TraceCollector
	if *traceOut != "" {
		traces = experiments.NewTraceCollector(*traceMatch)
		set.opts.Trace = traces
	}

	// Experiments that never read the shared Options: table1 sizes
	// itself, fig3 is closed-form, table3 has its own Table3Options.
	ignoresOptions := map[string]bool{"table1": true, "fig3": true, "table3": true}
	var selected []experiment
	var names []string
	for _, e := range experimentList {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
			names = append(names, e.name)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q; choose from %s or all", *exp, strings.Join(experimentNames(), ", "))
	}

	if *seeds > 0 || *rho > 0 {
		affected := false
		for _, name := range names {
			if !ignoresOptions[name] {
				affected = true
				break
			}
		}
		if !affected {
			fmt.Fprintf(stderr, "warning: -seeds/-rho have no effect on %v\n", names)
		}
	}
	if traces != nil {
		// Lifecycle tracing is wired through the Figure 4 grid.
		traced := map[string]bool{"fig4a": true, "fig4b": true}
		affected := false
		for _, name := range names {
			if traced[name] {
				affected = true
				break
			}
		}
		if !affected {
			fmt.Fprintf(stderr, "warning: -trace-out captures nothing for %v (tracing is wired into fig4a/fig4b)\n", names)
		}
	}

	for i, e := range selected {
		start := time.Now()
		tbl, err := e.run(&set)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.name, err)
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := tbl.WriteText(stdout); err != nil {
			return err
		}
		if err := emit(tbl); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "[%s completed in %.1fs]\n", e.name, time.Since(start).Seconds())
	}

	if traces != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := traces.WriteTo(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d trace bytes (%d cells) to %s\n", n, len(traces.Cells()), *traceOut)
	}
	return nil
}
