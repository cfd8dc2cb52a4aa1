package policy

import (
	"flag"
	"fmt"
	"strings"

	"msweb/internal/core"
)

// Flags is the unified policy flag surface. Every binary that places
// requests registers the same five flags through Register, so
// `-policy`, `-admission-policy`, `-routing-policy`, `-routing-scorers`
// and `-scheduling-policy` mean the same thing in msbench and
// mscluster, and `-list-policies` prints the same catalog everywhere.
type Flags struct {
	// Preset selects a registry preset (-policy).
	Preset string
	// Admission, Routing, Scorers override the preset with a custom
	// pipeline; setting any of them switches to Spec assembly.
	Admission string
	Routing   string
	Scorers   string
	// Scheduling selects the per-node discipline; it applies to presets
	// and custom pipelines alike (the execution plane consumes it).
	Scheduling string
	// List requests the catalog print-and-exit path (-list-policies).
	List bool
}

// Register installs the unified flag set into fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Preset, "policy", "ms", "policy preset (see -list-policies)")
	fs.StringVar(&f.Admission, "admission-policy", "", "custom pipeline: admission stage (theta2, theta2-observe, open, slaves-only)")
	fs.StringVar(&f.Routing, "routing-policy", "", "custom pipeline: routing stage (rsrc, jsqD, maxweight, cmu, random, scorers)")
	fs.StringVar(&f.Scorers, "routing-scorers", "", "scorer composition for -routing-policy scorers, e.g. rsrc:1,qlen:0.5")
	fs.StringVar(&f.Scheduling, "scheduling-policy", "", "per-node discipline: mlfq (default), rr, fcfs")
	fs.BoolVar(&f.List, "list-policies", false, "print the policy catalog and exit")
}

// Custom reports whether any pipeline-stage flag was set, switching
// resolution from the preset table to Spec assembly.
func (f Flags) Custom() bool {
	return f.Admission != "" || f.Routing != "" || f.Scorers != ""
}

// Spec returns the custom-pipeline spec the stage flags describe.
func (f Flags) Spec() Spec {
	return Spec{Admission: f.Admission, Routing: f.Routing, Scorers: f.Scorers, Scheduling: f.Scheduling}
}

// Resolve validates the selection and returns a Builder for it. Custom
// stage flags win over -policy; every stage name is checked eagerly so
// a typo fails at startup, not at first placement.
func (f Flags) Resolve() (Builder, error) {
	if err := ValidDiscipline(f.Scheduling); err != nil {
		return nil, err
	}
	if f.Custom() {
		spec := f.Spec()
		if _, err := spec.Build(nil, 0); err != nil {
			return nil, err
		}
		return func(wt core.WTable, seed int64) core.Policy {
			p, err := spec.Build(wt, seed)
			if err != nil {
				// Unreachable: the spec validated above and Build is
				// deterministic in its names.
				panic(err)
			}
			return p
		}, nil
	}
	p, err := Lookup(f.Preset)
	if err != nil {
		return nil, err
	}
	return p.Build, nil
}

// ListText renders the shared -list-policies catalog. Every front-end
// prints this same text so the documented surface cannot drift.
func ListText() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Policy presets (-policy NAME):")
	for _, p := range presets {
		fmt.Fprintf(&b, "  %-12s %s\n", p.Name, p.Desc)
	}
	fmt.Fprintln(&b, "\nCustom pipelines (stage flags override -policy):")
	fmt.Fprintf(&b, "  -admission-policy   %s\n", strings.Join(Admissions(), ", "))
	fmt.Fprintf(&b, "  -routing-policy     %s  (jsqD: any width, e.g. jsq2, jsq5)\n", strings.Join(Routings(), ", "))
	fmt.Fprintf(&b, "  -routing-scorers    %s  (name:weight, e.g. rsrc:1,qlen:0.5)\n", strings.Join(ScorerNames(), ", "))
	fmt.Fprintf(&b, "  -scheduling-policy  %s\n", strings.Join(core.Disciplines(), ", "))
	return b.String()
}
