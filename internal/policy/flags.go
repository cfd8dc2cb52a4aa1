package policy

import (
	"flag"
	"fmt"
	"strings"
)

// Flags is the policy flag surface every binary that places requests
// registers through Register, so -policy means the same thing in
// msbench and mscluster and -list-policies prints the same catalog
// everywhere.
type Flags struct {
	// Preset selects a registry preset (-policy).
	Preset string
	// List requests the catalog print-and-exit path (-list-policies).
	List bool
}

// Register installs the policy flags into fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Preset, "policy", "ms", "policy preset (see -list-policies)")
	fs.BoolVar(&f.List, "list-policies", false, "print the policy catalog and exit")
}

// Resolve returns the Builder of the selected preset, failing on an
// unknown name so a typo fails at startup, not at first placement.
func (f Flags) Resolve() (Builder, error) {
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
	return b.String()
}
