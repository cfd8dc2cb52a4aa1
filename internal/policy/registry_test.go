package policy

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"msweb/internal/core"
	"msweb/internal/trace"
)

// view returns a small mixed-tier view for smoke-placing policies.
func view() *core.View {
	v := &core.View{Masters: []int{0, 1}, Slaves: []int{2, 3, 4}, Load: make([]core.Load, 5)}
	for i := range v.Load {
		v.Load[i] = core.Load{CPUIdle: 0.5, DiskAvail: 0.6, CPUQueue: i, DiskQueue: 1}
	}
	return v
}

func TestEveryPresetBuildsAndPlaces(t *testing.T) {
	for _, p := range Presets() {
		pol := p.Build(nil, 1)
		if pol == nil {
			t.Fatalf("preset %q built nil", p.Name)
		}
		if pol.Name() == "" {
			t.Fatalf("preset %q has an empty policy name", p.Name)
		}
		v := view()
		for i := 0; i < 32; i++ {
			cls := trace.Static
			if i%2 == 0 {
				cls = trace.Dynamic
			}
			target := pol.Place(core.Request{Class: cls, Script: i % 4}, i%2, v)
			if target < 0 || target >= len(v.Load) {
				t.Fatalf("preset %q placed at %d, outside the view", p.Name, target)
			}
		}
	}
}

func TestLookupUnknownPreset(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup(nope) must fail")
	}
}

// TestTournamentNamesAreCompetitors pins the default tournament field:
// the paper's scheduler, its θ₂ ablation, maxweight (its citation is a
// scorecard row) and the uncited baselines.
func TestTournamentNamesAreCompetitors(t *testing.T) {
	want := []string{"ms", "ms-nr", "jsq2", "maxweight", "cmu", "greedy-rsrc", "random"}
	if got := TournamentNames(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tournament field %v, want %v", got, want)
	}
}

func TestResolveRejectsBadNames(t *testing.T) {
	bad := [][]string{
		{"-policy", "nope"},
		{"-policy", ""},
		{"-policy", "ms,flat"}, // a list is msbench's tournament syntax
	}
	for _, args := range bad {
		var f Flags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		if _, err := f.Resolve(); err == nil {
			t.Fatalf("resolve %v must fail", args)
		}
	}
}

func TestListTextMentionsEverything(t *testing.T) {
	txt := ListText()
	for _, p := range Presets() {
		if !strings.Contains(txt, p.Name) || !strings.Contains(txt, p.Desc) {
			t.Fatalf("ListText missing preset %q:\n%s", p.Name, txt)
		}
	}
}

// TestSeedDeterminism: same builder + same seed ⇒ identical decision
// streams; this is what makes tournament cells reproducible.
func TestSeedDeterminism(t *testing.T) {
	for _, p := range Presets() {
		a, b := p.Build(nil, 3), p.Build(nil, 3)
		v1, v2 := view(), view()
		for i := 0; i < 64; i++ {
			req := core.Request{Class: trace.Dynamic, Script: i % 3}
			if got, want := a.Place(req, 0, v1), b.Place(req, 0, v2); got != want {
				t.Fatalf("preset %q diverged at request %d: %d vs %d", p.Name, i, got, want)
			}
		}
	}
}

// TestDesignListsEveryPreset keeps DESIGN.md §8 in step with the
// registry: its preset table names exactly Names(), in order, and the
// section mentions none of the removed custom-pipeline surface.
func TestDesignListsEveryPreset(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 8. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §8")
	}
	sec := doc[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\|")
	var listed []string
	for _, m := range row.FindAllStringSubmatch(sec, -1) {
		listed = append(listed, m[1])
	}
	if want := Names(); strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("DESIGN.md §8 lists presets %v, registry has %v", listed, want)
	}
	for _, gone := range []string{"-admission-policy", "-routing-policy", "-routing-scorers", "policy.Spec", "AbsorptionGate", "scorer", "all three binaries"} {
		if strings.Contains(sec, gone) {
			t.Errorf("DESIGN.md §8 still mentions %q", gone)
		}
	}
}
