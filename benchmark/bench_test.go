package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredSurface holds spec.go and BENCHMARK.json to each other:
// same workloads, same metrics, same units, directions and bounds.
func TestDeclaredSurface(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\nBENCHMARK.json %+v\nspec.go        %+v", b.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nspec.go        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nspec.go        %+v", b.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range declaredNames() {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var setup bool
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
}

func declaredNames() []string {
	var out []string
	for _, w := range workloadSpecs {
		out = append(out, w.Name)
	}
	for _, m := range endToEnd {
		out = append(out, m.Name)
	}
	for _, m := range perLayer {
		out = append(out, m.Name)
	}
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload untraced and traced at smoke size, so
// that the harness keeps compiling and passing its own output checks as
// internal/ APIs move, and checks that what it emits is what it declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live loopback clusters")
	}
	t.Setenv("MSWEB_BENCH_DIR", t.TempDir())
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(options{workload: w.Name, seed: 1, seconds: 0.6, windows: 2, trace: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: invalid=%q checks=%+v", w.Name, traced, res.Invalid, res.Checks)
			}
			if got, want := keys(res.EndToEnd), specNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: end-to-end names %v, declared %v", w.Name, got, want)
			}
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			// compare reads documents back: they must survive a round trip.
			buf, err := json.Marshal(document{Workloads: map[string]*workloadResult{w.Name: res}})
			if err != nil {
				t.Fatal(err)
			}
			var back document
			if err := json.Unmarshal(buf, &back); err != nil {
				t.Fatalf("%s: document does not unmarshal: %v", w.Name, err)
			}
			if got := back.Workloads[w.Name].EndToEnd["req_per_s"]; got.Spread == nil || got.Value != res.EndToEnd["req_per_s"].Value {
				t.Errorf("%s: req_per_s did not survive the round trip: %+v", w.Name, got)
			}
			if !traced {
				continue
			}
			if got, want := keys(res.PerLayer), specNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: per-layer names %v, declared %v", w.Name, got, want)
			}
			if len(res.Residuals) != 3 {
				t.Errorf("%s: %d residuals printed, want 3", w.Name, len(res.Residuals))
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for ns := int64(1); ns <= 100000; ns++ {
		h.record(ns)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.992 || got > want*1.008 {
			t.Errorf("quantile(%v) = %v, want %v within 0.8 %%", q, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	mk := func(vals ...float64) metricValue {
		sp := summarise(vals)
		return metricValue{Value: sp.Median, Spread: &sp}
	}
	steady := mk(100, 101, 99, 100, 100, 101, 99, 100, 100, 100)
	for _, tc := range []struct {
		name   string
		a, b   metricValue
		better string
		want   string
	}{
		{"same", steady, steady, "higher", "unchanged"},
		{"slower", steady, mk(80, 81, 79, 80, 80, 81, 79, 80, 80, 80), "higher", "worse"},
		{"faster", steady, mk(110, 111, 109, 110, 110, 111, 109, 110, 110, 110), "higher", "gain"},
		{"lower is better", steady, mk(110, 111, 109, 110, 110, 111, 109, 110, 110, 110), "lower", "unchanged"},
		{"noisy parent", mk(100, 140, 60, 100, 130, 70, 100, 120, 80, 100), steady, "higher", "unresolved"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, 0.15); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
