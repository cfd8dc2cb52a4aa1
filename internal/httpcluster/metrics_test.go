package httpcluster

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"msweb/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// scrape fetches a URL's /metrics page.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

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
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// A freshly launched node's exposition page is fully deterministic, so
// the text format is pinned byte-for-byte by a golden file.
func TestNodeMetricsGolden(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	checkGolden(t, "node_metrics.golden", scrape(t, n.URL))
}

func TestMasterMetricsGolden(t *testing.T) {
	// Hour-long periods: no poll or tick fires during the test, and
	// LaunchMaster's priming Tick fixes θ₂ from the topology (m=1, p=2
	// with the controller's fallback a and r).
	m, err := LaunchMaster(NodeOptions{
		ID:          0,
		Masters:     []int{0},
		Slaves:      []int{1},
		NodeURLs:    []string{"", "http://unused.invalid"},
		Policy:      core.NewMS(nil, 1),
		LoadRefresh: time.Hour, PolicyTick: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	got := scrape(t, m.URL)
	checkGolden(t, "master_metrics.golden", got)

	// The acceptance gauges must be present with their primed values.
	for _, want := range []string{
		`msweb_scheduler_theta2{node="0"} 0.475`,
		`msweb_scheduler_arrival_ratio{node="0"} 0.5`,
		`msweb_scheduler_service_ratio{node="0"} 0.025`,
		`msweb_scheduler_rsrc{node="0"} 1`,
		`msweb_scheduler_rsrc{node="1"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

// The policy-info family's scheduling label is the discipline the
// master's node runs, not a property of the policy.
func TestPolicyInfoReportsNodeDiscipline(t *testing.T) {
	for _, d := range core.Disciplines() {
		m, err := LaunchMaster(NodeOptions{
			ID:          0,
			Masters:     []int{0},
			Slaves:      []int{1},
			NodeURLs:    []string{"", "http://unused.invalid"},
			Policy:      core.NewMS(nil, 1),
			Discipline:  d,
			LoadRefresh: time.Hour, PolicyTick: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := scrape(t, m.URL)
		m.Shutdown()
		want := `msweb_scheduler_policy_info{node="0",policy="M/S",admission="theta2",routing="rsrc",scheduling="` + d + `"} 1`
		if !strings.Contains(got, want) {
			t.Errorf("discipline %q: missing %q in:\n%s", d, want, got)
		}
	}
}

// After real traffic the histogram families must carry the samples.
func TestMetricsReflectTraffic(t *testing.T) {
	n, err := LaunchNode(NodeOptions{ID: 1, TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(n.URL + "/exec?w=0.5&demand=0.02&fork=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	got := scrape(t, n.URL)
	for _, want := range []string{
		`msweb_node_executed_total{node="1"} 3`,
		`msweb_node_cgi_served_total{node="1"} 3`,
		`msweb_node_service_seconds_count{node="1"} 3`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

func TestNodeOptionsValidate(t *testing.T) {
	if err := (NodeOptions{ID: -1}).Validate(false); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := (NodeOptions{TimeScale: -1}).Validate(false); err == nil {
		t.Fatal("negative time scale accepted")
	}
	ok := NodeOptions{
		ID: 0, Masters: []int{0}, Slaves: []int{1},
		NodeURLs: []string{"", "x"}, Policy: core.NewMS(nil, 1),
		LoadRefresh: time.Second, PolicyTick: time.Second,
	}
	if err := ok.Validate(true); err != nil {
		t.Fatalf("valid master options rejected: %v", err)
	}
	bad := ok
	bad.Policy = nil
	if err := bad.Validate(true); err == nil {
		t.Fatal("master without policy accepted")
	}
	bad = ok
	bad.PolicyTick = 0
	if err := bad.Validate(true); err == nil {
		t.Fatal("zero policy tick accepted")
	}
	bad = ok
	bad.NodeURLs = nil
	if err := bad.Validate(true); err == nil {
		t.Fatal("master id outside NodeURLs accepted")
	}
	bad = ok
	bad.Slaves = []int{7}
	if err := bad.Validate(true); err == nil {
		t.Fatal("tier member outside NodeURLs accepted")
	}
}
