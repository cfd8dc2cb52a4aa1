package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		KindArrival: "arrival", KindDecision: "decision", KindDispatch: "dispatch",
		KindPhaseCPU: "cpu", KindPhaseDisk: "disk", KindComplete: "complete",
		KindRetry: "retry", KindShed: "shed", KindExhausted: "exhausted",
		EventKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestJSONLEmitsParseableLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(Event{Kind: KindArrival, Req: 1, Time: 0.25, Class: "dynamic", Value: 0.033})
	tr.Emit(Event{Kind: KindDecision, Req: 1, Time: 0.25, Node: 5, Value: 1.375, Admit: true})
	tr.Emit(Event{Kind: KindDispatch, Req: 1, Time: 0.25, Node: 5, Remote: true})
	tr.Emit(Event{Kind: KindPhaseCPU, Req: 1, Time: 0.26, Node: 5, Value: 0.01})
	tr.Emit(Event{Kind: KindPhaseDisk, Req: 1, Time: 0.27, Node: 5, Value: 0.002})
	tr.Emit(Event{Kind: KindComplete, Req: 1, Time: 0.30, Node: 5, Value: 0.05})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 6:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if m["req"] != float64(1) {
			t.Fatalf("line %d req = %v", i, m["req"])
		}
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["ev"] != "arrival" || first["class"] != "dynamic" || first["demand"] != 0.033 {
		t.Fatalf("arrival line wrong: %v", first)
	}
	var dec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &dec); err != nil {
		t.Fatal(err)
	}
	if dec["rsrc"] != 1.375 || dec["admit"] != true || dec["node"] != float64(5) {
		t.Fatalf("decision line wrong: %v", dec)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		tr := NewJSONL(&buf)
		for i := int64(1); i <= 500; i++ {
			tr.Emit(Event{Kind: KindComplete, Req: i, Time: float64(i) / 3, Node: int(i % 7), Value: float64(i) * 0.001})
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical event streams encoded differently")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	vals := []float64{0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != 10 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Sum(), 1.023; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum %v, want %v", got, want)
	}
	if h.Min() != 0.001 || h.Max() != 0.512 {
		t.Fatalf("extremes %v %v", h.Min(), h.Max())
	}
	// Median of 10 values is the 5th (0.016); log-bucket resolution is
	// 12.5%, so the estimate must land within the value's bucket.
	if q := h.Quantile(0.5); q < 0.016 || q > 0.016*1.125 {
		t.Fatalf("p50 %v outside [0.016, 0.018]", q)
	}
	if q := h.Quantile(1); q != 0.512 {
		t.Fatalf("p100 %v, want max", q)
	}
	if q := h.Quantile(0); q < 0.001 || q > 0.001*1.125 {
		t.Fatalf("p0 %v outside the min bucket", q)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	// Exact quantiles of 1..10000 scaled to seconds; bucket estimates
	// must stay within the 12.5% bucket width.
	n := 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := math.Ceil(q*float64(n)) / 1000
		got := h.Quantile(q)
		if got < exact*0.999 || got > exact*1.126 {
			t.Fatalf("q=%v: estimate %v vs exact %v", q, got, exact)
		}
	}
}

func TestHistogramOutOfRangeAndMerge(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)    // underflow
	h.Observe(-5)   // underflow
	h.Observe(1e-9) // below 2^-20
	h.Observe(1e9)  // above 2^10 → overflow
	h.Observe(math.NaN())
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	bks := h.Buckets()
	if len(bks) == 0 || !math.IsInf(bks[len(bks)-1].UpperBound, 1) {
		t.Fatalf("buckets must end at +Inf: %v", bks)
	}
	if bks[len(bks)-1].CumCount != 5 {
		t.Fatalf("cumulative tail %d, want 5", bks[len(bks)-1].CumCount)
	}

	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i) / 100)
	}
	for i := 1; i <= 100; i++ {
		b.Observe(float64(i) / 10)
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(nil)
	if merged.Count() != 200 || merged.Min() != a.Min() || merged.Max() != b.Max() {
		t.Fatalf("merge: count=%d min=%v max=%v", merged.Count(), merged.Min(), merged.Max())
	}
	if got, want := merged.Sum(), a.Sum()+b.Sum(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged sum %v, want %v", got, want)
	}
}

func TestHistogramBucketBoundsMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for i := 0; i < histBuckets; i++ {
		ub := histUpperBound(i)
		if ub <= prev {
			t.Fatalf("bucket %d bound %v ≤ previous %v", i, ub, prev)
		}
		prev = ub
	}
	// Every bound must map values just below it into bucket ≤ i and the
	// bound itself into bucket > i.
	for i := 1; i < histBuckets-1; i++ {
		ub := histUpperBound(i)
		if b := histBucket(ub * (1 - 1e-12)); b > i {
			t.Fatalf("value under bound %v landed in bucket %d > %d", ub, b, i)
		}
		if b := histBucket(ub * (1 + 1e-12)); b <= i {
			t.Fatalf("value over bound %v landed in bucket %d ≤ %d", ub, b, i)
		}
	}
}

func TestWindowedCounter(t *testing.T) {
	w := NewWindowedCounter(10, 10)
	for i := 0; i < 50; i++ {
		w.Add(float64(i)*0.1, 1) // 10 events/s for 5 s
	}
	if r := w.Rate(4.9); math.Abs(r-5.0) > 0.5 { // 50 events in a 10 s window
		t.Fatalf("rate %v, want ≈5", r)
	}
	// 20 s later every bin has aged out.
	if total := w.Total(25); total != 0 {
		t.Fatalf("stale total %d, want 0", total)
	}
	w.Add(25, 7)
	if total := w.Total(25); total != 7 {
		t.Fatalf("total %d, want 7", total)
	}
	// Defaulted construction must not divide by zero.
	d := NewWindowedCounter(0, 0)
	d.Add(1, 3)
	if d.Rate(1) <= 0 {
		t.Fatal("defaulted counter lost events")
	}
}

func TestPromWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Header("msweb_test_gauge", "a test gauge.", "gauge")
	p.Value("msweb_test_gauge", `node="3"`, 0.475)
	p.Value("msweb_test_gauge_bare", "", 2)
	h := NewHistogram()
	h.Observe(0.01)
	h.Observe(0.02)
	p.Histogram("msweb_test_seconds", "a test histogram.", `node="3"`, h)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP msweb_test_gauge a test gauge.\n",
		"# TYPE msweb_test_gauge gauge\n",
		"msweb_test_gauge{node=\"3\"} 0.475\n",
		"msweb_test_gauge_bare 2\n",
		"# TYPE msweb_test_seconds histogram\n",
		"msweb_test_seconds_bucket{node=\"3\",le=\"+Inf\"} 2\n",
		"msweb_test_seconds_sum{node=\"3\"} 0.03",
		"msweb_test_seconds_count{node=\"3\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
