package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStretchFactorBasic(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 2, Class: "static"})
	c.Add(Sample{Demand: 2, Response: 2, Class: "dynamic"})
	// stretches: 2 and 1 → mean 1.5
	if got := c.StretchFactor(); !approx(got, 1.5, 1e-12) {
		t.Fatalf("StretchFactor = %v, want 1.5", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if got := c.StretchFactor(); got != 1 {
		t.Fatalf("empty StretchFactor = %v, want 1", got)
	}
	if got := c.MeanResponse(); got != 0 {
		t.Fatalf("empty MeanResponse = %v, want 0", got)
	}
	if got := c.StretchPercentile(0.5); got != 1 {
		t.Fatalf("empty percentile = %v, want 1", got)
	}
	if got := c.StretchFactorClass("x"); got != 1 {
		t.Fatalf("empty class SF = %v, want 1", got)
	}
}

func TestZeroDemandStretchIsOne(t *testing.T) {
	s := Sample{Demand: 0, Response: 5}
	if got := s.Stretch(); got != 1 {
		t.Fatalf("zero-demand stretch = %v, want 1", got)
	}
}

func TestInvalidSamplePanics(t *testing.T) {
	c := NewCollector()
	defer func() {
		if recover() == nil {
			t.Fatal("negative response did not panic")
		}
	}()
	c.Add(Sample{Demand: 1, Response: -1})
}

func TestPerClassBreakdown(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 3, Class: "static"})
	c.Add(Sample{Demand: 1, Response: 1, Class: "static"})
	c.Add(Sample{Demand: 10, Response: 50, Class: "dynamic"})
	if got := c.StretchFactorClass("static"); !approx(got, 2, 1e-12) {
		t.Fatalf("static SF = %v, want 2", got)
	}
	if got := c.StretchFactorClass("dynamic"); !approx(got, 5, 1e-12) {
		t.Fatalf("dynamic SF = %v, want 5", got)
	}
	if got := c.CountClass("static"); got != 2 {
		t.Fatalf("static count = %d, want 2", got)
	}
	classes := c.Classes()
	if len(classes) != 2 || classes[0] != "dynamic" || classes[1] != "static" {
		t.Fatalf("Classes() = %v", classes)
	}
}

func TestOverallEqualsWeightedClassMean(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 2, Class: "a"})
	c.Add(Sample{Demand: 1, Response: 4, Class: "a"})
	c.Add(Sample{Demand: 1, Response: 6, Class: "b"})
	want := (2.0 + 4.0 + 6.0) / 3
	if got := c.StretchFactor(); !approx(got, want, 1e-12) {
		t.Fatalf("overall SF = %v, want %v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.Add(Sample{Demand: 1, Response: float64(i)})
	}
	if got := c.StretchPercentile(0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := c.StretchPercentile(0.95); got != 95 {
		t.Fatalf("p95 = %v, want 95", got)
	}
	if got := c.StretchPercentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := c.StretchPercentile(1); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
}

func TestPercentileCacheInvalidation(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 1})
	_ = c.StretchPercentile(0.5)
	c.Add(Sample{Demand: 1, Response: 100})
	if got := c.StretchPercentile(1); got != 100 {
		t.Fatalf("percentile after post-sort Add = %v, want 100", got)
	}
}

func TestMaxima(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 2})
	c.Add(Sample{Demand: 0.5, Response: 5})
	if got := c.MaxStretch(); got != 10 {
		t.Fatalf("MaxStretch = %v, want 10", got)
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 2, Class: "static"})
	c.Add(Sample{Demand: 4, Response: 8, Class: "dynamic"})
	s := c.Summarize()
	if s.Count != 2 {
		t.Fatalf("Count = %d", s.Count)
	}
	if !approx(s.StretchFactor, 2, 1e-12) {
		t.Fatalf("summary SF = %v", s.StretchFactor)
	}
	if !approx(s.MeanDemand, 2.5, 1e-12) {
		t.Fatalf("summary MeanDemand = %v", s.MeanDemand)
	}
	if s.ByClass["static"].Count != 1 || s.ByClass["dynamic"].Count != 1 {
		t.Fatalf("summary ByClass = %+v", s.ByClass)
	}
}

// Property: stretch factor is always >= 1 when response >= demand.
func TestStretchAtLeastOneProperty(t *testing.T) {
	f := func(demands []float64) bool {
		c := NewCollector()
		for _, d := range demands {
			d = math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			// response always >= demand: queueing can only add delay
			c.Add(Sample{Demand: d, Response: d * 1.5})
		}
		return c.StretchFactor() >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-class counts sum to the total count.
func TestClassCountsSumProperty(t *testing.T) {
	f := func(classes []bool) bool {
		c := NewCollector()
		for _, isStatic := range classes {
			cl := "dynamic"
			if isStatic {
				cl = "static"
			}
			c.Add(Sample{Demand: 1, Response: 1, Class: cl})
		}
		total := 0
		for _, cl := range c.Classes() {
			total += c.CountClass(cl)
		}
		return total == c.Count() && c.Count() == len(classes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponsePercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.Add(Sample{Demand: 1, Response: float64(i) / 100})
	}
	if got := c.ResponsePercentile(0.95); !approx(got, 0.95, 1e-12) {
		t.Fatalf("p95 response = %v", got)
	}
	if got := c.ResponsePercentile(0); !approx(got, 0.01, 1e-12) {
		t.Fatalf("p0 response = %v", got)
	}
	if got := c.ResponsePercentile(1); !approx(got, 1.0, 1e-12) {
		t.Fatalf("p100 response = %v", got)
	}
	if got := NewCollector().ResponsePercentile(0.5); got != 0 {
		t.Fatalf("empty p50 response = %v", got)
	}
	s := c.Summarize()
	if !approx(s.P95Response, 0.95, 1e-12) || !approx(s.P99Response, 0.99, 1e-12) {
		t.Fatalf("summary percentiles: %v %v", s.P95Response, s.P99Response)
	}
	// A read after an Add sees the new sample.
	_ = c.ResponsePercentile(0.5)
	c.Add(Sample{Demand: 1, Response: 50})
	if got := c.ResponsePercentile(1); got != 50 {
		t.Fatalf("response percentile missed the new sample: %v", got)
	}
}

func TestReserveLetsAddsAppendInPlace(t *testing.T) {
	c := NewCollector()
	c.Add(Sample{Demand: 1, Response: 2})
	const n = 1000
	c.Reserve(n)
	stretches, responses := &c.stretches[0], &c.responses[0]
	for i := 0; i < n; i++ {
		c.Add(Sample{Demand: 1, Response: 2})
	}
	if c.Count() != n+1 {
		t.Fatalf("count %d, want %d", c.Count(), n+1)
	}
	if &c.stretches[0] != stretches || &c.responses[0] != responses {
		t.Fatalf("%d adds after Reserve(%d) regrew the sample streams", n, n)
	}
}
