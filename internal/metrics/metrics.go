// Package metrics implements the performance measures used throughout the
// reproduction, foremost the paper's primary metric: the stretch factor.
//
// Given requests with service demands d_1..d_n (the processing time a
// request would take on an otherwise idle server) and server-site response
// times t_1..t_n (arrival to completion, excluding Internet latency), the
// stretch factor is
//
//	SF = (1/n) * Σ t_i / d_i
//
// SF = 1 means every request ran as if alone on the machine; SF = k means
// requests were slowed k-fold on average by resource sharing. The paper
// (following Jain, and Bender/Chakrabarti/Muthukrishnan) prefers stretch
// over raw response time because it weights a customer's wait against what
// they asked for: small static fetches should not be delayed behind long
// CGI jobs.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sample is one completed request observation.
type Sample struct {
	// Demand is the request's intrinsic service demand in seconds.
	Demand float64
	// Response is the server-site response time in seconds.
	Response float64
	// Class tags the request (e.g. "static", "dynamic") for per-class
	// breakdowns; the empty string is a valid class.
	Class string
}

// Stretch returns the sample's individual stretch, Response/Demand.
// Zero-demand samples report stretch 1 (they cannot be slowed down in a
// meaningful way and must not poison the mean with infinities).
func (s Sample) Stretch() float64 {
	if s.Demand <= 0 {
		return 1
	}
	return s.Response / s.Demand
}

// Collector accumulates samples and computes summary statistics. It keeps
// every individual stretch and response time so percentiles remain exact;
// the full Sample (with its class string) is reduced to the two float64
// streams at Add time, so a multi-million-request run retains two flat
// float arrays rather than a slice of structs — the per-class breakdown
// needs only the running aggregates.
type Collector struct {
	stretches []float64
	responses []float64
	byClass   map[string]*running
	overall   running
}

type running struct {
	n           int
	sumStretch  float64
	sumResponse float64
	sumDemand   float64
	maxStretch  float64
}

func (r *running) add(s Sample) {
	st := s.Stretch()
	r.n++
	r.sumStretch += st
	r.sumResponse += s.Response
	r.sumDemand += s.Demand
	if st > r.maxStretch {
		r.maxStretch = st
	}
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byClass: make(map[string]*running)}
}

// Reserve sizes the sample streams for n further samples, so a run of
// known length appends without regrowing them.
func (c *Collector) Reserve(n int) {
	c.stretches = slices.Grow(c.stretches, n)
	c.responses = slices.Grow(c.responses, n)
}

// Add records one completed request.
func (c *Collector) Add(s Sample) {
	if s.Response < 0 || s.Demand < 0 || math.IsNaN(s.Response) || math.IsNaN(s.Demand) {
		panic(fmt.Sprintf("metrics: invalid sample %+v", s))
	}
	c.stretches = append(c.stretches, s.Stretch())
	c.responses = append(c.responses, s.Response)
	c.overall.add(s)
	rc := c.byClass[s.Class]
	if rc == nil {
		rc = &running{}
		c.byClass[s.Class] = rc
	}
	rc.add(s)
}

// Count returns the number of recorded samples.
func (c *Collector) Count() int { return c.overall.n }

// CountClass returns the number of samples recorded for a class.
func (c *Collector) CountClass(class string) int {
	if r := c.byClass[class]; r != nil {
		return r.n
	}
	return 0
}

// StretchFactor returns the mean stretch over all samples, the paper's
// headline metric. An empty collector reports 1 (an idle system slows
// nothing down).
func (c *Collector) StretchFactor() float64 {
	if c.overall.n == 0 {
		return 1
	}
	return c.overall.sumStretch / float64(c.overall.n)
}

// StretchFactorClass returns the mean stretch for one class.
func (c *Collector) StretchFactorClass(class string) float64 {
	r := c.byClass[class]
	if r == nil || r.n == 0 {
		return 1
	}
	return r.sumStretch / float64(r.n)
}

// MeanResponse returns the mean response time in seconds.
func (c *Collector) MeanResponse() float64 {
	if c.overall.n == 0 {
		return 0
	}
	return c.overall.sumResponse / float64(c.overall.n)
}

// MeanResponseClass returns the per-class mean response time.
func (c *Collector) MeanResponseClass(class string) float64 {
	r := c.byClass[class]
	if r == nil || r.n == 0 {
		return 0
	}
	return r.sumResponse / float64(r.n)
}

// MeanDemand returns the mean service demand in seconds.
func (c *Collector) MeanDemand() float64 {
	if c.overall.n == 0 {
		return 0
	}
	return c.overall.sumDemand / float64(c.overall.n)
}

// MaxStretch returns the worst individual stretch observed.
func (c *Collector) MaxStretch() float64 { return c.overall.maxStretch }

// StretchPercentile returns the q-quantile (q in [0,1]) of individual
// stretches by nearest rank. It selects in the stream itself: nothing
// reads the streams in order, and the value does not depend on it.
func (c *Collector) StretchPercentile(q float64) float64 {
	if c.overall.n == 0 {
		return 1
	}
	return nearestRank(c.stretches, q)
}

// ResponsePercentile returns the q-quantile of response times by nearest
// rank, selecting in the stream like StretchPercentile.
func (c *Collector) ResponsePercentile(q float64) float64 {
	if c.overall.n == 0 {
		return 0
	}
	return nearestRank(c.responses, q)
}

// Classes returns the class labels seen, sorted for deterministic output.
func (c *Collector) Classes() []string {
	out := make([]string, 0, len(c.byClass))
	for k := range c.byClass {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary is a value snapshot of a collector, convenient for experiment
// result tables and JSON-free serialization.
type Summary struct {
	Count         int
	StretchFactor float64
	MeanResponse  float64
	MeanDemand    float64
	MaxStretch    float64
	P50Stretch    float64
	P95Stretch    float64
	P99Stretch    float64
	P95Response   float64
	P99Response   float64
	ByClass       map[string]ClassSummary
}

// ClassSummary summarizes one request class.
type ClassSummary struct {
	Count         int
	StretchFactor float64
	MeanResponse  float64
}

// Summarize snapshots the collector.
func (c *Collector) Summarize() Summary {
	s := Summary{
		Count:         c.Count(),
		StretchFactor: c.StretchFactor(),
		MeanResponse:  c.MeanResponse(),
		MeanDemand:    c.MeanDemand(),
		MaxStretch:    c.MaxStretch(),
		P50Stretch:    c.StretchPercentile(0.50),
		P95Stretch:    c.StretchPercentile(0.95),
		P99Stretch:    c.StretchPercentile(0.99),
		P95Response:   c.ResponsePercentile(0.95),
		P99Response:   c.ResponsePercentile(0.99),
		ByClass:       make(map[string]ClassSummary),
	}
	for _, class := range c.Classes() {
		s.ByClass[class] = ClassSummary{
			Count:         c.CountClass(class),
			StretchFactor: c.StretchFactorClass(class),
			MeanResponse:  c.MeanResponseClass(class),
		}
	}
	return s
}
