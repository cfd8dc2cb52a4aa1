// Package trace models Web request traces: the request records driven
// through the simulator and the live cluster, the SPECweb96-like fileset
// that replaces static file fetches, and synthetic generators matched to
// the published characteristics of the traces the paper replays (UCB home
// IP, KSU online library, ADL digital library; DEC appears in Table 1
// only).
//
// The paper itself cannot replay its logs literally — CGI URLs are
// scrambled or reference proprietary backends — so it substitutes
// synthetic work: a WebSTONE CPU-spinning script for UCB, WebGlimpse
// index search (≈90% CPU) for KSU, and a replicated ADL catalog (≈90%
// I/O) for ADL, with all file fetches replaced by the 40 representative
// SPECweb96 files. The generators here synthesize traces with exactly
// those class mixes, size statistics and CPU/I-O weights, which is the
// full information content the paper extracts from the original logs.
package trace

import (
	"fmt"
	"math"
)

// Class distinguishes the two request types of the paper.
type Class uint8

const (
	// Static requests are plain file fetches, cheap and I/O-light.
	Static Class = iota
	// Dynamic requests invoke CGI-style content generation and carry
	// the bulk of CPU and disk demand.
	Dynamic
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Request is one trace record. The two narrow fields come last and share
// one word, so a record is six words.
type Request struct {
	// Arrival is the request's arrival time in seconds since trace start.
	Arrival float64
	// Size is the response size in bytes (the fetched file for statics,
	// the generated document for dynamics).
	Size int64
	// Demand is the service demand in seconds: the time the request
	// needs on an otherwise idle node. The stretch factor divides
	// response times by this value.
	Demand float64
	// CPUWeight is w ∈ [0, 1], the fraction of the demand attributable
	// to CPU (the rest is disk I/O). The RSRC formula consumes the
	// per-script off-line sample of this value.
	CPUWeight float64
	// Script identifies the CGI program for dynamic requests (statics
	// use 0). Off-line w sampling is performed per script.
	Script int
	// MemPages is the resident working-set size of the handling process
	// in pages; the simulated VM manager allocates and touches them.
	MemPages int32
	// Class is Static or Dynamic.
	Class Class
}

// Trace is an ordered sequence of requests plus provenance.
type Trace struct {
	Name     string
	Requests []Request
	// Scripts, when positive, is the script count: every dynamic
	// request's Script is in 1..Scripts. Generate sets it; 0 (Read,
	// ReadCLF, literals) means unknown.
	Scripts int
}

// Duration returns the arrival span of the trace in seconds.
func (t *Trace) Duration() float64 {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival - t.Requests[0].Arrival
}

// Validate checks structural invariants: non-decreasing arrivals,
// non-negative demands and sizes, weights within [0, 1].
func (t *Trace) Validate() error {
	prev := math.Inf(-1)
	for i, r := range t.Requests {
		switch {
		case math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0):
			return fmt.Errorf("trace %s: request %d has non-finite arrival %v", t.Name, i, r.Arrival)
		case math.IsNaN(r.Demand) || math.IsInf(r.Demand, 0):
			return fmt.Errorf("trace %s: request %d has non-finite demand %v", t.Name, i, r.Demand)
		case math.IsNaN(r.CPUWeight):
			return fmt.Errorf("trace %s: request %d has NaN CPU weight", t.Name, i)
		case r.Arrival < prev:
			return fmt.Errorf("trace %s: request %d arrives at %v before predecessor %v", t.Name, i, r.Arrival, prev)
		case r.Demand < 0:
			return fmt.Errorf("trace %s: request %d has negative demand %v", t.Name, i, r.Demand)
		case r.Size < 0:
			return fmt.Errorf("trace %s: request %d has negative size %d", t.Name, i, r.Size)
		case r.CPUWeight < 0 || r.CPUWeight > 1:
			return fmt.Errorf("trace %s: request %d has CPU weight %v outside [0,1]", t.Name, i, r.CPUWeight)
		case r.MemPages < 0:
			return fmt.Errorf("trace %s: request %d has negative memory requirement", t.Name, i)
		case r.Class != Static && r.Class != Dynamic:
			return fmt.Errorf("trace %s: request %d has unknown class %d", t.Name, i, r.Class)
		}
		prev = r.Arrival
	}
	return nil
}

// Characteristics are the Table 1 statistics of a trace.
type Characteristics struct {
	Name         string
	Requests     int
	PctCGI       float64 // percentage of dynamic content requests
	MeanInterval float64 // mean inter-arrival time, seconds
	MeanHTMLSize float64 // mean static response size, bytes
	MeanCGISize  float64 // mean dynamic response size, bytes
	ArrivalRatio float64 // a = λ_c/λ_h
	MeanDemandH  float64 // mean static service demand, seconds
	MeanDemandC  float64 // mean dynamic service demand, seconds
	DemandRatio  float64 // r = mean static demand / mean dynamic demand... see R()
}

// Characterize computes the Table 1 statistics for a trace.
func Characterize(t *Trace) Characteristics {
	c := Characteristics{Name: t.Name, Requests: len(t.Requests)}
	if len(t.Requests) == 0 {
		return c
	}
	var nCGI int
	var htmlBytes, cgiBytes float64
	var demandH, demandC float64
	for _, r := range t.Requests {
		if r.Class == Dynamic {
			nCGI++
			cgiBytes += float64(r.Size)
			demandC += r.Demand
		} else {
			htmlBytes += float64(r.Size)
			demandH += r.Demand
		}
	}
	nStatic := len(t.Requests) - nCGI
	c.PctCGI = 100 * float64(nCGI) / float64(len(t.Requests))
	if n := len(t.Requests); n > 1 {
		c.MeanInterval = t.Duration() / float64(n-1)
	}
	if nStatic > 0 {
		c.MeanHTMLSize = htmlBytes / float64(nStatic)
		c.MeanDemandH = demandH / float64(nStatic)
		c.ArrivalRatio = float64(nCGI) / float64(nStatic)
	} else {
		c.ArrivalRatio = math.Inf(1)
	}
	if nCGI > 0 {
		c.MeanCGISize = cgiBytes / float64(nCGI)
		c.MeanDemandC = demandC / float64(nCGI)
	}
	if c.MeanDemandC > 0 && c.MeanDemandH > 0 {
		c.DemandRatio = c.MeanDemandH / c.MeanDemandC
	}
	return c
}

// R returns the service-rate ratio r = μ_c/μ_h implied by the measured
// mean demands (service rate is the reciprocal of demand).
func (c Characteristics) R() float64 { return c.DemandRatio }
