package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is the harness's own latency recorder: a log-linear histogram of
// int64 nanoseconds with 128 sub-buckets per octave, so every bucket is
// at most 1/128 (< 0.8 %) wide. obs.Histogram is deliberately not used:
// its 8 sub-buckets per octave quantise every percentile in ~9 % steps
// and its floor reports sub-microsecond values as 0.
type hist struct {
	counts []uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 40 octaves above the linear range cover ~2^47 ns (a day and a half).
	histLen = 41 * histSub
)

func newHist() *hist { return &hist{counts: make([]uint32, histLen)} }

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - histSubBits - 1 // ns>>e ∈ [histSub, 2·histSub)
	i := (e+1)*histSub + int(ns>>uint(e)) - histSub
	if i >= histLen {
		return histLen - 1
	}
	return i
}

// histValue is the upper edge of bucket i.
func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub - 1
	return (int64(histSub+i%histSub)+1)<<uint(e) - 1
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile in ns (0 when empty): the nearest-rank
// bucket, interpolated by rank inside the bucket so that two runs whose
// medians fall in the same bucket still report what they measured.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := float64(histValue(i-1)) + 1
			if i == 0 {
				lo = 0
			}
			return lo + (float64(histValue(i))-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(histValue(histLen - 1))
}

// tailPercentile is the highest of the usual tail percentiles that
// still has at least ten samples beyond it.
func tailPercentile(n int64) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999} {
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

// quantileOf is the q-quantile of an unsorted float sample by linear
// interpolation (the inputs are window or pass values, a handful each).
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }

// Spread summarises the window (or pass) values behind one metric.
type Spread struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarise(vals []float64) Spread {
	return Spread{
		Median: median(vals), Min: quantileOf(vals, 0), Q1: quantileOf(vals, 0.25),
		Q3: quantileOf(vals, 0.75), Max: quantileOf(vals, 1), N: len(vals), Samples: vals,
	}
}
