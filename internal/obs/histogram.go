package obs

import "math"

// Histogram bucket layout: each power-of-two octave of the value range
// is split into histSubCount linear sub-buckets, giving a worst-case
// relative bucket width of 1/histSubCount (12.5%). Octaves run from
// 2^histMinExp (≈ 1 µs — below the finest timing any substrate here
// resolves) to 2^histMaxExp (≈ 17 minutes); values outside land in the
// underflow/overflow buckets at the ends.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits
	histMinExp   = -20
	histMaxExp   = 10
	// histBuckets = underflow + octaves*sub + overflow.
	histBuckets = (histMaxExp-histMinExp)*histSubCount + 2
)

// Histogram is a log-scale histogram for latencies (or any positive,
// heavy-tailed measurement). Observe is allocation-free — a Frexp, a
// few integer ops and an array increment — so it can sit on completion
// hot paths; memory is a fixed ~2 KB regardless of sample count, unlike
// the flat per-sample slices it replaces for windowed aggregation.
//
// A Histogram is not safe for concurrent use; wrap it in the owner's
// mutex (as the live cluster nodes do) or keep one per goroutine.
type Histogram struct {
	counts   [histBuckets]uint64
	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// histBucket maps a value to its bucket index.
func histBucket(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	octave := exp - 1          // v ∈ [2^octave, 2^(octave+1))
	if octave < histMinExp {
		return 0
	}
	if octave >= histMaxExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * histSubCount)
	if sub >= histSubCount { // frac rounding at the octave edge
		sub = histSubCount - 1
	}
	return 1 + (octave-histMinExp)*histSubCount + sub
}

// histUpperBound returns the exclusive upper bound of bucket i (+Inf for
// the overflow bucket).
func histUpperBound(i int) float64 {
	if i <= 0 {
		return math.Ldexp(1, histMinExp)
	}
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	i--
	octave := histMinExp + i/histSubCount
	sub := i % histSubCount
	return math.Ldexp(1+float64(sub+1)/histSubCount, octave)
}

// Observe records one value. Non-positive and NaN values count into the
// underflow bucket (they carry no latency information but must not be
// silently dropped from totals).
func (h *Histogram) Observe(v float64) {
	h.counts[histBucket(v)]++
	h.count++
	if !math.IsNaN(v) {
		h.sum += v
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (q ∈ [0, 1]) by nearest rank over
// the bucket counts, reporting the containing bucket's upper bound
// clamped to the observed extremes. The estimate is exact to within one
// bucket width (≤ 12.5% relative error). An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histUpperBound(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Bucket is one exposition row of a histogram: the cumulative count of
// observations ≤ UpperBound.
type Bucket struct {
	UpperBound float64 // +Inf for the overflow bucket
	CumCount   uint64
}

// Buckets returns the non-empty buckets in ascending bound order with
// cumulative counts, ending with the +Inf bucket — the shape Prometheus
// histogram exposition wants. Empty buckets are skipped to keep /metrics
// output proportional to the observed value spread, not the layout size.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, Bucket{UpperBound: histUpperBound(i), CumCount: cum})
	}
	if len(out) == 0 || !math.IsInf(out[len(out)-1].UpperBound, 1) {
		out = append(out, Bucket{UpperBound: math.Inf(1), CumCount: cum})
	}
	return out
}
