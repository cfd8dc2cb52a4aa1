package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// sortedNearestRank is the reference: sort a copy, index by nearest rank.
func sortedNearestRank(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch {
	case q <= 0:
		return s[0]
	case q >= 1:
		return s[len(s)-1]
	}
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

var testQs = []float64{0, 0.01, 0.5, 0.95, 0.99, 1}

// The collector's percentiles equal sorted nearest rank at every size,
// on samples full of duplicates, with reads interleaved between Adds so
// that every read after an Add must see the new sample and every read
// after another read selects in a copy earlier reads have reordered.
func TestPercentilesMatchSortedNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 17, 20000} {
		r := rand.New(rand.NewPCG(uint64(n), 7))
		c := NewCollector()
		var stretches, responses []float64
		readEvery := max(n/7, 1)
		for i := 1; i <= n; i++ {
			// Few distinct values: ties straddle most ranks.
			s := Sample{Demand: float64(1 + r.IntN(3)), Response: float64(r.IntN(max(n/4, 2)))}
			c.Add(s)
			stretches = append(stretches, s.Stretch())
			responses = append(responses, s.Response)
			if i%readEvery != 0 && i != n {
				continue
			}
			for _, q := range testQs {
				if got, want := c.StretchPercentile(q), sortedNearestRank(stretches, q); got != want {
					t.Fatalf("n=%d after %d adds: StretchPercentile(%v) = %v, sorted nearest rank %v", n, i, q, got, want)
				}
				if got, want := c.ResponsePercentile(q), sortedNearestRank(responses, q); got != want {
					t.Fatalf("n=%d after %d adds: ResponsePercentile(%v) = %v, sorted nearest rank %v", n, i, q, got, want)
				}
			}
		}
	}
}

// selectKth returns the k-th smallest value and leaves xs partitioned
// around it, on orders that defeat a naive pivot and with the depth
// limit at zero, one and its default, so the sort fallback is taken.
func TestSelectKthPartitions(t *testing.T) {
	const n = 257
	orders := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"equal":      func(int) float64 { return 3 },
		"organ pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"two values": func(i int) float64 { return float64(i % 2) },
		"with NaNs": func(i int) float64 {
			if i%5 == 0 {
				return math.NaN()
			}
			return float64(i % 11)
		},
	}
	for name, at := range orders {
		for _, depth := range []int{0, 1, 2 * 9} {
			for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = at(i)
				}
				ref := slices.Clone(xs)
				slices.Sort(ref)
				got := selectKth(xs, k, depth)
				if !same(got, ref[k]) {
					t.Fatalf("%s depth %d: selectKth(k=%d) = %v, want %v", name, depth, k, got, ref[k])
				}
				for i, x := range xs {
					if i < k && less(got, x) || i > k && less(x, got) {
						t.Fatalf("%s depth %d k=%d: xs[%d] = %v is on the wrong side of %v", name, depth, k, i, x, got)
					}
				}
			}
		}
	}
}

// same is equality with NaN equal to NaN.
func same(a, b float64) bool { return a == b || a != a && b != b }
