package metrics

import (
	"math"
	"math/bits"
	"slices"
)

// nearestRank returns the q-quantile of xs by nearest rank — the
// ⌈q·n⌉-th smallest value, the minimum for q ≤ 0 and the maximum for
// q ≥ 1 — reordering xs. xs must not be empty.
func nearestRank(xs []float64, q float64) float64 {
	k := 0
	switch {
	case q >= 1:
		k = len(xs) - 1
	case q > 0:
		k = int(math.Ceil(q*float64(len(xs)))) - 1
	}
	return selectKth(xs, k, 2*bits.Len(uint(len(xs))))
}

// selectKth reorders xs so that xs[k] holds the value sorting xs would
// put there, with nothing greater before it and nothing smaller after
// it, and returns that value. It is quickselect: a Hoare partition
// around the median of the first, middle and last values, repeated on
// the side that holds k. After depth partitions it sorts what is left
// instead, which bounds an adversarial order at O(n log n). Values
// order as slices.Sort orders them, NaNs first.
func selectKth(xs []float64, k, depth int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		if depth == 0 {
			slices.Sort(xs[lo : hi+1])
			break
		}
		depth--
		pivot := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		// The pivot is a value of xs[lo..hi], so each scan stops inside
		// the range; afterwards xs[lo..j] ≤ pivot ≤ xs[i..hi], and a
		// slot between j and i holds the pivot itself.
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// median3 returns the middle of three values.
func median3(a, b, c float64) float64 {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// less is the order slices.Sort and sort.Float64s use: NaN before
// every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }
