// Package rng provides deterministic, seedable random variate generators
// used throughout the simulator and workload generators.
//
// Every stochastic component in this repository draws from an explicit
// *rng.Stream so that experiments are reproducible run to run: the same
// seed always yields the same trace, the same arrival process and the same
// simulated schedule. Streams are cheap to fork, which lets each node,
// workload class, or generator own an independent substream derived from a
// single experiment seed.
package rng

import (
	"math"
	"math/rand"
)

// Stream is a deterministic source of random variates. It wraps the
// standard library generator with the distribution samplers the paper's
// workloads require (exponential inter-arrivals and demands, heavy-tailed
// file sizes, Zipf popularity).
type Stream struct {
	r *rand.Rand
}

// New returns a Stream seeded with seed. Two Streams created with the same
// seed produce identical sequences.
func New(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent substream. The derivation is deterministic:
// forking the same stream in the same order yields the same children. The
// label decorrelates substreams that are forked for different purposes.
func (s *Stream) Fork(label int64) *Stream { return New(s.ForkSeed(label)) }

// ForkSeed advances s exactly as Fork does and returns the child's seed
// instead of the child, so a caller can build several identical copies
// of one substream with New.
func (s *Stream) ForkSeed(label int64) int64 {
	// SplitMix-style mix of a fresh draw with the label so sibling
	// substreams do not overlap even for adjacent labels.
	z := uint64(s.r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return int64(z & (1<<63 - 1))
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential variate with the given mean. A non-positive
// mean returns 0, which callers use to model deterministic zero-cost steps.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal variate with the given mean and standard
// deviation, truncated at zero (negative draws are clamped to 0) because
// all quantities modeled here — times, sizes — are non-negative.
func (s *Stream) Normal(mean, stddev float64) float64 {
	v := mean + stddev*s.r.NormFloat64()
	if v < 0 {
		return 0
	}
	return v
}

// Lognormal returns a lognormal variate parameterized by the mean and
// standard deviation of the underlying normal.
func (s *Stream) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Pareto returns a Pareto variate with minimum xm and shape alpha.
// Web file sizes and CGI demands are commonly heavy-tailed; alpha in
// (1, 2) gives finite mean and infinite variance.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return 0
	}
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto variate truncated to [lo, hi], the
// distribution used by task-assignment studies the paper cites (Crovella &
// Harchol-Balter) for web service demands.
func (s *Stream) BoundedPareto(lo, hi, alpha float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return lo
	}
	u := s.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := -(u*ha - u*la - ha) / (ha * la)
	return math.Pow(1/x, 1/alpha)
}

// Zipf returns integers in [0, n) with Zipf popularity of exponent theta
// (theta = 0 is uniform; larger theta concentrates mass on low indices).
// It is used for file popularity in the SPECweb96-like fileset.
type Zipf struct {
	cdf []float64
	s   *Stream
}

// NewZipf constructs a Zipf sampler over n items.
func (s *Stream) NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, s: s}
}

// Next draws the next Zipf-distributed index.
func (z *Zipf) Next() int {
	u := z.s.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative total weight yields 0.
func (s *Stream) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.r.Float64() < p }
