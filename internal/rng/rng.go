// Package rng provides deterministic, named random-number streams and the
// sampling distributions used by the GreenMatch workload, solar and wind
// models.
//
// Reproducibility is a hard requirement for a trace-driven simulator: every
// experiment in EXPERIMENTS.md must produce the same numbers on every run.
// The package therefore derives independent sub-streams from a single root
// seed plus a stream name (via FNV-1a hashing), so adding a new consumer of
// randomness never perturbs the draws seen by existing consumers.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic random stream with a set of sampling helpers.
// It wraps math/rand.Rand and is NOT safe for concurrent use; create one
// stream per goroutine or per model component.
//
//gm:statemirror Draws Restore
type Stream struct {
	r   *rand.Rand //gm:ephemeral reconstructed by New from (seed, name)
	src *countingSource
}

// countingSource wraps the underlying rand.Source64 and counts how many
// times it is stepped. math/rand's generator advances exactly one state
// step per Int63 or Uint64 call (Int63 is Uint64 masked to 63 bits), so
// the count fully determines the generator state given the seed: a stream
// can be checkpointed as (seed, name, draws) and restored by fast-forward.
// Delegation is transparent — wrapping changes no drawn values.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// New returns the sub-stream of root seed `seed` identified by `name`.
// Streams with different names are statistically independent for the
// purposes of this simulator.
func New(seed int64, name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	sub := int64(h.Sum64()) ^ (seed * 0x4F1BBCDCBFA53E0B)
	src := &countingSource{src: rand.NewSource(sub).(rand.Source64)}
	return &Stream{r: rand.New(src), src: src}
}

// Restore rebuilds the sub-stream (seed, name) advanced past its first
// `draws` source steps, so the next sample equals what the original stream
// would have produced after consuming that many draws. Restore(seed, name,
// s.Draws()) is the checkpoint/restore round trip.
func Restore(seed int64, name string, draws uint64) *Stream {
	s := New(seed, name)
	s.Skip(draws)
	return s
}

// Draws returns how many source steps the stream has consumed. Together
// with the (seed, name) pair passed to New it is a complete serialization
// of the stream's state.
func (s *Stream) Draws() uint64 { return s.src.n }

// Skip advances the stream by n source steps without using the values.
func (s *Stream) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.src.Uint64()
	}
	s.src.n += n
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a draw from N(mu, sigma^2).
func (s *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// LogNormal returns a draw from the log-normal distribution whose underlying
// normal has parameters (mu, sigma).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Poisson returns a draw from the Poisson distribution with the given mean.
// It uses Knuth's product method for small means and a normal approximation
// (rounded, floored at zero) for large means, which is accurate to well
// within the needs of workload generation. A mean that is not positive,
// NaN included, returns 0 without drawing.
func (s *Stream) Poisson(mean float64) int {
	if !(mean > 0) {
		return 0
	}
	if mean > 64 {
		v := math.Round(s.Normal(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Weibull returns a draw from the Weibull distribution with shape k and
// scale lambda, via inverse-CDF sampling. Both parameters must be positive.
func (s *Stream) Weibull(k, lambda float64) float64 {
	if k <= 0 || lambda <= 0 {
		panic("rng: Weibull requires positive shape and scale")
	}
	u := s.r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = s.r.Float64()
	}
	return lambda * math.Pow(-math.Log(u), 1/k)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.r.Float64() < p
}

// BoundedBeta returns a crude Beta-like draw in [0,1] with the given mean,
// implemented as the mean-preserving clamp of a normal. It is used for cloud
// attenuation factors where a smooth unimodal distribution on [0,1] is all
// that is required.
func (s *Stream) BoundedBeta(mean, spread float64) float64 {
	v := s.Normal(mean, spread)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Zipf is a bounded Zipf(θ) sampler over {0,...,n-1}, used for object
// popularity in the storage read model. It samples by inverse transform
// over the precomputed CDF: a draw u maps to min{i : cdf[i] >= u}.
//
// A guide table (Chen and Asau, 1974) makes each draw start next to its
// answer instead of binary-searching the whole CDF: with m = len(guide),
// guide[k] is the first index whose CDF reaches k/m, so a draw u starts at
// guide[floor(u*m)].
type Zipf struct {
	cdf   []float64
	guide []int32
	s     *Stream
}

// NewZipf builds a Zipf sampler over n items with exponent theta >= 0.
// theta = 0 degenerates to the uniform distribution; typical storage
// popularity uses theta in [0.6, 1.1].
func NewZipf(s *Stream, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf requires n > 0")
	}
	if !(theta >= 0) {
		panic("rng: NewZipf requires theta >= 0")
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
	cdf[n-1] = 1 // exact, despite rounding
	// One guide entry per four items (at least one) keeps the table small
	// beside the CDF while leaving each draw a short walk. cdf[n-1] = 1
	// exceeds every k/m < 1, so the scan stops inside the CDF.
	guide := make([]int32, max(n/4, 1))
	i := 0
	for k := range guide {
		for cdf[i] < float64(k)/float64(len(guide)) {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, s: s}
}

// Next returns the next item index, with item 0 the most popular. It
// takes one Float64 draw.
func (z *Zipf) Next() int { return z.index(z.s.Float64()) }

// index returns min{i : cdf[i] >= u} for u in [0, 1), the answer a binary
// search over the CDF gives, from whatever index the guide starts it at:
// the walk down stops at i = 0 or where cdf[i-1] < u, and the walk up then
// stops at the first i with cdf[i] >= u, which exists because
// cdf[n-1] = 1 > u. Every index passed on the way up has cdf < u, so the
// answer is the least such i; the guide only decides how short the walk
// is.
func (z *Zipf) index(u float64) int {
	m := len(z.guide)
	i := int(z.guide[min(int(u*float64(m)), m-1)])
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for z.cdf[i] < u {
		i++
	}
	return i
}

// N returns the number of items the sampler draws over.
func (z *Zipf) N() int { return len(z.cdf) }
