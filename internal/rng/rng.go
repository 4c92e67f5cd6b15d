package rng

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.seed(seed)
	return r
}

func (r *Rand) seed(x uint64) {
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro256** must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent stream from r. The derived stream is a
// function of r's current state and the stream index i, so workers can
// be created deterministically: Split(0), Split(1), ...
func (r *Rand) Split(i uint64) *Rand {
	d := &Rand{}
	r.SplitInto(d, i)
	return d
}

// SplitInto sets dst to the stream Split(i) returns, without
// allocating.
func (r *Rand) SplitInto(dst *Rand, i uint64) {
	dst.seed(r.s[0] ^ (r.s[2] * 0x9e3779b97f4a7c15) ^ (i+1)*0xd1342543de82ef95)
}

// Uint64 returns the next 64 random bits. The step works on local
// copies of the state and writes it back whole, which keeps it under
// the compiler's inline budget (scripts/inline_check.sh guards this).
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli reports true with probability p. p <= 0 and p >= 1 decide
// without consuming a draw; any other p, NaN included, consumes exactly
// one (NaN then reports false). Callers rely on this draw accounting to
// keep Monte-Carlo streams aligned (DESIGN.md §3).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	// Marsaglia polar method; rejection loop terminates with prob 1.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma^2)). Used for price-like item
// importance distributions.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Beta24 returns a Beta(2,4)-ish variate in (0,1) computed as the
// second order statistic trick: min of uniforms skews low, matching
// sparse initial preferences. Exact Beta sampling is unnecessary for
// workload generation; this is cheap and bounded.
func (r *Rand) Beta24() float64 {
	a := r.Float64()
	b := r.Float64()
	c := r.Float64()
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// Zipf returns an integer in [0, n) drawn from a Zipf-like distribution
// with exponent s (s > 0), using inverse-CDF on precomputed weights is
// avoided; this uses rejection-free discrete power-law via the
// cumulative trick on the fly for small n, so it is O(n) worst case but
// callers only use it during dataset generation.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Draw u in (0, H(n)] and invert by linear scan. Dataset-time only.
	h := 0.0
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -s)
	}
	u := r.Float64() * h
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += math.Pow(float64(i), -s)
		if u <= acc {
			return i - 1
		}
	}
	return n - 1
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Shuffle shuffles the first n elements using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
