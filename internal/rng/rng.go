package rng

import (
	"math"
	"math/bits"
)

// Stream is a xoshiro256** state held by value. Its four scalar words
// (an array would not be) are SSA-able, so the compiler can keep a
// local Stream in registers: a hot loop takes the Stream from its Rand
// once, draws every coin with Bernoulli, and writes it back once with
// SetStream, instead of a load/store round trip through the heap per
// draw. Nothing may draw from the Rand between the two (DESIGN.md §3).
type Stream struct {
	s0, s1, s2, s3 uint64
}

// next is the generator's one state transition; Stream.Bernoulli and
// Rand.Uint64 both step through it. The output of a step is
// rotl(s1·5, 7)·9 on the state before it, written out at both callers
// to keep them under the inline budget.
func (s Stream) next() Stream {
	s2 := s.s2 ^ s.s0
	s3 := s.s3 ^ s.s1
	return Stream{s.s0 ^ s3, s.s1 ^ s2, s2 ^ s.s1<<17, bits.RotateLeft64(s3, 45)}
}

// Bernoulli reports true with probability p and returns the advanced
// stream. p <= 0 and p >= 1 decide without consuming a draw; any other
// p, NaN included, consumes exactly one and reports Float64() < p on
// it (NaN then reports false). Callers rely on this draw accounting to
// keep Monte-Carlo streams aligned (DESIGN.md §3).
func (s Stream) Bernoulli(p float64) (Stream, bool) {
	if p <= 0 || p >= 1 {
		return s, p >= 1
	}
	return s.next(), float64(bits.RotateLeft64(s.s1*5, 7)*9>>11)*(1.0/(1<<53)) < p
}

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
type Rand struct {
	s Stream
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
	s := Stream{splitmix64(&x), splitmix64(&x), splitmix64(&x), splitmix64(&x)}
	// xoshiro256** must not start from the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	r.s = s
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
	dst.seed(r.s.s0 ^ (r.s.s2 * 0x9e3779b97f4a7c15) ^ (i+1)*0xd1342543de82ef95)
}

// Stream returns r's current state by value. Drawing from the copy
// does not advance r; SetStream writes the advanced copy back.
func (r *Rand) Stream() Stream { return r.s }

// SetStream replaces r's state with s, typically a copy taken with
// Stream and advanced by Stream.Bernoulli.
func (r *Rand) SetStream(s Stream) { r.s = s }

// Uint64 returns the next 64 random bits (scripts/inline_check.sh
// keeps it under the compiler's inline budget).
func (r *Rand) Uint64() uint64 {
	x := bits.RotateLeft64(r.s.s1*5, 7) * 9
	r.s = r.s.next()
	return x
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
//
// It is Stream.Bernoulli on r's state. A hot loop should instead hold
// the Stream in a local across its draws (see Stream).
func (r *Rand) Bernoulli(p float64) bool {
	var hit bool
	r.s, hit = r.s.Bernoulli(p)
	return hit
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
