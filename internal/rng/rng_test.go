package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d distinct values of 10", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestBernoulliEdgeCases checks each boundary's outcome and how far
// the call advances the stream, by comparing the next Uint64 against a
// twin generator: p <= 0 and p >= 1 decide without a draw, any other p
// (NaN included) consumes exactly one. The forward simulator and the
// RR-sketch sampler both rely on this to keep their streams aligned.
func TestBernoulliEdgeCases(t *testing.T) {
	for _, c := range []struct {
		p     float64
		want  bool
		draws int
	}{
		{0, false, 0},
		{-0.5, false, 0},
		{math.Inf(-1), false, 0},
		{1, true, 0},
		{1.5, true, 0},
		{math.Inf(1), true, 0},
		{math.NaN(), false, 1},
	} {
		r, twin := New(77), New(77)
		if got := r.Bernoulli(c.p); got != c.want {
			t.Errorf("Bernoulli(%v) = %v, want %v", c.p, got, c.want)
		}
		for i := 0; i < c.draws; i++ {
			twin.Uint64()
		}
		if r.Uint64() != twin.Uint64() {
			t.Errorf("Bernoulli(%v) did not advance the stream by %d draws", c.p, c.draws)
		}
	}
	// p = 0.3: exactly one draw, whichever way the coin falls.
	r, twin := New(77), New(77)
	hits := 0
	for i := 0; i < 64; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
		twin.Uint64()
	}
	if hits == 0 || hits == 64 {
		t.Fatalf("Bernoulli(0.3) gave %d hits in 64; both outcomes must be exercised", hits)
	}
	if r.Uint64() != twin.Uint64() {
		t.Error("Bernoulli(0.3) did not advance the stream by exactly one draw")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(13)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / float64(n)
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", freq)
	}
}

func TestSplitIndependence(t *testing.T) {
	master := New(99)
	a := master.Split(0)
	b := master.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between split streams", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split(3)
	b := New(5).Split(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split not deterministic")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	n := 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

func TestBeta24Range(t *testing.T) {
	r := New(29)
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		v := r.Beta24()
		if v < 0 || v > 1 {
			t.Fatalf("Beta24 = %v", v)
		}
		sum += v
	}
	// E[min of 3 uniforms] = 1/4
	mean := sum / float64(n)
	if math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Beta24 mean %v, want ~0.25", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		dst := make([]int, n)
		r.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, v := range xs {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

// TestKnownAnswer pins the xoshiro256** output stream, including the
// splitmix64 seeding and Split, to fixed values. Every Monte-Carlo
// golden in the repository rests on this stream, so any change here
// is a determinism contract break (DESIGN.md §3), not a refactor.
func TestKnownAnswer(t *testing.T) {
	for _, c := range []struct {
		name string
		r    *Rand
		want [8]uint64
	}{
		{"New(0)", New(0), [8]uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
			0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
		}},
		{"New(1)", New(1), [8]uint64{
			0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
		}},
		{"New(7).Split(3)", New(7).Split(3), [8]uint64{
			0x5ef58b67252d5d49, 0x8e46a1271b9b337e, 0x76c7ad9fe7144b82, 0xe11ce1efcf35d850,
			0x27ce69a487f7ab62, 0xb657be54d59426be, 0x516cc1b16cdd8892, 0xa1c4d25b5d30551a,
		}},
	} {
		for i, want := range c.want {
			if got := c.r.Uint64(); got != want {
				t.Fatalf("%s: output %d = %#016x, want %#016x", c.name, i, got, want)
			}
		}
	}
	r := New(1)
	for i, want := range []uint64{0x3fe67e55eda1f8e2, 0x3fe0a76ab2c8e6c9, 0x3fe25f12eac10548, 0x3fd90b871ef099a8} {
		if got := math.Float64bits(r.Float64()); got != want {
			t.Fatalf("New(1): Float64 %d bits = %#016x, want %#016x", i, got, want)
		}
	}
}

// bernoulliFloat64 is the coin as Rand drew it before Stream existed:
// the same guards, then Float64() < p on one draw.
func bernoulliFloat64(r *Rand, p float64) bool {
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	return r.Float64() < p
}

// TestStreamMatchesRand runs Stream.Bernoulli and Rand.Bernoulli beside
// a twin generator that flips bernoulliFloat64, and asserts identical
// outcomes and draw counts (equal states after every coin) over the
// edge cases, p equal to the very value drawn, and 10⁵ random p. It
// pins Stream.Float64 the same way: the bits of (*Rand).Float64 and of
// the top 53 bits of Uint64 scaled by 2⁻⁵³, one draw each.
func TestStreamMatchesRand(t *testing.T) {
	{
		s, twin, bits := New(5).Stream(), New(5), New(5)
		var v float64
		for i := 0; i < 100000; i++ {
			s, v = s.Float64()
			want := twin.Float64()
			spec := float64(bits.Uint64()>>11) * 0x1p-53
			if math.Float64bits(v) != math.Float64bits(want) || v != spec {
				t.Fatalf("uniform %d: Stream %v, Rand %v, Uint64 spec %v", i, v, want, spec)
			}
			if s != twin.Stream() || s != bits.Stream() {
				t.Fatalf("uniform %d: draw count differs from the twins", i)
			}
		}
	}

	ps := []float64{0, -0.5, math.Inf(-1), 1, 1.5, math.Inf(1), math.NaN(), 0.3, 1 - 0x1p-53, 5e-324}
	src := New(4242)
	for i := 0; i < 100000; i++ {
		ps = append(ps, src.Float64())
	}
	r, rb, twin := New(9), New(9), New(9)
	s := r.Stream()
	var got bool
	for i, p := range ps {
		s, got = s.Bernoulli(p)
		gotRand := rb.Bernoulli(p)
		want := bernoulliFloat64(twin, p)
		if got != want || gotRand != want {
			t.Fatalf("coin %d, p=%v: Stream %v, Rand %v, want %v", i, p, got, gotRand, want)
		}
		if s != twin.Stream() || rb.Stream() != twin.Stream() {
			t.Fatalf("coin %d, p=%v: draw count differs from the twin", i, p)
		}
	}
	// p equal to the value the coin draws must miss: the comparison is
	// strict.
	for i := 0; i < 1000; i++ {
		peek := *twin
		p := peek.Float64()
		s, got = s.Bernoulli(p)
		if want := bernoulliFloat64(twin, p); got != want || (p > 0 && got) || s != twin.Stream() {
			t.Fatalf("coin at its own draw %v: Stream %v, twin %v, want false", p, got, want)
		}
	}
	// Stream and SetStream round-trip: copying the state out and back
	// changes nothing, and a Rand resumes where its advanced Stream
	// stopped.
	r.SetStream(r.Stream())
	if r.Stream() != New(9).Stream() {
		t.Fatal("SetStream(Stream()) changed the state")
	}
	r.SetStream(s)
	for i := 0; i < 8; i++ {
		if a, b := r.Uint64(), twin.Uint64(); a != b {
			t.Fatalf("output %d after SetStream: %#016x, twin %#016x", i, a, b)
		}
	}
}
