package rng

import (
	"math"
	"testing"
)

// TestExpTables re-derives the ziggurat tables by Marsaglia & Tsang's
// recursion and checks the committed literals against it: every
// layer's right edge, density and inner-rectangle threshold within a
// few units in the last place, layer 1 all wedge, and the edges
// strictly increasing up to expR.
func TestExpTables(t *testing.T) {
	const (
		m = 1 << 53
		v = 3.949659822581572e-3 // the area of each layer
	)
	var k [256]uint64
	var w, f [256]float64
	x, prev := expR, expR
	q := v / math.Exp(-x)
	k[0], w[0], f[0] = uint64(x/q*m), q/m, 1
	w[255], f[255] = x/m, math.Exp(-x)
	for i := 254; i >= 1; i-- {
		x = -math.Log(v/x + math.Exp(-x))
		k[i+1] = uint64(x / prev * m)
		prev = x
		w[i], f[i] = x/m, math.Exp(-x)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-13*math.Abs(b) }
	for i := range 256 {
		if d := int64(expK[i] - k[i]); d < -4 || d > 4 {
			t.Errorf("expK[%d] = %#x, the recursion gives %#x", i, expK[i], k[i])
		}
		if !near(expW[i], w[i]) || !near(expF[i], f[i]) {
			t.Errorf("layer %d: expW %v expF %v, the recursion gives %v and %v", i, expW[i], expF[i], w[i], f[i])
		}
		if i > 1 && !(expW[i] > expW[i-1]) {
			t.Errorf("layer %d: right edge %v not above layer %d's %v", i, expW[i]*m, i-1, expW[i-1]*m)
		}
	}
	if expK[1] != 0 || expW[255]*m != expR {
		t.Errorf("layer 1 threshold %#x (want 0), top edge %v (want %v)", expK[1], expW[255]*m, expR)
	}
}

// chiSquareCrit returns the upper-α critical value of a chi-square
// with df degrees of freedom (Wilson–Hilferty).
func chiSquareCrit(df int, alpha float64) float64 {
	z := math.Sqrt2 * math.Erfinv(1-2*alpha)
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// expBins counts variates in nb bins of equal Exp(1) probability
// (edges −log(1 − k/nb)) and returns Pearson's chi-square over them.
func expBins(xs []float64, nb int) float64 {
	counts := make([]float64, nb)
	for _, x := range xs {
		// the bin of x is ⌊nb·F(x)⌋, F(x) = 1 − e^(−x)
		b := int(-math.Expm1(-x) * float64(nb))
		counts[min(b, nb-1)]++
	}
	want := float64(len(xs)) / float64(nb)
	chi := 0.0
	for _, c := range counts {
		chi += (c - want) * (c - want) / want
	}
	return chi
}

// TestExpDistribution draws 2²¹ variates through Exp and checks them
// against Exp(1): Pearson's chi-square over 256 bins of equal
// probability below its 10⁻⁶ critical value, and the count beyond the
// ziggurat's base expR (the tail, e^(−expR) ≈ 4.5·10⁻⁴ of the mass)
// within 5 binomial standard errors. TestExpTail checks the tail's own
// shape.
func TestExpDistribution(t *testing.T) {
	const n = 1 << 21
	s := New(0xE4).Stream()
	xs := make([]float64, n)
	tail := 0
	for i := range xs {
		s, xs[i] = s.Exp()
		if !(xs[i] >= 0) || math.IsInf(xs[i], 0) {
			t.Fatalf("draw %d: %v", i, xs[i])
		}
		if xs[i] > expR {
			tail++
		}
	}
	if chi, crit := expBins(xs, 256), chiSquareCrit(255, 1e-6); chi > crit {
		t.Errorf("chi-square %.1f over 256 equal-probability bins, critical %.1f", chi, crit)
	}
	p := math.Exp(-expR)
	if z := (float64(tail) - n*p) / math.Sqrt(n*p*(1-p)); math.Abs(z) > 5 {
		t.Errorf("%d of %d variates beyond expR, want %.0f (%.1f standard errors)", tail, n, n*p, z)
	}
}

// TestExpTail drives expSlow with 2·10⁵ draws that land in the base
// layer beyond its rectangle, the tail: each variate must exceed expR,
// and the excess must be Exp(1), by chi-square over 64 equal-probability
// bins below the 10⁻⁶ critical value and a mean within 5 standard
// errors of 1.
func TestExpTail(t *testing.T) {
	const n = 200000
	r := New(0x7A11)
	s := New(0x7A12).Stream()
	xs := make([]float64, n)
	sum := 0.0
	for i := range xs {
		// layer 0 (low byte 0), point at or beyond the rectangle
		j := expK[0] + r.Uint64()%(1<<53-expK[0])
		var x float64
		s, x = s.expSlow(j << 11)
		if !(x > expR) {
			t.Fatalf("tail draw %d = %v, not beyond expR", i, x)
		}
		xs[i] = x - expR
		sum += xs[i]
	}
	if chi, crit := expBins(xs, 64), chiSquareCrit(63, 1e-6); chi > crit {
		t.Errorf("tail excess: chi-square %.1f over 64 equal-probability bins, critical %.1f", chi, crit)
	}
	if mean := sum / n; math.Abs(mean-1) > 5/math.Sqrt(n) {
		t.Errorf("tail excess mean %v, want 1 ± %v", mean, 5/math.Sqrt(n))
	}
}

// TestExpDeterminism pins Exp's first variates from New(1) by bit
// pattern (every Monte-Carlo golden downstream of the engine's skips
// rests on them, DESIGN.md §3), and checks two streams of one seed
// draw the same 10⁴ variates and states.
func TestExpDeterminism(t *testing.T) {
	s := New(1).Stream()
	for i, want := range []uint64{0x3fff7ef307ba3cbe, 0x40010100d3d943da, 0x3fd04a01e6c1d305, 0x3febd5e8845940e5} {
		var x float64
		if s, x = s.Exp(); math.Float64bits(x) != want {
			t.Fatalf("New(1): Exp %d = %v (bits %#016x), want bits %#016x", i, x, math.Float64bits(x), want)
		}
	}
	a, b := New(77).Stream(), New(77).Stream()
	for i := 0; i < 10000; i++ {
		var x, y float64
		a, x = a.Exp()
		b, y = b.Exp()
		if a != b || math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: two streams of one seed diverged", i)
		}
	}
}

// TestExpDrawAccounting checks ExpFast against Exp over 10⁵ draws: when
// ExpFast decides, it took exactly one draw (the stream Float64 leaves)
// and agrees with Exp on the variate and the stream; when it does not,
// Exp takes at least two draws. The decided share must be the tables'
// 97.8% (the mean of expK[i]/2⁵³) within 5 standard errors.
func TestExpDrawAccounting(t *testing.T) {
	const n = 100000
	s := New(0xACC7).Stream()
	fast := 0
	for i := 0; i < n; i++ {
		one, _ := s.Float64()
		t1, x1, ok := s.ExpFast()
		if t1 != one {
			t.Fatalf("draw %d: ExpFast took other than one draw", i)
		}
		t2, x2 := s.Exp()
		if ok {
			fast++
			if t2 != one || math.Float64bits(x1) != math.Float64bits(x2) {
				t.Fatalf("draw %d: ExpFast decided %v, Exp gave %v after a different draw count", i, x1, x2)
			}
		} else if t2 == one {
			t.Fatalf("draw %d: ExpFast did not decide, yet Exp took one draw", i)
		}
		s = t2
	}
	p := 0.0
	for _, k := range expK {
		p += float64(k) / (1 << 53) / 256
	}
	if z := (float64(fast) - n*p) / math.Sqrt(n*p*(1-p)); math.Abs(z) > 5 {
		t.Errorf("ExpFast decided %d of %d draws, want %.0f (%.1f standard errors)", fast, n, n*p, z)
	}
	t.Logf("ExpFast decided %.4f of draws (tables: %.4f)", float64(fast)/n, p)
}
