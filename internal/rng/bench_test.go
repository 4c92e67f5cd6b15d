package rng

import (
	"math"
	"testing"
)

// coinRow is a PIN-row-shaped coin workload: 23 entries (the mean row
// length of the Amazon-shaped benchmark problem) with p ~ U(0, 0.05).
func coinRow() []float64 {
	r := New(2024)
	row := make([]float64, 23)
	for i := range row {
		row[i] = 0.05 * r.Float64()
	}
	return row
}

var coinSink int

// BenchmarkCoinRow times one coin as the engine's association loop
// flips it, drawn through the Rand (a load and a store of the state
// per draw) and from a Stream held in locals across the row.
func BenchmarkCoinRow(b *testing.B) {
	row := coinRow()
	b.Run("Rand", func(b *testing.B) {
		r := New(1)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range row {
				if r.Bernoulli(p) {
					hits++
				}
			}
		}
		coinSink = hits
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row)), "ns/coin")
	})
	b.Run("Stream", func(b *testing.B) {
		r := New(1)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := r.Stream()
			var hit bool
			for _, p := range row {
				if s, hit = s.Bernoulli(p); hit {
					hits++
				}
			}
			r.SetStream(s)
		}
		coinSink = hits
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row)), "ns/coin")
	})
}

var expSink float64

// BenchmarkExp times one Exp(1) variate drawn from a Stream held in
// locals: by the ziggurat as the engine's skip sites draw it (ExpFast
// inlined, Exp on its misses), and as −log1p(−U) of one uniform, the
// logarithm the ziggurat replaces.
func BenchmarkExp(b *testing.B) {
	b.Run("Ziggurat", func(b *testing.B) {
		s := New(1).Stream()
		var (
			ns  Stream
			e   float64
			ok  bool
			sum float64
		)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ns, e, ok = s.ExpFast(); !ok {
				ns, e = s.Exp()
			}
			s = ns
			sum += e
		}
		expSink = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
	})
	b.Run("Log", func(b *testing.B) {
		s := New(1).Stream()
		var v, sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, v = s.Float64()
			sum += -math.Log1p(-v)
		}
		expSink = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
	})
}
