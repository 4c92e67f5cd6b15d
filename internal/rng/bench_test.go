package rng

import "testing"

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
