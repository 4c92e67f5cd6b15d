package diffusion

import (
	"fmt"
	"math"
	"testing"

	"imdpp/internal/pin"
	"imdpp/internal/rng"
)

// assocRow draws one association row through assocNext and appends
// the picked entries to picked.
func assocRow(s rng.Stream, r relRow, arow []uint64, base float64, picked []int) (rng.Stream, []int) {
	for j := 0; ; j++ {
		if s, j = assocNext(s, r.row, r.init, arow, j, base, r.maxRC); j == len(r.row) {
			return s, picked
		}
		picked = append(picked, j)
	}
}

// relRow is a PIN row over items 0..n-1 with its cached init relevance
// and largest rC.
type relRow struct {
	row   []pin.PairRel
	init  []pin.RelInit
	maxRC float64
}

func newRelRow(rcs []float64) relRow {
	r := relRow{row: make([]pin.PairRel, len(rcs)), init: make([]pin.RelInit, len(rcs))}
	for j, rc := range rcs {
		r.row[j].Y = int32(j)
		r.init[j].RC = rc
		r.maxRC = max(r.maxRC, rc)
	}
	return r
}

// draws counts the generator steps between from and to.
func draws(from, to rng.Stream) int {
	d := 0
	for ; from != to; d++ {
		from, _ = from.Float64()
	}
	return d
}

// TestAssocNextDistribution checks the subset sampler entry by entry
// and pair by pair over 200 000 rows a case: each entry's inclusion
// frequency must match base·rC (0 for an adopted entry) and each
// pair's joint frequency the product of the two, within 5 binomial
// standard errors (pairs expected fewer than 25 times are skipped: the
// normal bound does not hold there). The cases cover entries with
// rC = 0, the largest rC in the last entry, a 20-entry row mostly
// skipped over, adopted entries (the largest rC among them), and
// q = base·max rC just below and just above ½ and above 1 (clamped to
// 1, so every entry is landed on and base·rC ≥ 1 accepts without a
// coin), with and without adopted entries.
func TestAssocNextDistribution(t *testing.T) {
	const rows = 200000
	long := make([]float64, 20)
	for j := range long {
		long[j] = 0.2 + 0.04*float64((j*7)%20)
	}
	cases := []struct {
		name    string
		rcs     []float64
		adopted []int
		q       float64
	}{
		{"zero-rc", []float64{0.3, 0, 0.8, 0, 0.5}, nil, 0.3},
		{"max-last", []float64{0.1, 0.2, 0.4, 0.9}, nil, 0.25},
		{"long", long, nil, 0.03},
		{"adopted", []float64{0.3, 0.7, 0, 0.9, 0.5, 0.2}, []int{0, 3, 4}, 0.4},
		{"q-below-half", []float64{0.6, 0.2, 1, 0.45, 0.05}, nil, 0.499},
		{"q-above-half", []float64{0.6, 0.2, 1, 0.45, 0.05}, nil, 0.501},
		{"q-below-half-adopted", []float64{0.6, 0.2, 1, 0.45, 0.05}, []int{1, 2}, 0.499},
		{"q-above-half-adopted", []float64{0.6, 0.2, 1, 0.45, 0.05}, []int{1, 2}, 0.501},
		{"q-above-one", []float64{0.6, 0.2, 1, 0.45, 0.05}, nil, 1.3},
		{"q-above-one-adopted", []float64{0.6, 0.2, 1, 0.45, 0.05}, []int{1, 2}, 1.3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRelRow(c.rcs)
			base := c.q / r.maxRC
			n := len(r.row)
			var arow []uint64
			want := make([]float64, n)
			for j := range want {
				want[j] = min(base*r.init[j].RC, 1)
			}
			if c.adopted != nil {
				arow = make([]uint64, 1)
				for _, y := range c.adopted {
					arow[0] |= 1 << uint(y)
					want[y] = 0
				}
			}
			single := make([]float64, n)
			pair := make([]float64, n*n)
			s := rng.New(0xA550C).Stream()
			var picked []int
			for i := 0; i < rows; i++ {
				s, picked = assocRow(s, r, arow, base, picked[:0])
				for a, j := range picked {
					if a > 0 && picked[a-1] >= j {
						t.Fatalf("row %d: picks %v not strictly ascending", i, picked)
					}
					single[j]++
					for _, k := range picked[a+1:] {
						pair[j*n+k]++
					}
				}
			}
			check := func(what string, got, want float64) {
				t.Helper()
				se := math.Sqrt(want * (1 - want) / rows)
				if want == 0 || want == 1 {
					if got != want {
						t.Errorf("%s: frequency %v, want exactly %v", what, got, want)
					}
					return
				}
				if want*rows < 25 {
					return
				}
				if math.Abs(got-want) > 5*se {
					t.Errorf("%s: frequency %.6f, want %.6f (%.1f standard errors)", what, got, want, math.Abs(got-want)/se)
				}
			}
			for j := 0; j < n; j++ {
				check(fmt.Sprintf("entry %d", j), single[j]/rows, want[j])
				for k := j + 1; k < n; k++ {
					check(fmt.Sprintf("pair (%d,%d)", j, k), pair[j*n+k]/rows, want[j]*want[k])
				}
			}
		})
	}
}

// TestAssocNextDrawAccounting pins how many draws a row consumes: none
// when maxRC is 0, one uniform for a row with no landing, and with
// base·maxRC ≥ 1 (q clamped to 1) one uniform per entry up to the pick
// plus one coin per landing not adopted with 0 < base·rC < 1.
func TestAssocNextDrawAccounting(t *testing.T) {
	s0 := rng.New(3).Stream()
	r := newRelRow([]float64{0, 0, 0})
	if s, j := assocNext(s0, r.row, r.init, nil, 0, 0.2, r.maxRC); j != 3 || s != s0 {
		t.Fatalf("all-zero row: picked %d, %d draws; want none and 0 draws", j, draws(s0, s))
	}
	// q = 1: every entry is landed on, and entry 2 (base·rC = 1.2) is
	// accepted without a coin, so no pick lies past it
	r = newRelRow([]float64{0.5, 0, 1, 0.25, 0.5})
	arow := []uint64{1 << 0}
	const base = 1.2
	for seed := uint64(0); seed < 64; seed++ {
		s0 := rng.New(seed).Stream()
		s, j := assocNext(s0, r.row, r.init, arow, 0, base, r.maxRC)
		if j > 2 {
			t.Fatalf("seed %d: q = 1 row picked %d past the certain entry 2", seed, j)
		}
		want := 0
		for k := 0; k <= j; k++ {
			want++
			if p := base * r.init[k].RC; p > 0 && p < 1 && !adoptedIn(arow, r.row[k].Y) {
				want++
			}
		}
		if d := draws(s0, s); d != want {
			t.Fatalf("seed %d: q = 1 row picked %d after %d draws, want %d", seed, j, d, want)
		}
	}
	// a uniform at or above n·q ends the row on one draw
	for seed := uint64(0); seed < 64; seed++ {
		s0 := rng.New(seed).Stream()
		_, v := s0.Float64()
		q := v/4 - 1e-12 // 4 entries left, so v ≥ 4q
		if q <= 0 {
			continue
		}
		if s, j := assocNext(s0, r.row[:4], r.init[:4], nil, 0, q/r.maxRC, r.maxRC); j != 4 || draws(s0, s) != 1 {
			t.Fatalf("seed %d: v=%v ≥ n·q: picked %d after %d draws, want none after 1", seed, v, j, draws(s0, s))
		}
	}
}

// assocBenchRow is a clean association row shaped like the dysimbench
// problem's (Amazon-shaped, scale 0.5): 20 entries with rC > 0 at a
// total pick probability of about 0.018, one hit in about 1 100
// entries.
func assocBenchRow() (relRow, float64) {
	src := rng.New(2024)
	rcs := make([]float64, 20)
	for j := range rcs {
		rcs[j] = 0.1 + 0.5*src.Float64()
	}
	r := newRelRow(rcs)
	sum := 0.0
	for _, ri := range r.init {
		sum += ri.RC
	}
	return r, 0.018 / sum
}

var assocSink int

// BenchmarkAssocRow times one clean association row (ns/row) and
// counts its draws (draws/row), subset-sampled through assocNext and
// with one coin per entry as before it; rng.BenchmarkCoinRow times the
// coin alone.
func BenchmarkAssocRow(b *testing.B) {
	r, base := assocBenchRow()
	coins := func(s rng.Stream) (rng.Stream, int) {
		var hit bool
		hits := 0
		for j := range r.init {
			if s, hit = s.Bernoulli(base * r.init[j].RC); hit {
				hits++
			}
		}
		return s, hits
	}
	subset := func(s rng.Stream) (rng.Stream, int) {
		hits := 0
		for j := 0; ; j++ {
			if s, j = assocNext(s, r.row, r.init, nil, j, base, r.maxRC); j == len(r.row) {
				return s, hits
			}
			hits++
		}
	}
	for _, bc := range []struct {
		name string
		row  func(rng.Stream) (rng.Stream, int)
	}{{"Coins", coins}, {"Subset", subset}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			s := r.Stream()
			hits, h := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, h = bc.row(s)
				hits += h
			}
			b.StopTimer()
			assocSink = hits
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
			const sample = 100000
			s0 := r.Stream()
			total := 0
			for i := 0; i < sample; i++ {
				s, _ := bc.row(s0)
				total += draws(s0, s)
				s0 = s
			}
			b.ReportMetric(float64(total)/sample, "draws/row")
		})
	}
}
