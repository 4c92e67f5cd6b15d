package diffusion

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"imdpp/internal/graph"
	"imdpp/internal/kg"
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

// expDraws advances s by k Exp draws.
func expDraws(s rng.Stream, k int) rng.Stream {
	for range k {
		s, _ = s.Exp()
	}
	return s
}

// TestAssocNextDrawAccounting pins which draws a row consumes: none
// when maxRC is 0; one Exp draw for a row the bound E·(1−q) ≥ n·q
// ends; and with base·maxRC ≥ 1 (q clamped to 1) one Exp draw per
// entry up to the pick, each followed by one coin when the entry is
// not adopted and 0 < base·rC < 1. The expected stream is replayed draw
// by draw, so the order is pinned too, and an Exp draw that ExpFast
// decides is one generator step.
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
		want := s0
		for k := 0; k <= j; k++ {
			want = expDraws(want, 1)
			if p := base * r.init[k].RC; p > 0 && p < 1 && !adoptedIn(arow, r.row[k].Y) {
				want, _ = want.Float64()
			}
		}
		if s != want {
			t.Fatalf("seed %d: q = 1 row picked %d after %d draws, want the %d of one Exp and one coin per landing", seed, j, draws(s0, s), draws(s0, want))
		}
	}
	// an Exp variate E with E·(1−q) ≥ 4q ends a 4-entry row on one draw
	fast := 0
	for seed := uint64(0); seed < 64; seed++ {
		s0 := rng.New(seed).Stream()
		s1, e := s0.Exp()
		q := e/(4+e) - 1e-12
		if q <= 0 {
			continue
		}
		s, j := assocNext(s0, r.row[:4], r.init[:4], nil, 0, q/r.maxRC, r.maxRC)
		if j != 4 || s != s1 {
			t.Fatalf("seed %d: E=%v ≥ n·q/(1−q): picked %d after %d draws, want none after one Exp", seed, e, j, draws(s0, s))
		}
		if draws(s0, s) == 1 {
			fast++
		}
	}
	if fast < 48 {
		t.Fatalf("only %d of 64 one-Exp rows took one generator step", fast)
	}
}

// starProblem is a star over one promotion: user 0 promotes item 0 to
// users 1..len(w), over arc weights w and base preferences pref for
// item 0. Item 0's association row holds items 1..len(rcs) with init
// rC = rcs[j] (one complementary meta-graph at initial weight 1, so rC
// is its S); item len(rcs)+1, the last, is related to nothing, so a
// friend dirtied by adopting it keeps Pact = W and Ppref = clampPref(P0)
// for item 0, the probabilities of a clean friend.
func starProblem(t testing.TB, w, pref, rcs []float64, chi float64) *Problem {
	t.Helper()
	items := len(rcs) + 2
	kb := kg.NewBuilder()
	tItem := kb.NodeTypeID("ITEM")
	for range items {
		kb.AddNode(tItem)
	}
	rows := make([][]pin.PairRel, items)
	for j, rc := range rcs {
		rows[0] = append(rows[0], pin.PairRel{Y: int32(j + 1), Contribs: []pin.Contrib{{Meta: 0, S: rc}}})
	}
	kgraph := kb.Build()
	model, err := pin.ModelFromRows(kgraph, 1, []float64{1}, rows)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w) + 1
	gb := graph.NewBuilder(n, true)
	for i, wi := range w {
		gb.AddEdge(0, i+1, wi)
	}
	basePref, cost := NewMatrix(n, items), NewMatrix(n, items)
	for i, v := range pref {
		basePref.Row(i + 1)[0] = v
	}
	imp := make([]float64, items)
	for x := range imp {
		imp[x] = 1
		for u := 0; u < n; u++ {
			cost.Row(u)[x] = 1
		}
	}
	params := DefaultParams()
	params.Chi = chi
	p := &Problem{
		Substrate: &Substrate{
			G: gb.Build(), KG: kgraph, PIN: model,
			Importance: imp, BasePref: basePref, Cost: cost,
		},
		Budget: 1e9, T: 1, Params: params,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// starEvent runs one promotion event of the star: user 0 has adopted
// item 0, each user in dirty has adopted the unrelated last item, and
// user 0 promotes item 0 to every friend from sample stream i.
func starEvent(st *State, master *rng.Rand, i int, dirty []int, res *Result) {
	st.resetSplit(master, i)
	st.ForceAdopt(0, 0)
	for _, u := range dirty {
		st.ForceAdopt(u, st.items-1)
	}
	st.propagateFrom(adoptEvent{user: 0, item: 0}, 1, 1, nil, res)
}

// Star weights and preferences: W·clampPref(P0) spans 0 (preferences
// 0, −0 and negative), NaN, products from 0.02 to 0.72 and preferences
// above 1, and the largest product, p̄, is 0.75 (W = 0.75, P0 = 1.4).
var (
	starW    = []float64{0.9, 0.3, 1, 0.6, 0.75, 0.5, 0.2, 1, 0.45, 0.8, 0.35, 0.95, 0.6, 0.4, 1, 0.7, 0.25, 0.85, 0.55, 0.65}
	starPref = []float64{0.8, 0.5, 0, math.Copysign(0, -1), -0.3, 1.4, 0.6, 0.25, math.NaN(), 0.9, 0.7, 0.1, 1, 0.05, 0.3, 0.65, 0.95, 0.4, 2, 0.5}
	starRCs  = []float64{0.6, 0, 0.3, 0.9}
)

// TestCleanTargetsDistribution checks propagateFrom's two subset
// samplers over a 20-friend star, 200 000 events a case, with five
// friends dirtied in between (users 2, 7, 12, 16 and 19, which take
// Act and Pref and their own coins). Friend u must buy item 0 with
// frequency p_u = W·clampPref(P0) (0 for a NaN or non-positive
// product) and take row entry j by association with frequency
// χ·p_u·rC_j, capped at 1; and every pair of those events must occur
// jointly with the product of their frequencies, all within 5 binomial
// standard errors (pairs expected fewer than 25 times are skipped).
// The cases are q = p̄ = 0.75 with qa = χ·p̄·max rC = 0.3375, and q = qa
// = 1 (a friend with W = 1 and P0 = 1.2, and χ = 1.5), where every
// clean friend and pair is landed on and one association is certain.
func TestCleanTargetsDistribution(t *testing.T) {
	const events = 200000
	dirty := []int{2, 7, 12, 16, 19}
	certain := slices.Clone(starPref)
	certain[2] = 1.2
	cases := []struct {
		name string
		pref []float64
		chi  float64
	}{
		{"q-below-one", starPref, 0.5},
		{"q-one", certain, 1.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := starProblem(t, starW, c.pref, starRCs, c.chi)
			friends, r := len(starW), len(starRCs)
			// event e of friend u: e = (u−1)·(1+r) for the purchase,
			// plus 1+j for row entry j
			ne := friends * (1 + r)
			want := make([]float64, ne)
			for i := range friends {
				pa := starW[i] * clampPref(c.pref[i])
				if !(pa > 0) {
					pa = 0
				}
				want[i*(1+r)] = min(pa, 1)
				for j, rc := range starRCs {
					want[i*(1+r)+1+j] = min(c.chi*pa*rc, 1)
				}
			}
			single := make([]float64, ne)
			pair := make([]float64, ne*ne)
			st := NewState(p)
			master := rng.New(0x57A2)
			var res Result
			res.PerItem = make([]float64, p.NumItems())
			var hits []int
			for i := 0; i < events; i++ {
				starEvent(st, master, i, dirty, &res)
				hits = hits[:0]
				for u := 1; u <= friends; u++ {
					for k := 0; k <= r; k++ {
						if st.Adopted(u, k) {
							hits = append(hits, (u-1)*(1+r)+k)
						}
					}
				}
				for a, e := range hits {
					single[e]++
					for _, f := range hits[a+1:] {
						pair[e*ne+f]++
					}
				}
			}
			check := func(what string, got, want float64) {
				t.Helper()
				if want == 0 || want == 1 {
					if got != want {
						t.Errorf("%s: frequency %v, want exactly %v", what, got, want)
					}
					return
				}
				if want*events < 25 {
					return
				}
				if se := math.Sqrt(want * (1 - want) / events); math.Abs(got-want) > 5*se {
					t.Errorf("%s: frequency %.6f, want %.6f (%.1f standard errors)", what, got, want, math.Abs(got-want)/se)
				}
			}
			name := func(e int) string {
				if k := e % (1 + r); k > 0 {
					return fmt.Sprintf("friend %d entry %d", e/(1+r)+1, k-1)
				}
				return fmt.Sprintf("friend %d purchase", e/(1+r)+1)
			}
			for e := range ne {
				check(name(e), single[e]/events, want[e])
				for f := e + 1; f < ne; f++ {
					check(name(e)+" with "+name(f), pair[e*ne+f]/events, want[e]*want[f])
				}
			}
		})
	}
}

// TestCleanTargetsDrawAccounting pins the draws of an event over clean
// friends: none when p̄ = 0 (every preference 0, −0, negative or NaN),
// and exactly two Exp draws, with no adoption, when the first has
// E·scale ≥ n and the second E·scaleA ≥ n·r for the n friends and r
// row entries: the exact no-landing tests of both samplers.
func TestCleanTargetsDrawAccounting(t *testing.T) {
	none := []float64{0, math.Copysign(0, -1), -0.5, math.NaN(), 0}
	p := starProblem(t, []float64{0.9, 0.3, 1, 0.6, 0.75}, none, starRCs, 0.5)
	st := NewState(p)
	if b := st.bound[0]; b != (cleanBound{}) || math.Signbit(b.pbar) {
		t.Fatalf("bound cell %+v, want p̄ = +0 and no scales", b)
	}
	master := rng.New(5)
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	for i := 0; i < 64; i++ {
		st.resetSplit(master, i)
		s0 := st.rngv.Stream()
		starEvent(st, master, i, nil, &res)
		if d := draws(s0, st.rngv.Stream()); d != 0 {
			t.Fatalf("stream %d: an event with p̄ = 0 took %d draws, want 0", i, d)
		}
	}
	pref := make([]float64, len(starPref))
	for i, v := range starPref {
		pref[i] = v / 500
	}
	p = starProblem(t, starW, pref, starRCs, 0.5)
	st = NewState(p)
	n, r := len(starW), len(starRCs)
	b := st.bound[0]
	exits, steps := 0, 0
	for i := 0; i < 64; i++ {
		st.resetSplit(master, i)
		s0 := st.rngv.Stream()
		s, e1 := s0.Exp()
		s, e2 := s.Exp()
		if e1*b.scale < float64(n) || e2*b.scaleA < float64(n*r) {
			continue
		}
		exits++
		starEvent(st, master, i, nil, &res)
		if got := st.rngv.Stream(); got != s {
			t.Fatalf("stream %d: E = %v, %v exit both samplers, but the event took %d draws, want the %d of two Exp draws", i, e1, e2, draws(s0, got), draws(s0, s))
		}
		steps += draws(s0, s)
		for u := 1; u <= n; u++ {
			if len(st.AdoptedList(u)) != 0 {
				t.Fatalf("stream %d: both samplers exited, but friend %d adopted %v", i, u, st.AdoptedList(u))
			}
		}
	}
	if exits < 32 {
		t.Fatalf("only %d of 64 streams exit both samplers at once: the check is nearly vacuous", exits)
	}
	t.Logf("%d exits took %d generator steps", exits, steps)
}

// TestBoundSkipsNaN pins the clean-target bound on a problem whose base
// preferences include NaN, −0, negative values and values above 1:
// each cell's p̄ must be the largest W·clampPref(P0) over the user's
// out-arcs among the products that are not NaN, and +0 when none is
// positive. Go's max would return NaN on a NaN product and so make
// every landing of that source a rejected NaN coin. Both skip scales
// must be finite and match p̄ (checkBound). The table must also be
// built once per problem: two states share it.
func TestBoundSkipsNaN(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, false, graph.WeightModel{Mean: 0.35, Jitter: 0.4}, rng.New(0x60D))
	p := testProblem(t, g, func(u, x int) float64 {
		switch k := (u*7 + x*13) % 11; k {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2, 3:
			return -0.1 * float64(k)
		case 4, 5:
			return 1 + 0.2*float64(k)
		default:
			return 0.1 + 0.08*float64(k)
		}
	}, nil, 2, DefaultParams())
	st := NewState(p)
	if other := NewState(p); &other.bound[0] != &st.bound[0] {
		t.Fatal("two states of one problem hold separate bound tables")
	}
	checkBound(t, p, st.bound)
	items := p.NumItems()
	poisoned := 0
	for u := 0; u < p.NumUsers(); u++ {
		arcs := p.G.Out(u)
		for x := 0; x < items; x++ {
			want, nan := 0.0, false
			for ai, to := range arcs.To {
				pa := arcs.W[ai] * clampPref(p.BasePref.At(int(to), x))
				if math.IsNaN(pa) {
					nan = true
					continue
				}
				want = max(want, pa)
			}
			if nan && want > 0 {
				poisoned++
			}
			if got := st.bound[u*items+x].pbar; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p̄(%d, %d) = %v, want %v", u, x, got, want)
			}
		}
	}
	if poisoned == 0 {
		t.Fatal("no cell has a NaN product beside a positive one: the check is vacuous")
	}
}

// checkBound checks every cell's skip scales against its p̄ and p's Chi
// and InitMaxRC: skipScale of q = min(p̄, 1) and qa = min(χ·p̄·maxRC, 1),
// finite and not negative, and 0 exactly where q or qa is 0 or 1.
func checkBound(t *testing.T, p *Problem, bound []cleanBound) {
	t.Helper()
	items := p.NumItems()
	for c, b := range bound {
		x := c % items
		for _, sc := range []struct {
			name     string
			q, scale float64
		}{
			{"scale", min(b.pbar, 1), b.scale},
			{"scaleA", min(p.Params.Chi*b.pbar*p.PIN.InitMaxRC(x), 1), b.scaleA},
		} {
			want := 0.0
			if sc.q > 0 && sc.q < 1 {
				want = -1 / math.Log1p(-sc.q)
			}
			if math.Float64bits(sc.scale) != math.Float64bits(want) || math.IsInf(sc.scale, 0) || sc.scale < 0 {
				t.Fatalf("cell (%d, %d): %s %v for q = %v, want %v", c/items, x, sc.name, sc.scale, sc.q, want)
			}
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

// cleanArcsBench is an 8-friend clean out-list at the dysimbench
// problem's rates (Amazon-shaped, scale 0.5): W·Ppref averages about
// 0.010 and peaks at p̄ = 0.028, and item 0's association row has 20
// entries of nearly equal rC (0.30 to 0.36) at χ = 0.5. Per friend
// that is 0.010 expected purchases and 0.034 expected association
// picks, against 0.028 purchase and 0.10 association landings.
func cleanArcsBench(b *testing.B) *Problem {
	src := rng.New(2024)
	rcs := make([]float64, 20)
	for j := range rcs {
		rcs[j] = 0.30 + 0.06*src.Float64()
	}
	w := []float64{0.05, 0.12, 0.08, 0.2, 0.03, 0.1, 0.15, 0.07}
	pref := []float64{0.2, 0.05, 0.1, 0.14, 0.3, 0.06, 0.04, 0.12}
	return starProblem(b, w, pref, rcs, 0.5)
}

// BenchmarkCleanArcs times one promotion event over an 8-friend clean
// out-list (ns/event) and counts its draws (draws/event): through
// propagateFrom's two subset samplers, and with a purchase coin and an
// association row per friend, as the loop drew them before the
// samplers. Both include their adoptions and the rewind that cleans
// them before the next event.
func BenchmarkCleanArcs(b *testing.B) {
	p := cleanArcsBench(b)
	st := NewState(p)
	st.Reset(rng.New(1))
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	subset := func(s rng.Stream) rng.Stream {
		st.rngv.SetStream(s)
		st.rewindTo(0)
		st.propagateFrom(adoptEvent{user: 0, item: 0}, 1, 1, nil, &res)
		return st.rngv.Stream()
	}
	arcs := p.G.Out(0)
	row, init, maxRC := p.PIN.Row(0), p.PIN.InitRow(0), p.PIN.InitMaxRC(0)
	coins := func(s rng.Stream) rng.Stream {
		st.rewindTo(0)
		var hit bool
		for ai, to := range arcs.To {
			u := int(to)
			pa := arcs.W[ai] * clampPref(p.BasePref.At(u, 0))
			if s, hit = s.Bernoulli(pa); hit {
				st.adopt(u, 0, 1, 1, TriggerPromotion, nil, &res)
			}
			arow := st.adopted[u]
			for j := 0; ; j++ {
				if s, j = assocNext(s, row, init, arow, j, p.Params.Chi*pa, maxRC); j == len(row) {
					break
				}
				st.adopt(u, int(row[j].Y), 1, 1, TriggerAssociation, nil, &res)
			}
		}
		return s
	}
	for _, bc := range []struct {
		name  string
		event func(rng.Stream) rng.Stream
	}{{"Coins", coins}, {"Subset", subset}} {
		b.Run(bc.name, func(b *testing.B) {
			s := rng.New(1).Stream()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = bc.event(s)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			const sample = 100000
			total := 0
			for i := 0; i < sample; i++ {
				next := bc.event(s)
				total += draws(s, next)
				s = next
			}
			b.ReportMetric(float64(total)/sample, "draws/event")
		})
	}
}
