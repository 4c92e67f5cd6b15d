package gridcache

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
)

// testProblem is the Amazon sample campaign the lane tests key their
// entries by; every call has the same content address.
func testProblem(t testing.TB) *diffusion.Problem {
	t.Helper()
	d, err := dataset.AmazonSample()
	if err != nil {
		t.Fatal(err)
	}
	return d.Clone(120, 3)
}

// testCache builds a cache and its view of testProblem; key-space
// behaviour is exercised through the group-key coordinates.
func testCache(t testing.TB, maxBytes int64) (*Cache, diffusion.GridCache) {
	t.Helper()
	c := New(Config{MaxBytes: maxBytes})
	return c, c.View(testProblem(t))
}

// estimateFor is a distinct estimate per tag over the given items.
func estimateFor(tag, items int) diffusion.Estimate {
	est := diffusion.Estimate{
		Sigma:     float64(tag * 1000),
		Pi:        float64(tag) / 7,
		Adoptions: float64(tag) / 3,
		PerItem:   make([]float64, items),
	}
	for j := range est.PerItem {
		est.PerItem[j] = float64(tag + j)
	}
	return est
}

func sameEstimate(a, b diffusion.Estimate) bool {
	return a.Sigma == b.Sigma && a.MarketSigma == b.MarketSigma && a.Pi == b.Pi &&
		a.Adoptions == b.Adoptions && slices.Equal(a.PerItem, b.PerItem)
}

func TestGroupKeyRoundTrip(t *testing.T) {
	market := make([]bool, 10)
	market[2], market[7] = true, true
	cases := []struct {
		name   string
		seed   uint64
		lo, hi int
		seeds  []diffusion.Seed
		market []bool
		withPi bool
	}{
		{"empty group", 42, 0, 8, nil, nil, false},
		{"one seed", 1, 3, 5, []diffusion.Seed{{User: 4, Item: 1, T: 2}}, nil, true},
		{"masked", 99, 0, 16, []diffusion.Seed{{User: 0, Item: 0, T: 1}, {User: 3, Item: 2, T: 1}}, market, false},
		{"empty mask is not nil mask", 7, 0, 4, nil, make([]bool, 10), false},
		{"multi-promotion", 5, 2, 9, []diffusion.Seed{
			{User: 9, Item: 0, T: 1}, {User: 1, Item: 1, T: 2}, {User: 6, Item: 2, T: 3},
		}, nil, true},
	}
	for _, tc := range cases {
		b := AppendGroupKey(nil, tc.seed, tc.lo, tc.hi, tc.seeds, tc.market, tc.withPi)
		k, err := DecodeGroupKey(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if k.Seed != tc.seed || k.Lo != tc.lo || k.Hi != tc.hi || k.WithPi != tc.withPi {
			t.Fatalf("%s: decoded header %+v", tc.name, k)
		}
		if k.HasMarket != (tc.market != nil) {
			t.Fatalf("%s: HasMarket %v, mask nil-ness %v", tc.name, k.HasMarket, tc.market == nil)
		}
		if !bytes.Equal(k.Append(nil), b) {
			t.Fatalf("%s: re-encode differs from original", tc.name)
		}
	}
}

// TestGroupKeyCanonicalization pins the aliasing contract: reorderings
// the engine itself performs (cross-promotion interleaving) share a
// key; reorderings that can change bits (within one promotion) do not.
func TestGroupKeyCanonicalization(t *testing.T) {
	base := []diffusion.Seed{
		{User: 1, Item: 0, T: 1}, {User: 2, Item: 1, T: 1}, {User: 3, Item: 0, T: 2},
	}
	key := func(seeds []diffusion.Seed) string {
		return string(AppendGroupKey(nil, 9, 0, 4, seeds, nil, false))
	}
	crossT := []diffusion.Seed{
		{User: 3, Item: 0, T: 2}, {User: 1, Item: 0, T: 1}, {User: 2, Item: 1, T: 1},
	}
	if key(base) != key(crossT) {
		t.Fatal("cross-promotion interleaving must share one key (the engine buckets by T)")
	}
	withinT := []diffusion.Seed{
		{User: 2, Item: 1, T: 1}, {User: 1, Item: 0, T: 1}, {User: 3, Item: 0, T: 2},
	}
	if key(base) == key(withinT) {
		t.Fatal("within-promotion order is RNG-significant and must not alias")
	}

	// the other coordinates all separate the key space
	distinct := []string{
		key(base),
		string(AppendGroupKey(nil, 10, 0, 4, base, nil, false)),            // seed
		string(AppendGroupKey(nil, 9, 1, 4, base, nil, false)),             // lo
		string(AppendGroupKey(nil, 9, 0, 5, base, nil, false)),             // hi
		string(AppendGroupKey(nil, 9, 0, 4, base, nil, true)),              // withPi
		string(AppendGroupKey(nil, 9, 0, 4, base, make([]bool, 4), false)), // empty mask ≠ nil
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Fatalf("key variants %d and %d alias", i, j)
		}
		seen[k] = i
	}
}

func TestDecodeGroupKeyRejects(t *testing.T) {
	good := AppendGroupKey(nil, 3, 0, 4, []diffusion.Seed{{User: 1, Item: 0, T: 1}, {User: 2, Item: 1, T: 2}}, nil, false)
	if _, err := DecodeGroupKey(good); err != nil {
		t.Fatalf("canonical key rejected: %v", err)
	}
	// AppendGroupKey canonicalises, so a descending-T image must be
	// forged by hand: the canonical two-seed encoding with its seed
	// records swapped (the records are 3 bytes each here).
	forged := append([]byte{}, good...)
	rec := forged[len(forged)-6:]
	rec[0], rec[1], rec[2], rec[3], rec[4], rec[5] = rec[3], rec[4], rec[5], rec[0], rec[1], rec[2]

	bad := map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-1],
		"trailing byte":  append(append([]byte{}, good...), 0),
		"descending T":   forged,
		"inverted range": AppendGroupKey(nil, 3, 4, 4, nil, nil, false),
	}
	for name, b := range bad {
		if _, err := DecodeGroupKey(b); err == nil {
			t.Errorf("%s: decode accepted a non-canonical key", name)
		}
	}
}

func TestCacheHitMissCommit(t *testing.T) {
	c, v := testCache(t, 1<<20)
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}}

	est, tk := v.Begin(7, 4, seeds, nil, false)
	if est.PerItem != nil || tk == nil || !tk.Owned() {
		t.Fatalf("first Begin: est=%v ticket=%v — want an owned miss", est, tk)
	}
	want := estimateFor(1, 3)
	tk.Commit(estimateFor(1, 3))

	got, tk2 := v.Begin(7, 4, seeds, nil, false)
	if tk2 != nil || !sameEstimate(got, want) {
		t.Fatalf("second Begin: not a hit (est=%v ticket=%v)", got, tk2)
	}
	// a different coordinate misses
	if _, tk := v.Begin(8, 4, seeds, nil, false); tk == nil || !tk.Owned() {
		t.Fatal("different seed must miss")
	} else {
		tk.Abort()
	}

	// a joined flight is a singleflight and credits the samples it saved
	_, owner := v.Begin(9, 4, seeds, nil, false)
	_, joiner := v.Begin(9, 4, seeds, nil, false)
	owner.Abort()
	if _, ok := joiner.Wait(nil); ok {
		t.Fatal("joiner of an aborted flight got an estimate")
	}
	_, owner = v.Begin(10, 4, seeds, nil, false)
	_, joiner = v.Begin(10, 4, seeds, nil, false)
	owner.Commit(estimateFor(2, 3))
	if got, ok := joiner.Wait(nil); !ok || !sameEstimate(got, estimateFor(2, 3)) {
		t.Fatalf("joiner of a committed flight got %v, ok=%v", got, ok)
	}

	st := c.Stats()
	if st.Lookups != 7 || st.Hits != 1 || st.Singleflights != 2 || st.Entries != 2 || st.SamplesSaved != 8 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEntryCostIndependentOfM pins the lane's footprint: one group's
// entry costs its key (16 digest bytes and the group key), a string
// header and the packed estimate — 32 bytes of floats, M and the item
// count as varints, then one varint total per item — whatever the
// sample count it folds, beyond the varint widths.
func TestEntryCostIndependentOfM(t *testing.T) {
	const items = 5
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}}
	d := testProblem(t).ContentDigest()
	uv := func(x uint64) int64 { return int64(len(binary.AppendUvarint(nil, x))) }
	for _, m := range []int{32, 4096} {
		c, v := testCache(t, 1<<20)
		_, tk := v.Begin(7, m, seeds, nil, false)
		tk.Commit(estimateFor(1, items))
		key := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, d.Hi), d.Lo)
		key = AppendGroupKey(key, 7, 0, m, seeds, nil, false)
		packed := 4*8 + uv(uint64(m)) + uv(items)
		for j := range items {
			packed += uv(uint64((1 + j) * m)) // estimateFor's PerItem[j] is 1+j
		}
		want := int64(len(key)) + int64(unsafe.Sizeof("")) + packed
		if st := c.Stats(); st.Bytes != want {
			t.Fatalf("M=%d: entry costs %d bytes, want %d", m, st.Bytes, want)
		}
		if bound := int64(len(key)) + 16 + 4*8 + 2*3 + items*3; want > bound {
			t.Fatalf("M=%d: entry costs %d bytes, over the %d-byte bound", m, want, bound)
		}
	}
}

// TestHitOwnsPerItem checks no caller can write through to an entry:
// changing the committed estimate after Commit, one hit's or a joined
// flight's PerItem leaves the next hit as committed.
func TestHitOwnsPerItem(t *testing.T) {
	_, v := testCache(t, 1<<20)
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}}
	want := estimateFor(1, 3)
	_, owner := v.Begin(7, 4, seeds, nil, false)
	_, joiner := v.Begin(7, 4, seeds, nil, false)
	committed := estimateFor(1, 3)
	owner.Commit(committed)
	committed.PerItem[0] = -1
	joined, _ := joiner.Wait(nil)
	joined.PerItem[0] = -1
	for i := 0; i < 2; i++ {
		got, tk := v.Begin(7, 4, seeds, nil, false)
		if tk != nil || !sameEstimate(got, want) {
			t.Fatalf("hit %d: %v, want %v", i, got, want)
		}
		got.PerItem[0] = -1
	}
}

// foldPerItem is ReduceSampleGrid's per-item arithmetic: the integer
// total scaled by 1/m.
func foldPerItem(total uint64, m int) float64 {
	return float64(total) * (1 / float64(m))
}

// TestPackRoundTrip is the packing's property test: for every sample
// count M the engine may use and every per-item total from 0 to M·|V|
// (|V| = 2¹⁷ users, more than any dataset), at the extremes and at
// random, the fold's PerItem survives pack and unpack bit for bit, and
// the four float fields do whatever their bits.
func TestPackRoundTrip(t *testing.T) {
	const users = 1 << 17
	r := rand.New(rand.NewPCG(1, 2))
	for _, m := range []int{1, 16, 32, 100, 4096, 1 << 22} {
		top := uint64(m) * users
		totals := []uint64{0, 1, 2, uint64(m) - 1, uint64(m), uint64(m) + 1, top / 2, top - 1, top}
		for range 20000 {
			totals = append(totals, r.Uint64N(top+1))
		}
		for off := 0; off < len(totals); off += 64 {
			chunk := totals[off:min(off+64, len(totals))]
			est := diffusion.Estimate{
				Sigma:       math.Float64frombits(r.Uint64()),
				MarketSigma: math.Copysign(0, -1),
				Pi:          math.NaN(),
				Adoptions:   math.Inf(1),
				PerItem:     make([]float64, len(chunk)),
			}
			for j, total := range chunk {
				est.PerItem[j] = foldPerItem(total, m)
			}
			packed, ok := pack(est, m)
			if !ok {
				t.Fatalf("M=%d: pack refused totals %v", m, chunk)
			}
			got := unpack(packed)
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(got.Sigma, est.Sigma) || !same(got.MarketSigma, est.MarketSigma) ||
				!same(got.Pi, est.Pi) || !same(got.Adoptions, est.Adoptions) || len(got.PerItem) != len(chunk) {
				t.Fatalf("M=%d: floats or item count changed: %+v → %+v", m, est, got)
			}
			for j := range chunk {
				if !same(got.PerItem[j], est.PerItem[j]) {
					t.Fatalf("M=%d: total %d: PerItem %v unpacked as %v", m, chunk[j], est.PerItem[j], got.PerItem[j])
				}
			}
		}
	}
}

// TestFoldPerItemIsReduceSampleGrid checks foldPerItem against the
// fold itself, on a row whose first sample carries the item totals as
// the engine's rows do.
func TestFoldPerItemIsReduceSampleGrid(t *testing.T) {
	for _, m := range []int{1, 16, 100, 4096} {
		totals := []uint64{0, 1, 7, uint64(m) - 1, uint64(m)*3 + 1, uint64(m) * 1000}
		row := make([]diffusion.SampleResult, m)
		for j, total := range totals {
			row[0].Items = append(row[0].Items, int32(j))
			row[0].Counts = append(row[0].Counts, float64(total))
		}
		est := diffusion.ReduceSampleGrid([][]diffusion.SampleResult{row}, len(totals))[0]
		for j, total := range totals {
			if math.Float64bits(est.PerItem[j]) != math.Float64bits(foldPerItem(total, m)) {
				t.Fatalf("M=%d total %d: fold %v, foldPerItem %v", m, total, est.PerItem[j], foldPerItem(total, m))
			}
		}
	}
}

// TestCommitUnpackableAborts checks that an estimate the packing cannot
// rebuild bit for bit is never stored: its flight aborts, releasing its
// joiners empty-handed, and the next Begin owns the key afresh.
func TestCommitUnpackableAborts(t *testing.T) {
	_, v := testCache(t, 1<<20)
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}}
	for i, perItem := range []float64{0.3, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), 0x1p60} {
		seed := uint64(100 + i)
		_, owner := v.Begin(seed, 16, seeds, nil, false)
		_, joiner := v.Begin(seed, 16, seeds, nil, false)
		owner.Commit(diffusion.Estimate{PerItem: []float64{1, perItem}})
		if _, ok := joiner.Wait(nil); ok {
			t.Fatalf("PerItem %v: the joiner got an estimate the cache cannot rebuild", perItem)
		}
		if _, tk := v.Begin(seed, 16, seeds, nil, false); tk == nil || !tk.Owned() {
			t.Fatalf("PerItem %v: stored although not packable", perItem)
		} else {
			tk.Abort()
		}
	}
}

func TestViewNilSafety(t *testing.T) {
	var nilCache *Cache
	if v := nilCache.View(&diffusion.Problem{}); v != nil {
		t.Fatal("nil cache must yield a nil view")
	}
	if st := nilCache.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
	c, _ := testCache(t, 0)
	if v := c.View(nil); v != nil {
		t.Fatal("nil problem must yield a nil view")
	}
}

// TestProblemKeySeparation checks two problems with distinct content
// addresses never share entries even at identical group coordinates.
func TestProblemKeySeparation(t *testing.T) {
	c := New(Config{})
	pA := testProblem(t)
	pB := *pA
	pB.Budget++
	vA := c.View(pA)
	vB := c.View(&pB)
	seeds := []diffusion.Seed{{User: 0, Item: 0, T: 1}}
	_, tk := vA.Begin(1, 2, seeds, nil, false)
	tk.Commit(estimateFor(1, 3))
	if _, tk := vB.Begin(1, 2, seeds, nil, false); tk == nil {
		t.Fatal("problem B answered from problem A's entry")
	} else {
		tk.Abort()
	}
}
