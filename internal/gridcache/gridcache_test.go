package gridcache

import (
	"bytes"
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
// entry costs its key, the fixed Estimate size and 8 bytes per item,
// whatever the sample count it folds.
func TestEntryCostIndependentOfM(t *testing.T) {
	const items = 5
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}}
	problemKey := testProblem(t).ContentDigest().String()
	for _, m := range []int{32, 4096} {
		c, v := testCache(t, 1<<20)
		_, tk := v.Begin(7, m, seeds, nil, false)
		tk.Commit(estimateFor(1, items))
		key := problemKey + string(AppendGroupKey(nil, 7, 0, m, seeds, nil, false))
		want := int64(len(key)) + int64(unsafe.Sizeof(diffusion.Estimate{})) + 8*items
		if st := c.Stats(); st.Bytes != want {
			t.Fatalf("M=%d: entry costs %d bytes, want %d", m, st.Bytes, want)
		}
	}
}

// TestHitOwnsPerItem checks no caller can write through to an entry:
// changing one hit's (or a joined flight's) PerItem leaves the next hit
// as committed.
func TestHitOwnsPerItem(t *testing.T) {
	_, v := testCache(t, 1<<20)
	seeds := []diffusion.Seed{{User: 1, Item: 0, T: 1}}
	want := estimateFor(1, 3)
	_, owner := v.Begin(7, 4, seeds, nil, false)
	_, joiner := v.Begin(7, 4, seeds, nil, false)
	owner.Commit(estimateFor(1, 3))
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
