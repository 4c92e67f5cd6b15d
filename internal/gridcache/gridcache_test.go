package gridcache

import (
	"bytes"
	"testing"

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

func rowsFor(tag int, span int) []diffusion.SampleResult {
	rows := make([]diffusion.SampleResult, span)
	for i := range rows {
		rows[i] = diffusion.SampleResult{
			Sigma:     float64(tag*1000 + i),
			Pi:        float64(tag) / 7,
			Adoptions: float64(i),
			Items:     []int32{int32(i % 3)},
			Counts:    []float64{float64(tag)},
		}
	}
	return rows
}

func sameRows(a, b []diffusion.SampleResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sigma != b[i].Sigma || a[i].Pi != b[i].Pi {
			return false
		}
	}
	return true
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

	rows, tk := v.Begin(7, 0, 4, seeds, nil, false)
	if rows != nil || tk == nil || !tk.Owned() {
		t.Fatalf("first Begin: rows=%v ticket=%v — want an owned miss", rows, tk)
	}
	want := rowsFor(1, 4)
	tk.Commit(want)

	got, tk2 := v.Begin(7, 0, 4, seeds, nil, false)
	if tk2 != nil || !sameRows(got, want) {
		t.Fatalf("second Begin: not a hit (rows=%v ticket=%v)", got, tk2)
	}
	// a different coordinate misses
	if rows, tk := v.Begin(8, 0, 4, seeds, nil, false); rows != nil || !tk.Owned() {
		t.Fatal("different seed must miss")
	} else {
		tk.Abort()
	}

	// a joined flight is a singleflight and credits the samples it saved
	_, owner := v.Begin(9, 0, 4, seeds, nil, false)
	_, joiner := v.Begin(9, 0, 4, seeds, nil, false)
	owner.Abort()
	if _, ok := joiner.Wait(nil); ok {
		t.Fatal("joiner of an aborted flight got rows")
	}

	st := c.Stats()
	if st.Lookups != 5 || st.Hits != 1 || st.Singleflights != 1 || st.Entries != 1 || st.SamplesSaved != 4 {
		t.Fatalf("stats %+v", st)
	}
	// cost is key bytes plus the rows' retained footprint
	key := testProblem(t).ContentDigest().String() + string(AppendGroupKey(nil, 7, 0, 4, seeds, nil, false))
	if want := int64(len(key)) + rowsBytes(want); st.Bytes != want {
		t.Fatalf("committed entry accounts %d bytes, want %d", st.Bytes, want)
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
	_, tk := vA.Begin(1, 0, 2, seeds, nil, false)
	tk.Commit(rowsFor(1, 2))
	if rows, tk := vB.Begin(1, 0, 2, seeds, nil, false); rows != nil {
		t.Fatal("problem B answered from problem A's entry")
	} else {
		tk.Abort()
	}
}
