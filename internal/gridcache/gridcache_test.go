package gridcache

import (
	"bytes"
	"fmt"
	"testing"

	"imdpp/internal/diffusion"
)

// testCache builds a cache whose problem key is a constant — key-space
// behaviour is exercised through the group-key coordinates.
func testCache(maxBytes int64, dir string) (*Cache, diffusion.GridCache) {
	c := New(Config{
		MaxBytes: maxBytes,
		Dir:      dir,
		KeyFn:    func(*diffusion.Problem) string { return "problem-A" },
	})
	return c, c.View(&diffusion.Problem{})
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
	c, v := testCache(1<<20, "")
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
	key := "problem-A" + string(AppendGroupKey(nil, 7, 0, 4, seeds, nil, false))
	if want := int64(len(key)) + rowsBytes(want); st.Bytes != want {
		t.Fatalf("committed entry accounts %d bytes, want %d", st.Bytes, want)
	}
}

// TestCacheDiskSpill checks the lane's spill codec: a fresh cache
// over the same directory reloads a committed grid as a disk hit that
// saves its samples. Image verification is castore's
// (TestSpillRoundTripAndCorruption).
func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	seeds := []diffusion.Seed{{User: 5, Item: 1, T: 2}}
	want := rowsFor(9, 6)

	_, v1 := testCache(1<<20, dir)
	_, tk := v1.Begin(4, 0, 6, seeds, nil, true)
	tk.Commit(want)

	c2, v2 := testCache(1<<20, dir)
	got, tk2 := v2.Begin(4, 0, 6, seeds, nil, true)
	if tk2 != nil || !sameRows(got, want) {
		t.Fatalf("spill reload failed: rows=%v ticket=%v", got, tk2)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.SamplesSaved != 6 {
		t.Fatalf("stats %+v: want one 6-sample disk hit", st)
	}

	// an image whose rows do not span the key's sample range is a miss
	c3, _ := testCache(1<<20, dir)
	other := []diffusion.Seed{{User: 6, Item: 1, T: 2}}
	c3.store.Put("problem-A"+string(AppendGroupKey(nil, 4, 0, 6, other, nil, true)), rowsFor(9, 5))
	_, v4 := testCache(1<<20, dir)
	if rows, tk := v4.Begin(4, 0, 6, other, nil, true); tk == nil {
		t.Fatalf("short spilled grid served: %d rows", len(rows))
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
	noKey := New(Config{})
	if v := noKey.View(&diffusion.Problem{}); v != nil {
		t.Fatal("nil KeyFn must yield a nil view")
	}
	withKey, _ := testCache(0, "")
	if v := withKey.View(nil); v != nil {
		t.Fatal("nil problem must yield a nil view")
	}
}

// TestProblemKeySeparation checks two problems with distinct content
// addresses never share entries even at identical group coordinates.
func TestProblemKeySeparation(t *testing.T) {
	n := 0
	c := New(Config{KeyFn: func(*diffusion.Problem) string {
		n++
		return fmt.Sprintf("problem-%d", n)
	}})
	pA, pB := &diffusion.Problem{}, &diffusion.Problem{}
	vA := c.View(pA)
	vB := c.View(pB)
	seeds := []diffusion.Seed{{User: 0, Item: 0, T: 1}}
	_, tk := vA.Begin(1, 0, 2, seeds, nil, false)
	tk.Commit(rowsFor(1, 2))
	if rows, tk := vB.Begin(1, 0, 2, seeds, nil, false); rows != nil {
		t.Fatal("problem B answered from problem A's entry")
	} else {
		tk.Abort()
	}
	// content addresses are memoized per problem pointer: a repeat View
	// of pA must not re-run KeyFn
	_ = c.View(pA)
	if n != 2 {
		t.Fatalf("KeyFn ran %d times, want 2", n)
	}
}
