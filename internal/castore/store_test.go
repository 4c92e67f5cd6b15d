package castore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// byteStore is a store of byte-slice values costed like a lane that
// accounts memory: key bytes plus value bytes.
func byteStore(budget int64, dir string) *Store[[]byte] {
	return New(Config[[]byte]{
		Budget: budget,
		Cost:   func(key string, v []byte) int64 { return int64(len(key) + len(v)) },
		Dir:    dir,
		Encode: func(b, v []byte) []byte { return append(b, v...) },
		Decode: func(p []byte) ([]byte, error) {
			if len(p) == 0 {
				return nil, errors.New("empty payload")
			}
			return append([]byte(nil), p...), nil
		},
	})
}

func valueFor(tag, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(tag + i)
	}
	return v
}

// ledger recomputes the committed cost and count from the index.
func ledger[V any](t *testing.T, s *Store[V]) (cost int64, n int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.index {
		if e.committed {
			if e.elem == nil || e.key != k {
				t.Fatalf("committed entry %q outside the LRU", k)
			}
			cost += e.cost
			n++
		}
	}
	if n != s.lru.Len() {
		t.Fatalf("%d committed entries, %d in the LRU", n, s.lru.Len())
	}
	return cost, n
}

// TestLRUEviction pins recency under a count budget through the
// Get/Put path the result lane uses.
func TestLRUEviction(t *testing.T) {
	s := New(Config[int]{Budget: 2})
	s.Put("k1", 1)
	s.Put("k2", 2)
	if _, ok := s.Get("k1"); !ok { // refresh k1 → k2 becomes LRU
		t.Fatal("k1 missing")
	}
	s.Put("k3", 3)
	if _, ok := s.Get("k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	if got, ok := s.Get("k1"); !ok || got != 1 {
		t.Fatal("k1 lost")
	}
	if got, ok := s.Get("k3"); !ok || got != 3 {
		t.Fatal("k3 lost")
	}
	// re-putting a key replaces its value without growing the store
	s.Put("k1", 10)
	if got, _ := s.Get("k1"); got != 10 {
		t.Fatalf("replaced k1 = %d, want 10", got)
	}
	st := s.Stats()
	if st.Entries != 2 || st.Cost != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v: want 2 entries, cost 2, 1 eviction", st)
	}
	// a non-positive budget retains nothing
	off := New(Config[int]{Budget: -1})
	off.Put("k", 1)
	if _, ok := off.Get("k"); ok {
		t.Fatal("a disabled store answered a Get")
	}
}

func TestSingleflightJoinAndAbort(t *testing.T) {
	s := byteStore(1<<20, "")

	_, owner := s.Begin("a", nil)
	_, joiner := s.Begin("a", nil)
	if owner == nil || !owner.Owned() || joiner == nil || joiner.Owned() {
		t.Fatalf("second concurrent Begin must join, not own (owner=%v joiner=%v)", owner, joiner)
	}
	want := valueFor(1, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, ok := joiner.Wait(nil)
		if !ok || string(v) != string(want) {
			t.Errorf("joiner: ok=%v v=%v", ok, v)
		}
	}()
	owner.Commit(want)
	<-done
	if v, tk := s.Begin("a", nil); tk != nil || string(v) != string(want) {
		t.Fatalf("committed key is not a hit (ticket %v)", tk)
	}
	if st := s.Stats(); st.Joins != 1 || st.Hits != 1 || st.Lookups != 3 {
		t.Fatalf("stats %+v: want 3 lookups, 1 join, 1 hit", st)
	}

	// abort: the waiter is released empty-handed and may retry as owner
	_, owner2 := s.Begin("b", nil)
	_, joiner2 := s.Begin("b", nil)
	owner2.Abort()
	owner2.Commit(want) // settled: a late Commit is a no-op
	if _, ok := joiner2.Wait(nil); ok {
		t.Fatal("waiter on an aborted flight must get ok=false")
	}
	if _, retry := s.Begin("b", nil); retry == nil || !retry.Owned() {
		t.Fatal("aborted key must be ownable again")
	} else {
		retry.Abort()
	}

	// a fired stop preempts a Wait; the owner's flight is unaffected
	_, owner3 := s.Begin("c", nil)
	_, joiner3 := s.Begin("c", nil)
	stop := make(chan struct{})
	close(stop)
	if _, ok := joiner3.Wait(stop); ok {
		t.Fatal("fired stop channel must preempt Wait")
	}
	owner3.Commit(want)
	if v, ok := s.Get("c"); !ok || string(v) != string(want) {
		t.Fatal("owner's commit lost after a joiner gave up")
	}
}

func TestEvictionCostLedger(t *testing.T) {
	// each entry costs 2 key bytes + 100 value bytes; 1000 holds nine
	s := byteStore(1000, "")
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("%02d", i)
		v, tk := s.Begin(key, nil)
		if tk == nil || !tk.Owned() {
			t.Fatalf("key %s: unexpected hit %v", key, v)
		}
		tk.Commit(valueFor(i, 100))

		cost, n := ledger(t, s)
		st := s.Stats()
		if st.Cost != cost || st.Entries != n {
			t.Fatalf("after insert %d: stats %+v vs recomputed (%d cost, %d entries)", i, st, cost, n)
		}
		if st.Cost > 1000 {
			t.Fatalf("after insert %d: cost %d exceeds the 1000 budget", i, st.Cost)
		}
	}
	if st := s.Stats(); st.Evictions != 32-9 || st.Entries != 9 {
		t.Fatalf("stats %+v: want 23 evictions, 9 resident", st)
	}
	// oldest keys are gone, the newest survive (LRU evicts oldest-first)
	if _, tk := s.Begin("00", nil); tk == nil {
		t.Fatal("evicted key still answers from memory")
	} else {
		tk.Abort()
	}
	if _, tk := s.Begin("31", nil); tk != nil {
		t.Fatal("newest key was evicted before older ones")
	}
	// an entry whose cost alone exceeds the budget is evicted at once,
	// but the owner's waiters still receive it
	_, owner := s.Begin("big", nil)
	_, joiner := s.Begin("big", nil)
	owner.Commit(valueFor(0, 2000))
	if v, ok := joiner.Wait(nil); !ok || len(v) != 2000 {
		t.Fatalf("waiter lost an oversize value: ok=%v len=%d", ok, len(v))
	}
	if _, ok := s.Get("big"); ok {
		t.Fatal("oversize entry retained past the budget")
	}
	if cost, _ := ledger(t, s); s.Stats().Cost != cost {
		t.Fatal("ledger drifted after an oversize eviction")
	}
}

func TestSpillRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	want := valueFor(9, 48)

	s1 := byteStore(1<<20, dir)
	_, tk := s1.Begin("key-A", nil)
	tk.Commit(want)
	if st := s1.Stats(); st.DiskHits != 0 {
		t.Fatalf("writer claims disk hits: %+v", st)
	}

	// a fresh store over the same directory reloads instead of missing
	s2 := byteStore(1<<20, dir)
	if v, tk := s2.Begin("key-A", nil); tk != nil || string(v) != string(want) {
		t.Fatalf("spill reload failed: v=%v ticket=%v", v, tk)
	}
	if v, tk := s2.Begin("key-A", nil); tk != nil || string(v) != string(want) {
		t.Fatal("reloaded entry not resident")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v: want one disk hit, then one memory hit", st)
	}

	image, err := os.ReadFile(s1.Path("key-A"))
	if err != nil {
		t.Fatal(err)
	}
	// every damaged or foreign image is a miss, never a value
	miss := func(name string, b []byte, key string, accept func([]byte) bool) {
		t.Helper()
		s := byteStore(1<<20, dir)
		if err := os.WriteFile(s.Path(key), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, tk := s.Begin(key, accept); tk == nil {
			t.Fatalf("%s: served %v", name, v)
		} else {
			tk.Abort()
		}
	}
	miss("garbage", []byte("garbage"), "key-A", nil)
	miss("truncated", image[:len(image)-1], "key-A", nil)
	miss("extended", append(append([]byte(nil), image...), 0), "key-A", nil)
	miss("no magic", image[len(imageMagic):], "key-A", nil)
	miss("renamed onto another key", image, "key-B", nil)
	miss("undecodable payload", binary.LittleEndian.AppendUint64(appendHeader(nil, "key-A"), 0), "key-A", nil)
	miss("rejected by the caller", image, "key-A", func([]byte) bool { return false })
}

// TestCacheConcurrentStress hammers one store from many goroutines
// over a small key space, checking the two invariants the -race run is
// for: every key is computed by exactly one owner (singleflight), and
// the cost ledger matches the retained entries when the dust settles.
// A second phase repeats under an eviction-heavy budget with aborts.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		workers = 8
		keys    = 24
		rounds  = 30
		size    = 16
	)
	s := byteStore(1<<20, "") // no eviction: committed keys stay
	var owners [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				kid := (w + r) % keys
				v, tk := s.Begin(fmt.Sprint(kid), nil)
				switch {
				case tk == nil:
				case tk.Owned():
					owners[kid].Add(1)
					v = valueFor(kid, size)
					tk.Commit(v)
				default:
					var ok bool
					if v, ok = tk.Wait(nil); !ok {
						t.Errorf("key %d: joined flight aborted without an aborter", kid)
						return
					}
				}
				if len(v) != size || v[0] != byte(kid) {
					t.Errorf("key %d: wrong value %v", kid, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for kid := range owners {
		if n := owners[kid].Load(); n != 1 {
			t.Fatalf("key %d computed %d times, want exactly 1 (singleflight)", kid, n)
		}
	}
	if cost, _ := ledger(t, s); s.Stats().Cost != cost {
		t.Fatalf("ledger %d != recomputed %d", s.Stats().Cost, cost)
	}

	// eviction-heavy phase: the ledger under churn, aborts and Puts
	s2 := byteStore(150, "")
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func(w int) {
			defer wg2.Done()
			for r := 0; r < rounds; r++ {
				kid := (w*rounds + r) % (keys * 2)
				key := fmt.Sprint(kid)
				_, tk := s2.Begin(key, nil)
				switch {
				case tk == nil:
				case !tk.Owned():
					tk.Wait(nil)
				case r%5 == 0:
					tk.Abort() // exercise abort under contention
				case r%7 == 0:
					s2.Put(key, valueFor(kid, size)) // detaches the flight
					tk.Commit(valueFor(kid, size))
				default:
					tk.Commit(valueFor(kid, size))
				}
			}
		}(w)
	}
	wg2.Wait()
	cost, n := ledger(t, s2)
	st := s2.Stats()
	if st.Cost != cost || st.Entries < n {
		t.Fatalf("churn ledger: stats %+v vs recomputed (%d cost, %d committed)", st, cost, n)
	}
	if st.Cost > 150 {
		t.Fatalf("churn left cost %d resident past the 150 budget", st.Cost)
	}
}
