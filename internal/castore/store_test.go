package castore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// byteStore is a store of byte-slice values costed like a lane that
// accounts memory: key bytes plus value bytes.
func byteStore(budget int64) *Store[[]byte] {
	return New(Config[[]byte]{
		Budget: budget,
		Cost:   func(key string, v []byte) int64 { return int64(len(key) + len(v)) },
	})
}

func valueFor(tag, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(tag + i)
	}
	return v
}

// ledger recomputes the committed cost and count from the index, and
// checks that no committed entry keeps a flight channel.
func ledger[V any](t *testing.T, s *Store[V]) (cost int64, n int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.index {
		if e.committed {
			if e.elem == nil || e.key != k {
				t.Fatalf("committed entry %q outside the LRU", k)
			}
			if e.done != nil {
				t.Fatalf("committed entry %q holds its flight channel", k)
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
	s := byteStore(1 << 20)

	_, owner := s.Begin("a")
	_, joiner := s.Begin("a")
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
	if v, tk := s.Begin("a"); tk != nil || string(v) != string(want) {
		t.Fatalf("committed key is not a hit (ticket %v)", tk)
	}
	if st := s.Stats(); st.Joins != 1 || st.Hits != 1 || st.Lookups != 3 {
		t.Fatalf("stats %+v: want 3 lookups, 1 join, 1 hit", st)
	}

	// abort: the waiter is released empty-handed and may retry as owner
	_, owner2 := s.Begin("b")
	_, joiner2 := s.Begin("b")
	owner2.Abort()
	owner2.Commit(want) // settled: a late Commit is a no-op
	if _, ok := joiner2.Wait(nil); ok {
		t.Fatal("waiter on an aborted flight must get ok=false")
	}
	if _, retry := s.Begin("b"); retry == nil || !retry.Owned() {
		t.Fatal("aborted key must be ownable again")
	} else {
		retry.Abort()
	}

	// a fired stop preempts a Wait; the owner's flight is unaffected
	_, owner3 := s.Begin("c")
	_, joiner3 := s.Begin("c")
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

// TestJoinerWakesOnSettle pins the hand-off of a flight's channel:
// joiners waiting when the owner settles and a joiner that calls Wait
// only afterwards all wake, on Commit and on Abort, and the settled
// entry no longer holds the channel. make race runs it under -race.
func TestJoinerWakesOnSettle(t *testing.T) {
	want := valueFor(1, 8)
	for _, commit := range []bool{true, false} {
		s := byteStore(1 << 20)
		_, owner := s.Begin("k")
		woke := make(chan bool, 3)
		for range 3 {
			_, tk := s.Begin("k")
			go func() {
				_, ok := tk.Wait(nil)
				woke <- ok
			}()
		}
		_, late := s.Begin("k")
		time.Sleep(10 * time.Millisecond) // let the joiners block
		if commit {
			owner.Commit(want)
		} else {
			owner.Abort()
		}
		go func() {
			_, ok := late.Wait(nil)
			woke <- ok
		}()
		for range 4 {
			select {
			case ok := <-woke:
				if ok != commit {
					t.Fatalf("commit=%v: a joiner woke with ok=%v", commit, ok)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("commit=%v: a joiner never woke", commit)
			}
		}
		s.mu.Lock()
		e := s.index["k"]
		s.mu.Unlock()
		switch {
		case commit && (e == nil || e.done != nil):
			t.Fatal("the committed entry is missing or holds its flight channel")
		case !commit && e != nil:
			t.Fatal("the aborted flight is still indexed")
		}
	}
}

func TestEvictionCostLedger(t *testing.T) {
	// each entry costs 2 key bytes + 100 value bytes; 1000 holds nine
	s := byteStore(1000)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("%02d", i)
		v, tk := s.Begin(key)
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
	if _, tk := s.Begin("00"); tk == nil {
		t.Fatal("evicted key still answers from memory")
	} else {
		tk.Abort()
	}
	if _, tk := s.Begin("31"); tk != nil {
		t.Fatal("newest key was evicted before older ones")
	}
	// an entry whose cost alone exceeds the budget is evicted at once,
	// but the owner's waiters still receive it
	_, owner := s.Begin("big")
	_, joiner := s.Begin("big")
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
	s := byteStore(1 << 20) // no eviction: committed keys stay
	var owners [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				kid := (w + r) % keys
				v, tk := s.Begin(fmt.Sprint(kid))
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
	s2 := byteStore(150)
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func(w int) {
			defer wg2.Done()
			for r := 0; r < rounds; r++ {
				kid := (w*rounds + r) % (keys * 2)
				key := fmt.Sprint(kid)
				_, tk := s2.Begin(key)
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

// TestDoBuildsOnce: concurrent callers of one key share one build and
// its value, and a later call is a hit.
func TestDoBuildsOnce(t *testing.T) {
	s := byteStore(1 << 20)
	const callers = 16
	var builds atomic.Int32
	release := make(chan struct{})
	got := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Do("k", nil, func() ([]byte, error) {
				builds.Add(1)
				<-release // hold the flight open until every caller is in
				return valueFor(7, 8), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}()
	}
	for s.Stats().Lookups < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i, v := range got {
		if &v[0] != &got[0][0] {
			t.Fatalf("caller %d got its own value, not the shared build", i)
		}
	}
	if _, err := s.Do("k", nil, func() ([]byte, error) {
		t.Fatal("a stored key was built again")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDoFailedBuildNotStored: a failed build returns its error to its
// owner and stores nothing; a joiner that was waiting on it builds the
// value itself.
func TestDoFailedBuildNotStored(t *testing.T) {
	s := byteStore(1 << 20)
	boom := errors.New("boom")
	joined, fail := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, err := s.Do("k", nil, func() ([]byte, error) {
			close(joined)
			<-fail
			return nil, boom
		})
		owner <- err
	}()
	<-joined
	joiner := make(chan []byte, 1)
	go func() {
		v, err := s.Do("k", nil, func() ([]byte, error) { return valueFor(3, 8), nil })
		if err != nil {
			t.Errorf("joiner: %v", err)
		}
		joiner <- v
	}()
	for s.Stats().Joins == 0 {
		time.Sleep(time.Millisecond)
	}
	close(fail)
	if err := <-owner; !errors.Is(err, boom) {
		t.Fatalf("owner got %v, want its build's error", err)
	}
	if v := <-joiner; string(v) != string(valueFor(3, 8)) {
		t.Fatalf("joiner got %v, want the value it built itself", v)
	}
	if v, ok := s.Get("k"); !ok || string(v) != string(valueFor(3, 8)) {
		t.Fatal("the joiner's build was not stored")
	}
	if st := s.Stats(); st.Entries != 1 || st.Cost != int64(1+8) {
		t.Fatalf("stats %+v: the failed build left a trace", st)
	}
}

// TestDoJoinerOwnStop: a joiner whose stop fires returns at once with
// ErrStopped, while the owner's build still completes and is stored.
func TestDoJoinerOwnStop(t *testing.T) {
	s := byteStore(1 << 20)
	building, finish := make(chan struct{}), make(chan struct{})
	owner := make(chan []byte, 1)
	go func() {
		v, _ := s.Do("k", nil, func() ([]byte, error) {
			close(building)
			<-finish
			return valueFor(5, 8), nil
		})
		owner <- v
	}()
	<-building
	stop := make(chan struct{})
	close(stop)
	if _, err := s.Do("k", stop, func() ([]byte, error) {
		t.Fatal("a joiner built while the owner's build ran")
		return nil, nil
	}); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped joiner got %v, want ErrStopped", err)
	}
	select {
	case <-owner:
		t.Fatal("the owner finished before its build was released")
	default:
	}
	close(finish)
	if v := <-owner; string(v) != string(valueFor(5, 8)) {
		t.Fatalf("owner got %v", v)
	}
	if v, ok := s.Get("k"); !ok || string(v) != string(valueFor(5, 8)) {
		t.Fatal("the owner's build was not stored after its joiner stopped")
	}
}
