package castore

import (
	"container/list"
	"errors"
	"sync"
)

// Config sizes a Store.
type Config[V any] struct {
	// Budget bounds the summed Cost of committed entries; past it the
	// least recently used are evicted. Budget ≤ 0 retains nothing.
	Budget int64
	// Cost weighs one committed entry (nil → 1, a count bound).
	Cost func(key string, v V) int64
}

// Store is a cost-budgeted, singleflight LRU of values keyed by
// content address. It is safe for concurrent use.
type Store[V any] struct {
	cfg Config[V]

	mu    sync.Mutex
	index map[string]*entry[V]
	lru   *list.List // committed entries, oldest at Front
	st    Stats      // counters; Entries is filled in by Stats
}

// entry is one index slot. Until settled it is a flight (not in the
// LRU) and done is the channel its tickets wait on; Commit or Abort
// closes it once and clears the field, so a committed entry holds no
// channel. Put entries never fly.
type entry[V any] struct {
	key       string
	v         V
	cost      int64
	done      chan struct{}
	committed bool
	elem      *list.Element
}

// New creates a store.
func New[V any](cfg Config[V]) *Store[V] {
	if cfg.Cost == nil {
		cfg.Cost = func(string, V) int64 { return 1 }
	}
	return &Store[V]{cfg: cfg, index: make(map[string]*entry[V]), lru: list.New()}
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Lookups   uint64 // Begin and Get calls
	Hits      uint64 // lookups answered from memory
	Joins     uint64 // Begins that joined a flight instead of duplicating it
	Evictions uint64 // committed entries dropped past the budget
	Entries   int    // indexed keys, committed and in flight
	Cost      int64  // summed cost of the committed entries
}

// Stats snapshots the counters.
func (s *Store[V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Entries = len(s.index)
	return st
}

// Begin resolves key to a stored value (hit: nil ticket), an owned
// ticket (first miss: the caller computes the value and must Commit
// or Abort) or a joined ticket (the key is in flight: Wait).
func (s *Store[V]) Begin(key string) (V, *Ticket[V]) {
	var zero V
	s.mu.Lock()
	s.st.Lookups++
	if e := s.index[key]; e != nil {
		if e.committed {
			s.st.Hits++
			s.lru.MoveToBack(e.elem)
			v := e.v
			s.mu.Unlock()
			return v, nil
		}
		s.st.Joins++
		t := &Ticket[V]{s: s, e: e, done: e.done}
		s.mu.Unlock()
		return zero, t
	}
	done := make(chan struct{})
	e := &entry[V]{key: key, done: done}
	s.index[key] = e
	s.mu.Unlock()
	return zero, &Ticket[V]{s: s, e: e, done: done, owned: true}
}

// ErrStopped is Do's error when the caller's stop fires while it waits
// on another caller's build.
var ErrStopped = errors.New("castore: wait stopped")

// Do returns the value under key, running build on a miss: one build
// per key across concurrent callers, which share its value. A failed
// build is returned to its caller and not stored; a joiner it leaves
// empty-handed begins again, building itself if no one else has. A
// joiner's stop (nil: never) ends only its own wait, with ErrStopped.
func (s *Store[V]) Do(key string, stop <-chan struct{}, build func() (V, error)) (V, error) {
	for {
		v, t := s.Begin(key)
		if t == nil {
			return v, nil
		}
		if t.Owned() {
			defer t.Abort() // a panicking build must not strand its joiners
			v, err := build()
			if err == nil {
				t.Commit(v)
			}
			return v, err
		}
		if v, ok := t.Wait(stop); ok {
			return v, nil
		}
		select {
		case <-stop:
			return v, ErrStopped
		default: // the owner's build failed
		}
	}
}

// Get returns the committed value under key, refreshing its recency.
// An in-flight key is a miss.
func (s *Store[V]) Get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Lookups++
	if e := s.index[key]; e != nil && e.committed {
		s.st.Hits++
		s.lru.MoveToBack(e.elem)
		return e.v, true
	}
	var zero V
	return zero, false
}

// Put stores v under key, replacing any committed value. A flight on
// key is detached: its waiters still get its value, but its commit no
// longer enters the index.
func (s *Store[V]) Put(key string, v V) {
	e := &entry[V]{key: key, v: v, cost: s.cfg.Cost(key, v), committed: true}
	s.mu.Lock()
	if old := s.index[key]; old != nil && old.elem != nil {
		s.lru.Remove(old.elem)
		old.elem = nil
		s.st.Cost -= old.cost
	}
	s.index[key] = e
	s.enrolLocked(e)
	s.mu.Unlock()
}

// Ticket is one Begin reservation. The owner settles it with Commit
// or Abort (the first call wins; later ones are no-ops); joiners Wait.
// A ticket keeps its flight's done channel, taken under the store's
// lock, so the entry can drop it once the flight settles.
type Ticket[V any] struct {
	s       *Store[V]
	e       *entry[V]
	done    chan struct{}
	owned   bool
	settled bool
}

// Owned reports whether this caller must compute the value.
func (t *Ticket[V]) Owned() bool { return t.owned }

// Commit publishes the owner's value to waiters and the index. The
// value is shared from then on and must not be mutated.
func (t *Ticket[V]) Commit(v V) {
	if t.owned && !t.settled {
		t.settled = true
		t.s.commit(t, v)
	}
}

// Abort cancels an owned flight without publishing: waiters get
// ok=false and the next Begin on the key owns afresh.
func (t *Ticket[V]) Abort() {
	if !t.owned || t.settled {
		return
	}
	t.settled = true
	t.s.mu.Lock()
	if t.s.index[t.e.key] == t.e {
		delete(t.s.index, t.e.key)
	}
	t.e.done = nil
	t.s.mu.Unlock()
	close(t.done)
}

// Wait blocks until the flight settles or stop fires (a nil stop never
// does), returning the committed value, or ok=false when the owner
// aborted or stop fired first.
func (t *Ticket[V]) Wait(stop <-chan struct{}) (V, bool) {
	var zero V
	select {
	case <-t.done:
	case <-stop:
		return zero, false
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if !t.e.committed {
		return zero, false
	}
	if t.e.elem != nil {
		t.s.lru.MoveToBack(t.e.elem)
	}
	return t.e.v, true
}

// commit publishes v into t's flight, enrols it if it is still
// indexed and wakes waiters.
func (s *Store[V]) commit(t *Ticket[V], v V) {
	e := t.e
	e.v, e.cost = v, s.cfg.Cost(e.key, v)
	s.mu.Lock()
	e.committed = true
	e.done = nil
	if s.index[e.key] == e {
		s.enrolLocked(e)
	}
	s.mu.Unlock()
	close(t.done)
}

// enrolLocked adds a committed, indexed entry to the LRU and evicts
// oldest-first past the budget — e itself if its cost alone exceeds
// it. Waiters keep an evicted flight's value through their ticket.
func (s *Store[V]) enrolLocked(e *entry[V]) {
	e.elem = s.lru.PushBack(e)
	s.st.Cost += e.cost
	for s.st.Cost > s.cfg.Budget && s.lru.Len() > 0 {
		ev := s.lru.Remove(s.lru.Front()).(*entry[V])
		ev.elem = nil
		delete(s.index, ev.key)
		s.st.Cost -= ev.cost
		s.st.Evictions++
	}
}
