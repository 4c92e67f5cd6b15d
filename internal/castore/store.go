package castore

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Config sizes a Store.
type Config[V any] struct {
	// Budget bounds the summed Cost of committed entries; past it the
	// least recently used are evicted. Budget ≤ 0 retains nothing.
	Budget int64
	// Cost weighs one committed entry (nil → 1, a count bound).
	Cost func(key string, v V) int64
	// Dir, when non-empty, spills committed values to disk. Encode
	// appends v's payload to b; Decode must reject any payload it did
	// not produce in full.
	Dir    string
	Encode func(b []byte, v V) []byte
	Decode func(payload []byte) (V, error)
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

// entry is one index slot. Until committed it is a flight (done open,
// not in the LRU); done is closed once, by Commit or Abort. Put
// entries never fly and have no done channel.
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
	DiskHits  uint64 // values reloaded from the spill
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
// or Abort) or a joined ticket (the key is in flight: Wait). A memory
// miss first tries the spill; accept (nil accepts all) vets a
// reloaded value against what the caller asked for, and a rejected
// one is a miss.
func (s *Store[V]) Begin(key string, accept func(V) bool) (V, *Ticket[V]) {
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
		s.mu.Unlock()
		return zero, &Ticket[V]{s: s, e: e}
	}
	e := &entry[V]{key: key, done: make(chan struct{})}
	s.index[key] = e
	s.mu.Unlock()

	if v, ok := s.load(key); ok && (accept == nil || accept(v)) {
		s.commit(e, v, false)
		return v, nil
	}
	return zero, &Ticket[V]{s: s, e: e, owned: true}
}

// Get returns the committed value under key, refreshing its recency.
// An in-flight or spilled-only key is a miss.
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
	s.save(key, v)
}

// Ticket is one Begin reservation. The owner settles it with Commit
// or Abort (the first call wins; later ones are no-ops); joiners Wait.
type Ticket[V any] struct {
	s       *Store[V]
	e       *entry[V]
	owned   bool
	settled bool
}

// Owned reports whether this caller must compute the value.
func (t *Ticket[V]) Owned() bool { return t.owned }

// Commit publishes the owner's value to waiters, the index and the
// spill. The value is shared from then on and must not be mutated.
func (t *Ticket[V]) Commit(v V) {
	if t.owned && !t.settled {
		t.settled = true
		t.s.commit(t.e, v, true)
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
	t.s.mu.Unlock()
	close(t.e.done)
}

// Wait blocks until the flight settles or stop fires (a nil stop never
// does), returning the committed value, or ok=false when the owner
// aborted or stop fired first.
func (t *Ticket[V]) Wait(stop <-chan struct{}) (V, bool) {
	var zero V
	select {
	case <-t.e.done:
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

// commit publishes v into a flight, enrols it if it is still indexed
// and wakes waiters. A computed value is spilled; one reloaded from
// the spill (persist unset) is counted as a disk hit instead.
func (s *Store[V]) commit(e *entry[V], v V, persist bool) {
	e.v, e.cost = v, s.cfg.Cost(e.key, v)
	s.mu.Lock()
	e.committed = true
	if s.index[e.key] == e {
		s.enrolLocked(e)
	}
	if !persist {
		s.st.DiskHits++
	}
	s.mu.Unlock()
	close(e.done)
	if persist {
		s.save(e.key, v)
	}
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

// imageMagic opens every spill image; files without it (such as the
// per-lane images older builds wrote) are foreign and never read.
const imageMagic = "CAS1"

// Path renders key's spill location: a 128-bit FNV-1a of the key, as
// key bytes are not filename-safe. The full key is stored in the image
// and verified on load, so a hash collision (or a renamed file)
// degrades to a recompute, never an alias.
func (s *Store[V]) Path(key string) string {
	const offset, prime = 14695981039346656037, 1099511628211
	a, b := uint64(offset), uint64(offset)^0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		a = (a ^ uint64(key[i])) * prime
		b = (b ^ uint64(key[i])) * prime
	}
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("%016x%016x.cas", a, b))
}

// appendHeader appends the image prefix that binds it to key.
func appendHeader(b []byte, key string) []byte {
	b = binary.AppendUvarint(append(b, imageMagic...), uint64(len(key)))
	return append(b, key...)
}

// readImage returns the payload of an image written for key. An
// accepted image is exactly appendHeader(key), a u64 payload length
// and that many bytes, so truncated, extended and foreign images are
// all rejected.
func readImage(b []byte, key string) ([]byte, bool) {
	hdr := appendHeader(nil, key)
	if len(b) < len(hdr)+8 || string(b[:len(hdr)]) != string(hdr) {
		return nil, false
	}
	rest := b[len(hdr):]
	if binary.LittleEndian.Uint64(rest) != uint64(len(rest)-8) {
		return nil, false
	}
	return rest[8:], true
}

// load reloads key's spilled value; any failure is a miss.
func (s *Store[V]) load(key string) (v V, ok bool) {
	if s.cfg.Dir == "" {
		return v, false
	}
	b, err := os.ReadFile(s.Path(key))
	if payload, ok := readImage(b, key); err == nil && ok {
		v, err = s.cfg.Decode(payload)
		return v, err == nil
	}
	return v, false
}

// save spills v best-effort, tmp-then-rename so a crashed write never
// leaves a truncated image under the final name. Failures are ignored:
// the store is an accelerator, not a store of record.
func (s *Store[V]) save(key string, v V) {
	if s.cfg.Dir == "" || os.MkdirAll(s.cfg.Dir, 0o755) != nil {
		return
	}
	b := binary.LittleEndian.AppendUint64(appendHeader(nil, key), 0)
	n := len(b)
	b = s.cfg.Encode(b, v)
	binary.LittleEndian.PutUint64(b[n-8:], uint64(len(b)-n))
	path := s.Path(key)
	if os.WriteFile(path+".tmp", b, 0o644) == nil {
		_ = os.Rename(path+".tmp", path)
	}
}
