package gridcache

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
)

// defaultMaxBytes is the in-memory bound when Config leaves it unset.
const defaultMaxBytes = 64 << 20

// Config sizes a Cache. The zero value selects the defaults.
type Config struct {
	// MaxBytes bounds retained entry bytes in memory (≤0 → 64 MiB).
	// Committed entries beyond it are evicted oldest-first; in-flight
	// reservations are never evicted.
	MaxBytes int64
}

// Cache is the sample-grid lane over a castore.Store: each group's
// folded estimate over samples 0..M-1, keyed by (problem content
// address, master seed, sample range, canonical group key) and costed
// in bytes — DESIGN.md §10. One Cache is safe for concurrent use by
// any number of estimators across jobs; per-problem views (View)
// implement diffusion.GridCache.
type Cache struct {
	store *castore.Store[diffusion.Estimate]

	samplesSaved atomic.Uint64
}

// New creates a cache. A disabled cache is a nil *Cache: its views
// are nil, so every caller simulates directly.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	return &Cache{
		store: castore.New(castore.Config[diffusion.Estimate]{
			Budget: cfg.MaxBytes,
			Cost:   entryBytes,
		}),
	}
}

// Stats is a point-in-time snapshot of the cache counters — the
// "grid" object of the daemon's /metrics document.
type Stats struct {
	// Lookups counts Begin calls; Hits the ones answered from memory.
	Lookups uint64 `json:"lookups"`
	Hits    uint64 `json:"hits"`
	// Singleflights counts callers that joined an in-flight
	// simulation of the same key instead of duplicating it.
	Singleflights uint64 `json:"singleflights"`
	// Evictions counts committed entries dropped past MaxBytes.
	Evictions uint64 `json:"evictions"`
	// Bytes/Entries describe current residency.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	// SamplesSaved totals the campaign simulations that hits and joined
	// flights avoided.
	SamplesSaved uint64 `json:"samples_saved"`
}

// Stats snapshots the counters; a nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := c.store.Stats()
	return Stats{
		Lookups:       st.Lookups,
		Hits:          st.Hits,
		Singleflights: st.Joins,
		Evictions:     st.Evictions,
		Bytes:         st.Cost,
		Entries:       st.Entries,
		SamplesSaved:  c.samplesSaved.Load(),
	}
}

// View returns the diffusion.GridCache for one problem — the cache
// scoped to that problem's content address (Problem.ContentDigest,
// memoized per substrate), the thing an estimator's Grid field holds.
// It returns nil (caching disabled) on a nil cache or problem.
func (c *Cache) View(p *diffusion.Problem) diffusion.GridCache {
	if c == nil || p == nil {
		return nil
	}
	return &view{c: c, problemKey: p.ContentDigest().String()}
}

// view is the per-problem face of the cache.
type view struct {
	c          *Cache
	problemKey string
}

// Begin implements diffusion.GridCache: resolve one (seed, m, group,
// market, withPi) unit to a copy of its stored estimate (hit), an
// owned ticket (first miss — caller produces and settles), or a joined
// ticket (the same unit is in flight elsewhere — caller Waits).
func (v *view) Begin(seed uint64, m int, seeds []diffusion.Seed, market []bool, withPi bool) (diffusion.Estimate, diffusion.GridTicket) {
	key := v.problemKey + string(AppendGroupKey(nil, seed, 0, m, seeds, market, withPi))
	est, t := v.c.store.Begin(key)
	if t == nil {
		v.c.samplesSaved.Add(uint64(m))
		return ownCopy(est), nil
	}
	return diffusion.Estimate{}, ticket{t, &v.c.samplesSaved, m}
}

// ticket adapts a store ticket to diffusion.GridTicket, crediting the
// m samples a joined flight saved.
type ticket struct {
	*castore.Ticket[diffusion.Estimate]
	saved *atomic.Uint64
	m     int
}

func (t ticket) Wait(stop <-chan struct{}) (diffusion.Estimate, bool) {
	est, ok := t.Ticket.Wait(stop)
	if ok {
		t.saved.Add(uint64(t.m))
	}
	return ownCopy(est), ok
}

// ownCopy copies a stored estimate's PerItem, so no caller can write
// through to the entry.
func ownCopy(est diffusion.Estimate) diffusion.Estimate {
	est.PerItem = slices.Clone(est.PerItem)
	return est
}

// estimateBytes is the fixed footprint of one diffusion.Estimate (four
// float64s and the PerItem slice header).
const estimateBytes = int64(unsafe.Sizeof(diffusion.Estimate{}))

// entryBytes is the cost of one committed entry: its key, the Estimate
// and its PerItem array — O(items), whatever the sample count.
func entryBytes(key string, est diffusion.Estimate) int64 {
	return int64(len(key)) + estimateBytes + 8*int64(cap(est.PerItem))
}
