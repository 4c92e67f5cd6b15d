package gridcache

import (
	"sync/atomic"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
)

// defaultMaxBytes is the in-memory bound when Config leaves it unset.
const defaultMaxBytes = 64 << 20

// Config sizes a Cache. The zero value selects the defaults.
type Config struct {
	// MaxBytes bounds retained grid bytes in memory (≤0 → 64 MiB).
	// Committed entries beyond it are evicted oldest-first; in-flight
	// reservations are never evicted.
	MaxBytes int64
}

// Cache is the sample-grid lane over a castore.Store: raw per-sample
// outcome grids keyed by (problem content address, master seed,
// sample range, canonical group key) and costed in bytes — DESIGN.md
// §10. One Cache is safe for concurrent use by any number of
// estimators across jobs; per-problem views (View) implement
// diffusion.GridCache.
type Cache struct {
	store *castore.Store[[]diffusion.SampleResult]

	samplesSaved atomic.Uint64
}

// New creates a cache. A disabled cache is a nil *Cache: its views
// are nil, so every caller simulates directly.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	return &Cache{
		store: castore.New(castore.Config[[]diffusion.SampleResult]{
			Budget: cfg.MaxBytes,
			Cost: func(key string, rows []diffusion.SampleResult) int64 {
				return int64(len(key)) + rowsBytes(rows)
			},
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

// Begin implements diffusion.GridCache: resolve one (seed, [lo,hi),
// group, market, withPi) unit to stored rows (hit), an owned ticket
// (first miss — caller simulates and settles), or a joined ticket
// (the same unit is in flight elsewhere — caller Waits).
func (v *view) Begin(seed uint64, lo, hi int, seeds []diffusion.Seed, market []bool, withPi bool) ([]diffusion.SampleResult, diffusion.GridTicket) {
	key := v.problemKey + string(AppendGroupKey(nil, seed, lo, hi, seeds, market, withPi))
	rows, t := v.c.store.Begin(key)
	if t == nil {
		v.c.samplesSaved.Add(uint64(hi - lo))
		return rows, nil
	}
	return nil, ticket{t, &v.c.samplesSaved}
}

// ticket adapts a store ticket to diffusion.GridTicket, crediting the
// samples a joined flight saved.
type ticket struct {
	*castore.Ticket[[]diffusion.SampleResult]
	saved *atomic.Uint64
}

func (t ticket) Wait(stop <-chan struct{}) ([]diffusion.SampleResult, bool) {
	rows, ok := t.Ticket.Wait(stop)
	if ok {
		t.saved.Add(uint64(len(rows)))
	}
	return rows, ok
}

// sampleResultBytes approximates the fixed per-row footprint of one
// diffusion.SampleResult (four float64s plus two slice headers).
const sampleResultBytes = 80

// rowsBytes accounts the retained footprint of one committed row set:
// struct overhead plus the sparse per-item backing arrays. Only a row's
// first sample carries item entries (its row totals), so a row of M
// samples costs about 80·M bytes plus 12 per item it adopted.
func rowsBytes(rows []diffusion.SampleResult) int64 {
	b := int64(len(rows)) * sampleResultBytes
	for i := range rows {
		b += int64(cap(rows[i].Items))*4 + int64(cap(rows[i].Counts))*8
	}
	return b
}
