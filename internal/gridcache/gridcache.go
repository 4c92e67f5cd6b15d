package gridcache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
	"imdpp/internal/wirebin"
)

// defaultMaxBytes is the in-memory bound when Config leaves it unset.
const defaultMaxBytes = 64 << 20

// Config sizes a Cache. The zero value is NOT usable on its own: a
// nil KeyFn disables caching entirely (View returns nil), because
// without a content address two distinct problems could alias.
type Config struct {
	// MaxBytes bounds retained grid bytes in memory (≤0 → 64 MiB).
	// Committed entries beyond it are evicted oldest-first; in-flight
	// reservations are never evicted.
	MaxBytes int64
	// Dir, when non-empty, spills every committed grid to disk in the
	// canonical AppendSampleGrid wire form and reloads it on a later
	// miss — so eviction (or a daemon restart) downgrades a repeat from
	// a memory hit to a disk hit instead of a re-simulation.
	Dir string
	// KeyFn maps a problem to its content address (the serving layer
	// passes HashProblem). nil disables the cache.
	KeyFn func(*diffusion.Problem) string
}

// Cache is the sample-grid lane over a castore.Store: raw per-sample
// outcome grids keyed by (problem content address, master seed,
// sample range, canonical group key) and costed in bytes — DESIGN.md
// §10. One Cache is safe for concurrent use by any number of
// estimators across jobs; per-problem views (View) implement
// diffusion.GridCache.
type Cache struct {
	keyFn func(*diffusion.Problem) string
	store *castore.Store[[]diffusion.SampleResult]

	pmu      sync.Mutex
	problems map[weak.Pointer[diffusion.Problem]]string // memoized content addresses of live problems

	samplesSaved atomic.Uint64
}

// New creates a cache. A nil KeyFn yields a cache whose views are nil
// — every caller simulates directly, which keeps "cache disabled" a
// configuration state rather than a code path.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	return &Cache{
		keyFn: cfg.KeyFn,
		store: castore.New(castore.Config[[]diffusion.SampleResult]{
			Budget: cfg.MaxBytes,
			Cost: func(key string, rows []diffusion.SampleResult) int64 {
				return int64(len(key)) + rowsBytes(rows)
			},
			Dir: cfg.Dir,
			Encode: func(b []byte, rows []diffusion.SampleResult) []byte {
				return diffusion.AppendSampleGrid(b, [][]diffusion.SampleResult{rows})
			},
			Decode: decodeRows,
		}),
		problems: make(map[weak.Pointer[diffusion.Problem]]string),
	}
}

// Stats is a point-in-time snapshot of the cache counters — the
// "grid" object of the daemon's /metrics document.
type Stats struct {
	// Lookups counts Begin calls; Hits the ones answered from memory.
	Lookups uint64 `json:"lookups"`
	Hits    uint64 `json:"hits"`
	// DiskHits counts grids reloaded from the spill directory instead
	// of re-simulated (neither a memory hit nor a miss-simulate).
	DiskHits uint64 `json:"disk_hits"`
	// Singleflights counts callers that joined an in-flight
	// simulation of the same key instead of duplicating it.
	Singleflights uint64 `json:"singleflights"`
	// Evictions counts committed entries dropped past MaxBytes.
	Evictions uint64 `json:"evictions"`
	// Bytes/Entries describe current residency.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	// SamplesSaved totals the campaign simulations that hits (memory,
	// disk and joined flights) avoided.
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
		DiskHits:      st.DiskHits,
		Singleflights: st.Joins,
		Evictions:     st.Evictions,
		Bytes:         st.Cost,
		Entries:       st.Entries,
		SamplesSaved:  c.samplesSaved.Load(),
	}
}

// View returns the diffusion.GridCache for one problem — the cache
// scoped to that problem's content address, the thing an estimator's
// Grid field holds. It returns nil (caching disabled) on a nil cache
// or nil KeyFn. The content address is memoized per problem pointer,
// so attaching views to the per-solve estimator pair hashes the
// problem once, not once per estimator. The memo holds its problems
// weakly and drops an entry once its problem is collected, so it never
// keeps a problem (or the problem's state pool) alive.
func (c *Cache) View(p *diffusion.Problem) diffusion.GridCache {
	if c == nil || c.keyFn == nil || p == nil {
		return nil
	}
	k := weak.Make(p)
	c.pmu.Lock()
	pk, ok := c.problems[k]
	c.pmu.Unlock()
	if !ok {
		pk = c.keyFn(p)
		c.pmu.Lock()
		if _, ok := c.problems[k]; !ok {
			c.problems[k] = pk
			runtime.AddCleanup(p, c.forget, k)
		}
		c.pmu.Unlock()
	}
	return &view{c: c, problemKey: pk, items: p.NumItems()}
}

// forget drops a collected problem's memoized content address.
func (c *Cache) forget(k weak.Pointer[diffusion.Problem]) {
	c.pmu.Lock()
	delete(c.problems, k)
	c.pmu.Unlock()
}

// view is the per-problem face of the cache.
type view struct {
	c          *Cache
	problemKey string
	items      int // the problem's item count, for checking reloaded rows
}

// Begin implements diffusion.GridCache: resolve one (seed, [lo,hi),
// group, market, withPi) unit to stored rows (hit), an owned ticket
// (first miss — caller simulates and settles), or a joined ticket
// (the same unit is in flight elsewhere — caller Waits).
func (v *view) Begin(seed uint64, lo, hi int, seeds []diffusion.Seed, market []bool, withPi bool) ([]diffusion.SampleResult, diffusion.GridTicket) {
	key := v.problemKey + string(AppendGroupKey(nil, seed, lo, hi, seeds, market, withPi))
	// a spill image that decodes but does not fit the problem (a
	// corrupt or foreign file) is a miss, not rows for the fold
	rows, t := v.c.store.Begin(key, func(rows []diffusion.SampleResult) bool {
		return diffusion.ValidateSampleRow(rows, hi-lo, v.items) == nil
	})
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
// struct overhead plus the sparse per-item backing arrays.
func rowsBytes(rows []diffusion.SampleResult) int64 {
	b := int64(len(rows)) * sampleResultBytes
	for i := range rows {
		b += int64(cap(rows[i].Items))*4 + int64(cap(rows[i].Counts))*8
	}
	return b
}

// decodeRows reads the spill payload: one row set as a single-group
// AppendSampleGrid grid.
func decodeRows(payload []byte) ([]diffusion.SampleResult, error) {
	r := wirebin.NewReader(payload)
	grid, err := diffusion.DecodeSampleGrid(r)
	if err != nil {
		return nil, err
	}
	if len(grid) != 1 {
		return nil, errors.New("gridcache: spill image is not one row set")
	}
	return grid[0], r.Done()
}
