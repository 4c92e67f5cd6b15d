package gridcache

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"unsafe"

	"imdpp/internal/castore"
	"imdpp/internal/diffusion"
	"imdpp/internal/wirebin"
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
	store *castore.Store[string] // packed estimates (pack)

	samplesSaved atomic.Uint64
}

// New creates a cache. A disabled cache is a nil *Cache: its views
// are nil, so every caller simulates directly.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	return &Cache{
		store: castore.New(castore.Config[string]{
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
	d := p.ContentDigest()
	return &view{c: c, problemKey: wirebin.AppendU64(wirebin.AppendU64(nil, d.Hi), d.Lo)}
}

// view is the per-problem face of the cache.
type view struct {
	c          *Cache
	problemKey []byte // the digest's 16 raw bytes, every key's prefix
}

// Begin implements diffusion.GridCache: resolve one (seed, m, group,
// market, withPi) unit to its stored estimate, unpacked (hit), an
// owned ticket (first miss — caller produces and settles), or a joined
// ticket (the same unit is in flight elsewhere — caller Waits).
func (v *view) Begin(seed uint64, m int, seeds []diffusion.Seed, market []bool, withPi bool) (diffusion.Estimate, diffusion.GridTicket) {
	key := AppendGroupKey(append(make([]byte, 0, 64), v.problemKey...), seed, 0, m, seeds, market, withPi)
	packed, t := v.c.store.Begin(string(key))
	if t == nil {
		v.c.samplesSaved.Add(uint64(m))
		return unpack(packed), nil
	}
	return diffusion.Estimate{}, ticket{t, &v.c.samplesSaved, m}
}

// ticket adapts a store ticket to diffusion.GridTicket: it packs what
// it commits, unpacks what it waits for and credits the m samples a
// joined flight saved.
type ticket struct {
	*castore.Ticket[string]
	saved *atomic.Uint64
	m     int
}

// Commit stores est packed. An estimate the packing cannot reproduce
// bit for bit is not stored: the flight aborts, so its waiters produce
// it themselves.
func (t ticket) Commit(est diffusion.Estimate) {
	if packed, ok := pack(est, t.m); ok {
		t.Ticket.Commit(packed)
	} else {
		t.Ticket.Abort()
	}
}

func (t ticket) Wait(stop <-chan struct{}) (diffusion.Estimate, bool) {
	packed, ok := t.Ticket.Wait(stop)
	if !ok {
		return diffusion.Estimate{}, false
	}
	t.saved.Add(uint64(t.m))
	return unpack(packed), true
}

// pack encodes the fold of m samples into one entry: the four float
// fields, m, and each item's total round(PerItem[j]·m), varint-coded.
// The fold divides integer totals by m (PerItem[j] = total·(1/m), as
// diffusion.ReduceSampleGrid computes it), so unpack rebuilds PerItem
// bit for bit; ok is false for any PerItem value for which it would
// not.
func pack(est diffusion.Estimate, m int) (string, bool) {
	b := make([]byte, 0, 4*8+(2+len(est.PerItem))*binary.MaxVarintLen64)
	for _, f := range [...]float64{est.Sigma, est.MarketSigma, est.Pi, est.Adoptions} {
		b = wirebin.AppendU64(b, math.Float64bits(f))
	}
	b = wirebin.AppendUvarint(b, uint64(m))
	b = wirebin.AppendUvarint(b, uint64(len(est.PerItem)))
	inv := 1 / float64(m)
	for _, p := range est.PerItem {
		r := math.Round(p * float64(m))
		if !(r >= 0 && r <= 1<<53) { // also NaN
			return "", false
		}
		total := uint64(r)
		// unpack's arithmetic; the bits compare also tells -0 from 0
		if math.Float64bits(float64(total)*inv) != math.Float64bits(p) {
			return "", false
		}
		b = wirebin.AppendUvarint(b, total)
	}
	return string(b), true
}

// unpack decodes a packed entry into a fresh Estimate, so no caller
// can write through to the entry. The reader only reads the string's
// bytes, so it reads them in place.
func unpack(packed string) diffusion.Estimate {
	r := wirebin.NewReader(unsafe.Slice(unsafe.StringData(packed), len(packed)))
	var est diffusion.Estimate
	for _, f := range [...]*float64{&est.Sigma, &est.MarketSigma, &est.Pi, &est.Adoptions} {
		*f = math.Float64frombits(r.U64())
	}
	inv := 1 / float64(r.Uvarint())
	est.PerItem = make([]float64, r.Uvarint())
	for j := range est.PerItem {
		est.PerItem[j] = float64(r.Uvarint()) * inv
	}
	return est
}

// entryBytes is the cost of one committed entry: its key and its
// packed estimate with the string header that holds it — O(items),
// whatever the sample count.
func entryBytes(key, packed string) int64 {
	return int64(len(key)) + int64(unsafe.Sizeof(packed)) + int64(len(packed))
}
