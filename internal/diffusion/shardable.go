package diffusion

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"imdpp/internal/obs"
	"imdpp/internal/rng"
)

// This file is the shardable face of the batch engine and its one
// claim loop (drawBatch). The (group × sample) grid of DESIGN.md §3 is
// partitionable by global sample index with zero accuracy cost: sample
// i of every group always draws from the stream Split(i) of the master
// generator, so *which process* simulates a sample cannot change its
// outcome. What is NOT free is the reduction: float64 addition is
// non-associative, so a shard must ship its raw per-sample outcomes —
// not pre-reduced partial sums — and the merger must fold them in
// global sample order 0..M-1 with the same accumulation arithmetic the
// single-process engine uses. That is exactly what RunBatchSamples
// (producer) and ReduceSampleGrid (merger) implement; DESIGN.md §7
// states the full sharding contract. Rows are kept only where samples
// arrive out of order: several local goroutines, sample ranges and
// remote grids. One local goroutine drawing 0..M-1 already visits each
// group's samples in order, so it folds them as it draws (foldSink)
// and holds no row.

// SampleResult is one Monte-Carlo sample's raw campaign outcome — the
// unit shipped between shard workers and the coordinator. Per-item
// adoptions are row totals, not per-sample values: the producer puts
// the item counts summed over a row's whole range on the row's first
// sample (Items/Counts parallel, ascending items, zero entries
// omitted), and every other sample carries none. Only their mean is
// ever read, and counts are integers far below 2^53, so the fold sums
// them exactly however they are spread over a row or over shard
// ranges (DESIGN.md §7).
type SampleResult struct {
	Sigma       float64
	MarketSigma float64
	Pi          float64
	Adoptions   float64
	Items       []int32
	Counts      []float64
}

// Sampler is a remote producer of the full (group × sample) grid
// (Estimator.Remote), behind any grid cache: Samples returns samples
// 0..e.M-1 of every group, as RunBatchSamples(…, 0, e.M) would,
// plus how many of those campaigns it simulated outside e (added to
// e.SamplesDone; samples e simulates itself count there already). It
// must bit-match the local producer — the §3 contract — and may
// compute any range locally through e.RunBatchSamples. ctx is the
// estimator's bound context (nil when unbound); a cancelled batch may
// return garbage, as the local producer does.
type Sampler interface {
	Samples(ctx context.Context, e *Estimator, groups [][]Seed, market []bool, masks [][]bool, withPi bool) (grid [][]SampleResult, remote uint64)
}

// RunBatchSamples simulates the global samples lo..hi-1 of every seed
// group and returns their raw outcomes, outer-indexed by group and
// inner-indexed by sample offset (result[g][i-lo] is sample i of group
// g). market is one shared mask (nil = all users); masks, when
// non-nil, overrides it with a per-group mask (masks[g] may be nil);
// withPi adds the future-adoption likelihood π per sample.
//
// Sample i draws from rng.New(e.Seed).Split(i) regardless of lo/hi, so
// a worker computing [lo,hi) produces bit-identical outcomes to the
// single-process engine's samples lo..hi-1 — the shard-safety half of
// the §3 determinism contract. No reduction happens here; outcomes are
// scheduled onto e.Workers goroutines in any order, which is safe
// precisely because each sample is written to its own slot.
//
// A bound, cancelled context (Bind) makes workers stop claiming units;
// as with the batch engine, the partial result is garbage and callers
// must check their context before trusting it. This is the plain
// local producer: it consults neither Grid nor Remote (DESIGN.md §10).
func (e *Estimator) RunBatchSamples(groups [][]Seed, market []bool, masks [][]bool, withPi bool, lo, hi int) [][]SampleResult {
	sp := obs.StartSpan(e.ctx, "sample_batch")
	defer sp.End()
	sp.SetAttrInt("groups", int64(len(groups)))
	sp.SetAttrInt("lo", int64(lo))
	sp.SetAttrInt("hi", int64(hi))
	return e.runBatchSamplesRaw(groups, market, masks, withPi, lo, hi)
}

// runBatchSamplesRaw is RunBatchSamples without its span: the rows of
// samples lo..hi-1 of every group, drawn on e.workers() goroutines.
func (e *Estimator) runBatchSamplesRaw(groups [][]Seed, market []bool, masks [][]bool, withPi bool, lo, hi int) [][]SampleResult {
	grid := &rowGrid{out: make([][]SampleResult, len(groups)), lo: lo, span: hi - lo, items: e.P.NumItems()}
	e.drawBatch(groups, market, masks, withPi, lo, hi, e.workers(), func() sampleSink { return &rowSink{grid: grid} })
	return grid.out
}

// drawBatch is the engine's one claim loop: it simulates samples
// lo..hi-1 of every group as (family × sample) units on up to w
// goroutines and hands each goroutine's samples to its own sink from
// newSink. Units are claimed family-major, so a single goroutine
// visits each group's samples in index order. A bound, cancelled
// context makes the goroutines stop claiming units between them; the
// sinks then hold partial garbage, which callers must not trust.
func (e *Estimator) drawBatch(groups [][]Seed, market []bool, masks [][]bool, withPi bool, lo, hi, w int, newSink func() sampleSink) {
	k := len(groups)
	if k == 0 || hi <= lo {
		return
	}
	maskOf := func(int) []bool { return market }
	if masks != nil {
		maskOf = func(g int) []bool { return masks[g] }
	}
	fams := planFamilies(groups, maskOf, e.P.T)
	span := hi - lo
	master := rng.New(e.Seed)
	units := len(fams) * span
	w = min(w, units)
	var next int64
	body := func(sink sampleSink) {
		st := e.getState()
		defer e.putState(st)
		defer sink.family(nil)
		var res Result
		res.PerItem = make([]float64, e.P.NumItems())
		lastF, i := -1, 0
		emit := func(j, g int, res *Result, pi float64) { sink.put(j, g, i, res, pi) }
		for {
			if e.preempted() {
				return // cancelled: abandon between units
			}
			u := atomic.AddInt64(&next, 1) - 1
			if u >= int64(units) {
				return
			}
			f := int(u) / span
			i = lo + int(u)%span
			if f != lastF {
				lastF = f
				sink.family(&fams[f])
			}
			if !e.runFamily(st, &res, &fams[f], groups, maskOf, withPi, i, master, emit) {
				return
			}
		}
	}
	if w <= 1 {
		body(newSink())
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(sink sampleSink) {
				defer wg.Done()
				body(sink)
			}(newSink())
		}
		wg.Wait()
	}
	e.samples.Add(uint64(k * span))
}

// sampleSink takes the samples one goroutine of drawBatch simulates,
// in its claim order.
type sampleSink interface {
	// family is called before the goroutine's first sample of family
	// f, and with nil once it stops drawing.
	family(f *family)
	// put takes sample i of batch group g, member j of the current
	// family.
	put(j, g, i int, res *Result, pi float64)
}

// rowGrid is the (group × sample) grid of one batch's row sinks:
// out[g][i-lo] is sample i of group g.
type rowGrid struct {
	mu    sync.Mutex
	out   [][]SampleResult
	lo    int
	span  int
	items int
}

// rowSink is one goroutine's sink into a rowGrid. Each sample lands in
// its own slot, so goroutines may draw in any order. totals[j*items:
// (j+1)*items] sums member j's per-item counts over this goroutine's
// samples of its current family.
type rowSink struct {
	grid   *rowGrid
	f      *family
	totals []float64
}

// family moves the goroutine from its current family to f (nil:
// none). It adds the goroutine's totals for the family it leaves into
// the first sample of each member's row, and claims f's rows. Units
// are claimed family-major, so a goroutine settles each family at most
// once and the mutex stays off the per-sample path; a claimed family's
// rows are never reassigned, so writing samples after the claim needs
// no lock.
//
// Rows materialize on first claim, not up front: at large k × span the
// eager grid is gigabytes of allocation with no preemption point,
// which is exactly the window a cancelled solve gets stuck in. A
// preempted batch leaves unclaimed groups nil — the result is declared
// garbage then anyway (callers must check their context).
func (s *rowSink) family(f *family) {
	r := s.grid
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.f != nil {
		for j := 0; j < s.f.size(); j++ {
			addItemTotals(&r.out[s.f.member(j)][0], s.totals[j*r.items:(j+1)*r.items])
		}
	}
	if s.f = f; f == nil {
		return
	}
	for j := 0; j < f.size(); j++ {
		if g := f.member(j); r.out[g] == nil {
			r.out[g] = make([]SampleResult, r.span)
		}
	}
	n := f.size() * r.items
	s.totals = slices.Grow(s.totals[:0], n)[:n]
	clear(s.totals)
}

func (s *rowSink) put(j, g, i int, res *Result, pi float64) {
	slot := &s.grid.out[g][i-s.grid.lo]
	slot.Sigma = res.Sigma
	slot.MarketSigma = res.MarketSigma
	slot.Adoptions = float64(res.Adoptions)
	slot.Pi = pi
	items := s.grid.items
	acc := s.totals[j*items : (j+1)*items]
	for x, v := range res.PerItem {
		acc[x] += v
	}
}

// foldSink adds each sample into its group's Estimate as it is drawn,
// for a single goroutine drawing samples 0..M-1 (Estimator.produce).
// That goroutine visits each group's samples in index order, the order
// in which ReduceSampleGrid adds a row, so the float fields take the
// same bits; the per-item counts are integers far below 2^53, summed
// exactly. Scaled by Estimate.mean(M), as ReduceSampleGrid scales a
// row, the sums are the Estimates the grid would fold to, with no row
// held.
type foldSink []Estimate

func (foldSink) family(*family) {}

func (s foldSink) put(_, g, _ int, res *Result, pi float64) {
	est := &s[g]
	est.Sigma += res.Sigma
	est.MarketSigma += res.MarketSigma
	est.Pi += pi
	est.Adoptions += float64(res.Adoptions)
	for x, v := range res.PerItem {
		est.PerItem[x] += v
	}
}

// addItemTotals adds the dense per-item counts acc into s's sparse
// entries, reusing them when the support is unchanged; acc is left
// holding the sum. Counts are integers far below 2^53, so the sum is
// exact whatever order the workers settle in.
func addItemTotals(s *SampleResult, acc []float64) {
	for jj, it := range s.Items {
		acc[it] += s.Counts[jj]
	}
	n := 0
	for _, v := range acc {
		if v != 0 {
			n++
		}
	}
	switch {
	case n == 0:
		return
	case n != len(s.Items): // the support grew; else rewrite in place
		s.Items, s.Counts = make([]int32, n), make([]float64, n)
	}
	n = 0
	for x, v := range acc {
		if v != 0 {
			s.Items[n], s.Counts[n] = int32(x), v
			n++
		}
	}
}

// ValidateSampleRow checks that row can be folded by ReduceSampleGrid
// as one group's samples over a range of span samples, for a problem
// with the given number of items: span samples, each with parallel
// Items and Counts, every item in [0, items) and every count an
// integer in [0, 2^53] — the range in which row totals add exactly. The
// fold indexes PerItem by item unchecked, so rows from outside the
// process — a shard worker's response — must pass it.
func ValidateSampleRow(row []SampleResult, span, items int) error {
	if len(row) != span {
		return fmt.Errorf("%d samples for range span %d", len(row), span)
	}
	for i := range row {
		if len(row[i].Items) != len(row[i].Counts) {
			return fmt.Errorf("sample %d: items/counts length mismatch", i)
		}
		for _, it := range row[i].Items {
			if it < 0 || int(it) >= items {
				return fmt.Errorf("sample %d: item %d out of range", i, it)
			}
		}
		for _, c := range row[i].Counts {
			// !(c >= 0) also catches NaN; c > 2^53 also +Inf
			if !(c >= 0) || c > 1<<53 || c != math.Trunc(c) {
				return fmt.Errorf("sample %d: count %v is not an integer in [0, 2^53]", i, c)
			}
		}
	}
	return nil
}

// ReduceSampleGrid folds a fully assembled per-sample grid (grid[g][i]
// is global sample i of group g; every row must hold all M samples in
// index order) into mean Estimates. The fold is the same left-to-right
// sample-order accumulation — Sigma, MarketSigma, Pi, Adoptions, then
// the sparse per-item entries, scaled by 1/M at the end — that
// RunBatch applies to its own grid, so an Estimate merged from any
// partition of [0,M) into worker-computed ranges is bit-identical to
// the single-process RunBatch result: the float fields are per-sample
// and added in sample order, and the per-item entries are integer row
// totals whose sum is exact in any order.
func ReduceSampleGrid(grid [][]SampleResult, items int) []Estimate {
	out := newEstimates(len(grid), items)
	for g := range out {
		acc := &out[g]
		row := grid[g]
		for si := range row {
			s := &row[si]
			acc.Sigma += s.Sigma
			acc.MarketSigma += s.MarketSigma
			acc.Pi += s.Pi
			acc.Adoptions += s.Adoptions
			for jj, it := range s.Items {
				acc.PerItem[it] += s.Counts[jj]
			}
		}
		acc.mean(len(row))
	}
	return out
}

// newEstimates returns k zero Estimates whose PerItem slices, items
// long, share one buffer.
func newEstimates(k, items int) []Estimate {
	out := make([]Estimate, k)
	buf := make([]float64, k*items)
	for g := range out {
		out[g].PerItem = buf[g*items : (g+1)*items : (g+1)*items]
	}
	return out
}

// mean turns the sums over n samples in est into their means: every
// field times 1/n, the one finish of both folds.
func (est *Estimate) mean(n int) {
	inv := 1 / float64(n)
	est.Sigma *= inv
	est.MarketSigma *= inv
	est.Pi *= inv
	est.Adoptions *= inv
	for j := range est.PerItem {
		est.PerItem[j] *= inv
	}
}
