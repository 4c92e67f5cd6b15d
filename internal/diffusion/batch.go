package diffusion

import (
	"sync"
	"sync/atomic"

	"imdpp/internal/obs"
	"imdpp/internal/rng"
)

// This file is the batch evaluation engine. Every estimate — single or
// batched — funnels through runBatch, which schedules (family × sample)
// work units onto one worker pool kept alive for the whole batch, so a
// universe of K candidates pays the orchestration cost once instead of
// K times. A family is a root group plus the groups that share its
// leading promotions and market mask; they resume from the root's
// checkpoint instead of re-simulating the shared prefix (family.go).
// Sample i of every group draws from the stream Split(i) of the same
// master generator — common random numbers — so marginal-gain
// comparisons across candidates in a greedy round are paired: the
// noise realisation is shared and differences reflect the candidates,
// not the draw. Per-group results are reduced in sample order 0..M-1,
// which makes every Estimate a pure function of (master seed, M),
// independent of worker count and GOMAXPROCS. DESIGN.md §3 states the
// full contract.

// sampleSlot holds one sample's raw campaign outcome until the group's
// deterministic reduction. Per-item adoptions are stored sparsely —
// cascades touch few items, and skipping the zero entries during
// reduction leaves every float64 sum bit-identical (x + 0 == x).
type sampleSlot struct {
	sigma, msigma, pi, adopt float64
	items                    []int32   // items with nonzero adoptions
	counts                   []float64 // parallel adoption counts
}

// familyRun is the in-flight accumulator of one family: a slot array
// per member, root first. Units are claimed family-major, so at most
// ~workers families are in flight and slot arrays can be pooled
// instead of allocated per group.
type familyRun struct {
	slots     [][]sampleSlot
	remaining int32 // samples not yet simulated
}

// getSlots borrows a pooled per-sample slot array (len M).
func (e *Estimator) getSlots() []sampleSlot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.slotFree); n > 0 {
		s := e.slotFree[n-1]
		e.slotFree = e.slotFree[:n-1]
		return s
	}
	return make([]sampleSlot, e.M)
}

// maxRetainedSlotCap bounds the sparse-row capacity a pooled slot may
// keep between batches. Slot backing arrays grow to the largest
// cascade they ever recorded, and the pool lives as long as the
// estimator — without a bound, one pathological batch would pin
// (workers × M × largest-cascade) memory for the estimator's lifetime.
// 1024 entries (~12 KiB per slot) covers typical cascades; rarer giant
// ones just reallocate.
const maxRetainedSlotCap = 1024

func (e *Estimator) putSlots(s []sampleSlot) {
	for i := range s {
		if cap(s[i].items) > maxRetainedSlotCap || cap(s[i].counts) > maxRetainedSlotCap {
			s[i].items = nil
			s[i].counts = nil
		}
	}
	e.mu.Lock()
	e.slotFree = append(e.slotFree, s)
	e.mu.Unlock()
}

// RunBatch estimates σ for every seed group under one shared market
// mask (nil = all users). It is the batched equivalent of calling Run
// per group and returns bit-identical Estimates: sample i of group g
// always uses stream Split(i), and per-group reduction is in sample
// order, so the result is deterministic in (Seed, M) and independent
// of Workers.
func (e *Estimator) RunBatch(groups [][]Seed, market []bool) []Estimate {
	return e.runBatch(groups, func(int) []bool { return market }, false)
}

// RunBatchPi is RunBatch with the future-adoption likelihood π
// (Eq. 13) evaluated over the market for every group.
func (e *Estimator) RunBatchPi(groups [][]Seed, market []bool) []Estimate {
	return e.runBatch(groups, func(int) []bool { return market }, true)
}

// RunBatchMasked estimates each group under its own market mask
// (masks[g] may be nil). withPi adds the π estimate per group.
func (e *Estimator) RunBatchMasked(groups [][]Seed, masks [][]bool, withPi bool) []Estimate {
	return e.runBatch(groups, func(g int) []bool { return masks[g] }, withPi)
}

// SigmaBatch returns the σ estimate of every seed group.
func (e *Estimator) SigmaBatch(groups [][]Seed) []float64 {
	ests := e.RunBatch(groups, nil)
	out := make([]float64, len(ests))
	for i, est := range ests {
		out[i] = est.Sigma
	}
	return out
}

// SamplesDone reports how many Monte-Carlo campaign simulations this
// estimator has run, for throughput (samples/sec) accounting.
func (e *Estimator) SamplesDone() uint64 { return e.samples.Load() }

// runBatch is the engine. maskOf(g) yields group g's market mask.
func (e *Estimator) runBatch(groups [][]Seed, maskOf func(int) []bool, withPi bool) []Estimate {
	k := len(groups)
	out := make([]Estimate, k)
	if k == 0 {
		return out
	}
	// tracing is observation only (DESIGN.md §11): the span records the
	// engine choice and unit counts after the fact, it never picks them
	sp := obs.StartSpan(e.ctx, "sigma_batch")
	defer sp.End()
	sp.SetAttrInt("groups", int64(k))
	sp.SetAttrInt("samples", int64(e.M))
	if e.Grid != nil {
		sp.SetAttr("engine", "grid")
		// memoized path (DESIGN.md §10): resolve the full sample range
		// through the grid cache and reduce with the same canonical
		// sample-order fold the slot path uses — ReduceSampleGrid over
		// RunBatchSamples is golden-pinned bit-identical to the direct
		// engine, so cache-on results equal cache-off results exactly.
		masks := make([][]bool, k)
		for g := range masks {
			masks[g] = maskOf(g)
		}
		grid := e.cachedSamples(groups, nil, masks, withPi, 0, e.M)
		return ReduceSampleGrid(grid, e.P.NumItems())
	}
	fams := planFamilies(groups, maskOf, e.P.T)
	m := e.M
	units := len(fams) * m
	master := rng.New(e.Seed)
	// one backing array for every group's PerItem keeps a large batch
	// from scattering k small allocations
	items := e.P.NumItems()
	buf := make([]float64, k*items)
	for g := range out {
		out[g].PerItem = buf[g*items : (g+1)*items : (g+1)*items]
	}

	w := e.workers()
	if w > units {
		w = units
	}
	if w <= 1 {
		// Single-worker body: samples accumulate straight into the
		// output with no slots, atomics or locks. Each group still sums
		// its samples in order 0..M-1, the pooled path's per-group
		// reduction order, so results stay bit-identical across worker
		// counts.
		sp.SetAttr("engine", "serial")
		e.runSerial(groups, fams, maskOf, withPi, master, out)
		return out
	}
	sp.SetAttr("engine", "slots")
	sp.SetAttrInt("workers", int64(w))

	var (
		next int64
		mu   sync.Mutex
		runs = make([]*familyRun, len(fams))
	)
	claim := func(f int) *familyRun {
		mu.Lock()
		defer mu.Unlock()
		if runs[f] == nil {
			fr := &familyRun{slots: make([][]sampleSlot, fams[f].size()), remaining: int32(m)}
			for j := range fr.slots {
				fr.slots[j] = e.getSlots()
			}
			runs[f] = fr
		}
		return runs[f]
	}
	worker := func() {
		st := e.getState()
		defer e.putState(st)
		var res Result
		res.PerItem = make([]float64, e.P.NumItems())
		// units are claimed family-major, so consecutive units usually
		// belong to one family; caching the last claim keeps the mutex
		// off the per-sample path
		lastF, lastRun := -1, (*familyRun)(nil)
		var i int
		emit := func(j, _ int, res *Result, pi float64) {
			slot := &lastRun.slots[j][i]
			slot.sigma = res.Sigma
			slot.msigma = res.MarketSigma
			slot.adopt = float64(res.Adoptions)
			slot.pi = pi
			slot.items = slot.items[:0]
			slot.counts = slot.counts[:0]
			for x, v := range res.PerItem {
				if v != 0 {
					slot.items = append(slot.items, int32(x))
					slot.counts = append(slot.counts, v)
				}
			}
		}
		for {
			if e.preempted() {
				return // cancelled: abandon the batch between units
			}
			u := atomic.AddInt64(&next, 1) - 1
			if u >= int64(units) {
				return
			}
			f := int(u) / m
			i = int(u) % m
			if f != lastF {
				lastF, lastRun = f, claim(f)
			}
			if !e.runFamily(st, &res, &fams[f], groups, maskOf, withPi, i, master, emit) {
				return
			}
			if atomic.AddInt32(&lastRun.remaining, -1) == 0 {
				for j, slots := range lastRun.slots {
					e.reduce(slots, &out[fams[f].member(j)])
					e.putSlots(slots)
				}
				mu.Lock()
				runs[f] = nil
				mu.Unlock()
			}
		}
	}

	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	e.samples.Add(uint64(k * m))
	return out
}

// runSerial is the lock-free one-worker engine body. out's PerItem
// slices must be preallocated and zeroed.
func (e *Estimator) runSerial(groups [][]Seed, fams []family, maskOf func(int) []bool, withPi bool, master *rng.Rand, out []Estimate) {
	st := e.getState()
	defer e.putState(st)
	var res Result
	res.PerItem = make([]float64, e.P.NumItems())
	emit := func(_, g int, res *Result, pi float64) {
		acc := &out[g]
		acc.Sigma += res.Sigma
		acc.MarketSigma += res.MarketSigma
		acc.Adoptions += float64(res.Adoptions)
		for j, v := range res.PerItem {
			if v != 0 {
				acc.PerItem[j] += v
			}
		}
		acc.Pi += pi
	}
	for f := range fams {
		for i := 0; i < e.M; i++ {
			if e.preempted() || !e.runFamily(st, &res, &fams[f], groups, maskOf, withPi, i, master, emit) {
				return // cancelled: abandon the batch between samples
			}
		}
	}
	inv := 1 / float64(e.M)
	for g := range out {
		acc := &out[g]
		acc.Sigma *= inv
		acc.MarketSigma *= inv
		acc.Pi *= inv
		acc.Adoptions *= inv
		for j := range acc.PerItem {
			acc.PerItem[j] *= inv
		}
	}
	e.samples.Add(uint64(len(groups) * e.M))
}

// reduce folds a group's per-sample slots into the mean Estimate, in
// sample order so the float64 rounding is schedule-independent. out's
// PerItem slice must be preallocated and zeroed.
func (e *Estimator) reduce(slots []sampleSlot, out *Estimate) {
	for si := range slots {
		s := &slots[si]
		out.Sigma += s.sigma
		out.MarketSigma += s.msigma
		out.Pi += s.pi
		out.Adoptions += s.adopt
		for jj, it := range s.items {
			out.PerItem[it] += s.counts[jj]
		}
	}
	inv := 1 / float64(e.M)
	out.Sigma *= inv
	out.MarketSigma *= inv
	out.Pi *= inv
	out.Adoptions *= inv
	for j := range out.PerItem {
		out.PerItem[j] *= inv
	}
}
