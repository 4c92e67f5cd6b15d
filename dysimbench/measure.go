package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/diffusion"
	"imdpp/internal/obs"
)

// setupReps is how many times a run sets up its stack; setup_s is the
// median, and the last stack is the one measured.
const setupReps = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	trace    bool
	outDir   string
}

// bench is one run's shared state.
type bench struct {
	cfg       config
	plan      *plan
	rec       *recorder   // nil when untraced
	tracer    *obs.Tracer // nil when untraced
	captureOp *op         // the solve whose engine calls the replay microbenchmark re-runs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run measured.
type report struct {
	cfg       config
	plan      *plan
	results   []opResult
	window    time.Duration
	clients   []time.Duration // each client's busy time within the window
	checks    []check
	attempted int
	failed    int
	e2e       map[string]metric
	layer     map[string]metric

	// exact counts, which repeat for a seed
	samples    uint64
	sigmaEvals int
	gridHits   uint64
	spread     float64

	overhead float64 // traced over untraced probe wall time, minus one

	// reference-kernel samples taken before each set-up and at every
	// cycle barrier, and the end-to-end metrics before scaling by them
	setupRef, runRef speedRef
	raw              map[string]metric

	spans     []span      // the benchmark's own spans
	obsTraces []obs.Trace // the program's tracer ring, which drops spans
}

func (r *report) correct() bool { return r.failed == 0 }

func (b *bench) newStack(traced bool) (stack, error) {
	if b.cfg.workload == "serve-mixed" {
		return newServeStack(b, traced)
	}
	return newShardStack(b, traced)
}

// run executes one workload: set-up (repeated), the timed operation
// list, result checks and, when traced, the isolated microbenchmarks.
func run(cfg config) (*report, error) {
	pl, err := newPlan(cfg.workload, cfg.seed, cfg.seconds, cfg.scale)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, plan: pl}
	if cfg.trace {
		b.rec = newRecorder()
		b.tracer = obs.NewTracer()
	}
	rep := &report{cfg: cfg, plan: pl}
	var (
		st           stack
		setups, gens []float64
		firstCalls   []float64
	)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		rep.setupRef.sample()
		t0 := time.Now()
		gen, err := pl.materialize()
		if err != nil {
			return nil, err
		}
		if st, err = b.newStack(cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
		if ss, ok := st.(*shardStack); ok {
			firstCalls = append(firstCalls, ss.firstCall.Seconds())
		}
	}
	defer st.close()
	b.rec.resetCounts()
	for i := range pl.Ops {
		if pl.Ops[i].Kind == opCold {
			b.captureOp = &pl.Ops[i]
			break
		}
	}

	before := st.counters()
	runtime.GC()
	rep.results, rep.clients, rep.window = b.execute(st, &rep.runRef)
	after := st.counters()
	rep.spans = b.rec.snapshot()
	rep.obsTraces = b.tracer.Snapshot()
	calls, groups := b.rec.counts()

	rep.countOps()
	rep.exactCounts(before, after)
	rep.spread = rescore(pl, rep.results, cfg.seed)
	rep.raw = rep.endToEnd(setups)
	rep.e2e = rep.atReferenceSpeed(rep.raw)
	rep.addChecks(b.checks(rep))
	if cfg.trace {
		rep.layer = b.perLayer(rep, st, before, after, layerInputs{
			gens: gens, firstCalls: firstCalls, calls: calls, groups: groups,
		})
	}
	return rep, nil
}

// execute runs the operation list, one closed loop per client, and
// returns the results, each client's busy time and the timed window.
// The clients meet at the end of every cycle, so each cycle's solves
// run beside that cycle's queries whatever order the seed drew: without
// the barrier the clients drifted apart and the solves of whichever
// cycle came last ran alone, which moved resolve_s from seed to seed.
// At every barrier, with the program idle, ref samples the machine's
// speed; the window is the cycles' time alone.
func (b *bench) execute(st stack, ref *speedRef) ([]opResult, []time.Duration, time.Duration) {
	ops := b.plan.Ops
	results := make([]opResult, len(ops))
	clients := make([]time.Duration, b.plan.clients)
	var window time.Duration
	ref.sample()
	for lo := 0; lo < len(ops); {
		hi := lo
		for hi < len(ops) && ops[hi].Inst == ops[lo].Inst {
			hi++
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					o := &ops[i]
					if o.Client != c {
						continue
					}
					inst := &b.plan.Insts[o.Inst]
					switch o.Kind {
					case opCold, opNearDup, opRepeat:
						results[i] = st.solve(o, inst)
					default:
						results[i] = st.query(o, inst)
					}
				}
				clients[c] += time.Since(t0)
			}(c)
		}
		wg.Wait()
		window += time.Since(start)
		ref.sample()
		lo = hi
	}
	return results, clients, window
}

func (r *report) countOps() {
	r.attempted += len(r.results)
	for _, res := range r.results {
		if res.Err != nil {
			r.failed++
		}
	}
}

func (r *report) addChecks(cs []check) {
	for _, c := range cs {
		r.checks = append(r.checks, c)
		r.attempted++
		if !c.OK {
			r.failed++
		}
	}
}

// solves returns the results of the cold and near-duplicate solves that
// ran (exact repeats are answered without solving).
func (r *report) solves() []*opResult {
	var out []*opResult
	for i := range r.results {
		k := r.plan.Ops[i].Kind
		if (k == opCold || k == opNearDup) && r.results[i].Err == nil && !r.results[i].CacheHit {
			out = append(out, &r.results[i])
		}
	}
	return out
}

func (r *report) exactCounts(before, after counters) {
	for _, res := range r.solves() {
		r.sigmaEvals += res.Sol.Stats.SigmaEvals
		r.samples += res.Sol.Stats.SamplesSimulated
	}
	if r.cfg.workload == "serve-mixed" {
		// the service counts solve and σ-query samples alike
		r.samples = after.svc.SamplesSimulated - before.svc.SamplesSimulated
		r.gridHits = after.svc.Grid.Hits - before.svc.Grid.Hits
		return
	}
	for _, res := range r.results {
		r.samples += res.Samples
	}
}

// rescore is the mean σ of the returned plans, re-scored after timing by
// an independent estimator whose seed is fixed by the run's seed.
func rescore(pl *plan, results []opResult, seed uint64) float64 {
	sum, n := 0.0, 0
	for i, res := range results {
		if k := pl.Ops[i].Kind; (k != opCold && k != opNearDup) || res.Sol == nil || res.Err != nil {
			continue
		}
		sum += diffusion.NewEstimator(pl.Insts[pl.Ops[i].Inst].p, rescoreMC, rescoreSeed^seed).Sigma(res.Sol.Seeds)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (r *report) walls(kind opKind) []float64 {
	var out []float64
	for i, res := range r.results {
		if r.plan.Ops[i].Kind == kind && res.Err == nil {
			out = append(out, res.Wall.Seconds())
		}
	}
	return out
}

func (r *report) endToEnd(setups []float64) map[string]metric {
	sigma := r.walls(opSigma)
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"solve_s":      {mean(r.walls(opCold)), "s"},
		"resolve_s":    {mean(r.walls(opNearDup)), "s"},
		"sigma_p50_ms": {1e3 * median(sigma), "ms"},
		"sigma_p90_ms": {1e3 * quantile(sigma, 0.9), "ms"},
		"ops_per_s":    {float64(len(r.results)) / r.window.Seconds(), "1/s"},
		"spread":       {r.spread, "sigma"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
}

// atReferenceSpeed scales the timed metrics by the reference samples of
// their stretch of the run: set-up by those taken before each set-up,
// the rest by those taken at the cycle barriers.
func (r *report) atReferenceSpeed(raw map[string]metric) map[string]metric {
	out := make(map[string]metric, len(raw))
	for name, m := range raw {
		switch name {
		case "setup_s":
			m.Value *= r.setupRef.factor()
		case "solve_s", "resolve_s", "sigma_p50_ms", "sigma_p90_ms":
			m.Value *= r.runRef.factor()
		case "ops_per_s":
			m.Value /= r.runRef.factor()
		}
		out[name] = m
	}
	return out
}

// sameSolution compares two solutions by Float64bits of σ and by seeds.
func sameSolution(a, b *core.Solution) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing solution")
	}
	if math.Float64bits(a.Sigma) != math.Float64bits(b.Sigma) {
		return fmt.Errorf("σ %v != %v", a.Sigma, b.Sigma)
	}
	if len(a.Seeds) != len(b.Seeds) {
		return fmt.Errorf("%d seeds != %d", len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			return fmt.Errorf("seed %d: %+v != %+v", i, a.Seeds[i], b.Seeds[i])
		}
	}
	return nil
}

func checkOf(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

// coldSolve is the reference: a plain in-process solve with no cache,
// backend or tracing.
func coldSolve(inst *instance, order core.OrderMetric) (*core.Solution, error) {
	sol, err := core.Solve(inst.p, core.Options{Seed: inst.SolveSeed, Order: order})
	return &sol, err
}

// checks verifies the run's outputs after timing: every solve path the
// workload used must return the σ bits of a cold solve of the same
// instance, and exact σ queries the bits of a fresh local estimator.
func (b *bench) checks(r *report) []check {
	pl := b.plan
	var out []check
	first := func(kind opKind) int {
		for i, o := range pl.Ops {
			if o.Kind == kind {
				return i
			}
		}
		return -1
	}
	// one reference solve: the near-duplicate on serve-mixed, which the
	// grid cache serves in part, the first cold solve on shard-solve
	name, kind := "sharded-solve", opCold
	if pl.Workload == "serve-mixed" {
		name, kind = "grid-served-solve", opNearDup
	}
	if b.cfg.trace {
		name = "traced-" + name
	}
	i := first(kind)
	o := &pl.Ops[i]
	ref, err := coldSolve(&pl.Insts[o.Inst], o.Order)
	if err == nil {
		err = sameSolution(r.results[i].Sol, ref)
	}
	if err == nil && kind == opNearDup && r.results[i].Sol.Stats.GridHits == 0 {
		err = fmt.Errorf("solve was not grid-served")
	}
	out = append(out, checkOf(name, err))
	if i := first(opSigma); i >= 0 {
		o := &pl.Ops[i]
		want := core.LocalEstimator(pl.Insts[o.Inst].p, sigmaMC, o.QSeed, 0).Run(o.Seeds, nil, false).Sigma
		var err error
		if got := r.results[i].Sigma; math.Float64bits(got) != math.Float64bits(want) {
			err = fmt.Errorf("σ %v != local %v", got, want)
		}
		out = append(out, checkOf("sigma-query", err))
	}
	var bad []string
	for i, o := range pl.Ops {
		if o.Kind != opRepeat {
			continue
		}
		res := &r.results[i]
		if err := sameSolution(res.Sol, r.results[o.Ref].Sol); err != nil || !res.CacheHit {
			bad = append(bad, fmt.Sprintf("op %d: cache hit %v, %v", i, res.CacheHit, err))
		}
	}
	if first(opRepeat) >= 0 {
		var err error
		if len(bad) > 0 {
			err = fmt.Errorf("%d of the exact repeats differ: %s", len(bad), bad[0])
		}
		out = append(out, checkOf("cached-solve", err))
	}
	if b.cfg.trace {
		out = append(out, b.tracedProbe(r)...)
	}
	return out
}

// tracedProbe runs the first cycle's solves on a fresh untraced stack
// and a fresh traced one: their σ bits and grid-cache hits must agree,
// and their wall times give the tracing overhead.
func (b *bench) tracedProbe(r *report) []check {
	b.captureOp = nil // the replay keeps the timed run's calls only
	var probe []*op
	for i := range b.plan.Ops {
		if o := &b.plan.Ops[i]; o.Inst == 0 && (o.Kind == opCold || o.Kind == opNearDup || o.Kind == opRepeat) {
			probe = append(probe, o)
		}
	}
	type side struct {
		sols []*core.Solution
		wall time.Duration
		hits uint64
	}
	runSide := func(traced bool) (side, error) {
		var s side
		st, err := b.newStack(traced)
		if err != nil {
			return s, err
		}
		defer st.close()
		for _, o := range probe {
			res := st.solve(o, &b.plan.Insts[0])
			if res.Err != nil {
				return s, res.Err
			}
			s.sols = append(s.sols, res.Sol)
			s.wall += res.Wall
		}
		s.hits = st.counters().svc.Grid.Hits
		return s, nil
	}
	plain, err := runSide(false)
	if err != nil {
		return []check{checkOf("traced-probe", err)}
	}
	traced, err := runSide(true)
	if err != nil {
		return []check{checkOf("traced-probe", err)}
	}
	r.overhead = traced.wall.Seconds()/plain.wall.Seconds() - 1
	var solErr, hitErr error
	for i := range plain.sols {
		if err := sameSolution(traced.sols[i], plain.sols[i]); err != nil && solErr == nil {
			solErr = fmt.Errorf("op %s: %v", probe[i].Kind, err)
		}
	}
	if plain.hits != traced.hits {
		hitErr = fmt.Errorf("grid hits: traced %d, untraced %d", traced.hits, plain.hits)
	}
	return []check{checkOf("traced-probe/sigma", solErr), checkOf("traced-probe/grid-hits", hitErr)}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// timeReps times reps calls of f in each of batches batches and returns
// the median batch's time per call.
func timeReps(batches, reps int, f func()) time.Duration {
	per := make([]float64, batches)
	for i := range per {
		t0 := time.Now()
		for j := 0; j < reps; j++ {
			f()
		}
		per[i] = float64(time.Since(t0)) / float64(reps)
	}
	return time.Duration(median(per))
}
