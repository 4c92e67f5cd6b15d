package main

import (
	"fmt"
	"math"
	"time"

	"imdpp/internal/core"
	"imdpp/internal/dataset"
	"imdpp/internal/diffusion"
	"imdpp/internal/rng"
)

// Instance shape: Amazon-shaped problems at half the preset scale (400
// users, 40 items), with the solve bench's budget and promotion count.
const (
	defaultScale = 0.5
	budget       = 500
	promotions   = 10
)

// Query shape.
const (
	sigmaMC     = 100  // samples per exact σ query (the service default)
	sketchEps   = 0.05 // ε = δ of sketch σ queries
	rescoreMC   = 64   // samples of the independent re-scoring estimator
	rescoreSeed = 0x5EED
)

// problemSeed seeds the one Amazon-shaped problem every run solves, and
// the pool of solve seeds its cycles use: cycle work differs by a factor
// of two from one Options.Seed to another, so a median over a dozen
// solves drawn afresh per run moved by 10–30% between seeds. A run of n
// cycles solves the first n seeds of the pool, in an order its own seed
// draws; its seed also draws every query. Runs with different seeds
// therefore do the same solve work in another order, beside other
// queries.
const problemSeed = 0xA2A2

// workloadShape fixes one workload's operation mix. A run is a whole
// number of cycles, seconds/cycleSeconds, so a seed and a duration always
// give the same operation list; cycleSeconds is the nominal cost of one
// cycle on a 2-vCPU box.
type workloadShape struct {
	cycleSeconds float64
	repeats      bool // exact repeats of the cycle's cold solve
	sigmas       int  // exact σ queries per cycle
	sketches     int  // sketch σ queries per cycle
	queryClient  int  // client issuing the queries
}

var shapes = map[string]workloadShape{
	"serve-mixed": {cycleSeconds: 3.4, repeats: true, sigmas: 1900, sketches: 190, queryClient: 1},
	"shard-solve": {cycleSeconds: 3.5, sigmas: 120},
}

// nearDupOrders are the market-order metrics a near-duplicate solve
// swaps in for the default (AE): selection is unchanged, scheduling is
// not, so a grid cache serves part of the solve.
var nearDupOrders = []core.OrderMetric{core.OrderPF, core.OrderSZ, core.OrderRMS}

type opKind string

const (
	opCold    opKind = "cold"    // solve of a new (problem, seed) pair
	opNearDup opKind = "neardup" // same pair as the cycle's cold solve, another Order
	opRepeat  opKind = "repeat"  // exact repeat of the cycle's cold solve
	opSigma   opKind = "sigma"   // exact Monte-Carlo σ query
	opSketch  opKind = "sketch"  // (ε, δ) sketch σ query on the static copy
)

// op is one operation of the list. Seeds is drawn at set-up, from
// GroupSeed and the generated problem.
type op struct {
	Kind      opKind           `json:"kind"`
	Client    int              `json:"client"`
	Inst      int              `json:"inst"`
	Order     core.OrderMetric `json:"order"`
	Ref       int              `json:"ref"`
	QSeed     uint64           `json:"qseed,omitempty"`
	GroupSeed uint64           `json:"group_seed,omitempty"`
	Seeds     []diffusion.Seed `json:"seeds,omitempty"`
}

// instance is one (problem, solve seed) pair. Every instance of a run
// shares the run's problem.
type instance struct {
	SolveSeed uint64 `json:"solve_seed"`
	p, static *diffusion.Problem
}

type plan struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Cycles   int        `json:"cycles"`
	Insts    []instance `json:"instances"`
	Ops      []op       `json:"ops"`
	spec     dataset.Spec
	clients  int
}

func newPlan(workload string, seed uint64, seconds, scale float64) (*plan, error) {
	sh, ok := shapes[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-mixed or shard-solve)", workload)
	}
	if !(seconds > 0) || !(scale > 0) {
		return nil, fmt.Errorf("seconds and scale must be positive")
	}
	base, err := dataset.Amazon(dataset.Scale(scale))
	if err != nil {
		return nil, err
	}
	pl := &plan{Workload: workload, Seed: seed, spec: base.Spec, clients: sh.queryClient + 1}
	pl.Cycles = max(1, int(math.Round(seconds/sh.cycleSeconds)))
	pl.spec.Seed = problemSeed
	r := rng.New(seed ^ 0xD75B)
	order := make([]int, pl.Cycles)
	r.Perm(order)
	pool := rng.New(problemSeed)
	for i, k := range order {
		pl.Insts = append(pl.Insts, instance{SolveSeed: pool.Split(uint64(k)).Uint64() | 1})
		cold := len(pl.Ops)
		pl.Ops = append(pl.Ops,
			op{Kind: opCold, Inst: i},
			op{Kind: opNearDup, Inst: i, Order: nearDupOrders[k%len(nearDupOrders)]})
		if sh.repeats {
			pl.Ops = append(pl.Ops, op{Kind: opRepeat, Inst: i, Ref: cold})
		}
		for k := 0; k < sh.sigmas; k++ {
			pl.Ops = append(pl.Ops, op{Kind: opSigma, Client: sh.queryClient, Inst: i, QSeed: r.Uint64() | 1, GroupSeed: r.Uint64()})
		}
		for k := 0; k < sh.sketches; k++ {
			pl.Ops = append(pl.Ops, op{Kind: opSketch, Client: sh.queryClient, Inst: i, GroupSeed: r.Uint64()})
		}
	}
	return pl, nil
}

// materialize generates the run's problem and draws the query seed
// groups, returning the generation time. It is part of set-up.
func (pl *plan) materialize() (time.Duration, error) {
	t0 := time.Now()
	d, err := dataset.Generate(pl.spec)
	if err != nil {
		return 0, err
	}
	gen := time.Since(t0)
	p := d.Clone(budget, promotions)
	static := *p
	static.Params.Static = true
	for i := range pl.Insts {
		pl.Insts[i].p, pl.Insts[i].static = p, &static
	}
	for i := range pl.Ops {
		if o := &pl.Ops[i]; o.Kind == opSigma || o.Kind == opSketch {
			o.Seeds = drawGroup(p, o.GroupSeed)
		}
	}
	return gen, nil
}

// drawGroup draws 2–5 seeds whose total cost stays within half the
// budget, so every query passes the service's seed validation.
func drawGroup(p *diffusion.Problem, seed uint64) []diffusion.Seed {
	r := rng.New(seed)
	n := 2 + r.Intn(4)
	var out []diffusion.Seed
	cost := 0.0
	for tries := 0; len(out) < n && tries < 64; tries++ {
		s := diffusion.Seed{User: r.Intn(p.NumUsers()), Item: r.Intn(p.NumItems()), T: 1 + r.Intn(p.T)}
		if c := p.CostOf(s.User, s.Item); cost+c <= p.Budget/2 {
			out = append(out, s)
			cost += c
		}
	}
	return out
}
