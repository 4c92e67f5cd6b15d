package diffusion

import (
	"fmt"
	"sync"

	"imdpp/internal/graph"
	"imdpp/internal/kg"
	"imdpp/internal/pin"
)

// Seed is one element (u, x, t) of a seed group: user u is hired to
// promote item x starting at promotion t (1-based). The JSON field
// names are a stable wire contract shared by the imdppd daemon and
// the imdpprun -json output.
type Seed struct {
	User int `json:"user"`
	Item int `json:"item"`
	T    int `json:"t"`
}

// CloneSeeds copies a seed group. Groups handed to one estimator batch
// must own their backing arrays.
func CloneSeeds(seeds []Seed) []Seed {
	return append([]Seed(nil), seeds...)
}

// WithSeed returns a fresh slice of seeds plus one extra element —
// the greedy-candidate shape of every batched selection loop. Unlike
// append, the result never aliases the input's backing array.
func WithSeed(seeds []Seed, extra Seed) []Seed {
	out := make([]Seed, len(seeds)+1)
	copy(out, seeds)
	out[len(seeds)] = extra
	return out
}

// AISModel selects the aggregated-influence form used in Eq. 13.
type AISModel uint8

// AIS variants (footnote 31 of the paper).
const (
	AISIndependentCascade AISModel = iota // 1 − Π(1 − Pact)
	AISLinearThreshold                    // Σ Pact, clamped to 1
)

// Params are the diffusion-model hyper-parameters. The zero value is
// invalid; use DefaultParams. The JSON field names are a stable wire
// contract (shard problem upload).
type Params struct {
	// Eta is the learning rate of the meta-graph weighting update
	// (relevance measurement).
	Eta float64 `json:"eta"`
	// Lambda scales the cross-elasticity preference update: adopting a
	// complement of y raises Ppref(·,y), a substitute lowers it.
	Lambda float64 `json:"lambda"`
	// Gamma scales influence learning: Pact grows by up to Gamma
	// relative to the base strength as similarity reaches 1.
	Gamma float64 `json:"gamma"`
	// Chi scales the extra-adoption probability Pext of item
	// associations.
	Chi float64 `json:"chi"`
	// MaxSteps caps the number of steps per promotion (safety net; the
	// process stops by itself when no new adoptions occur).
	MaxSteps int `json:"max_steps"`
	// AIS selects the aggregated influence form for π (Eq. 13).
	AIS AISModel `json:"ais"`
	// Static freezes Ppref, Pact and Pext at their initial values
	// (Lemma 1 / Theorem 4 regime): no weighting updates, no
	// preference updates, no influence learning. Item associations
	// still fire but with initial relevance.
	Static bool `json:"static,omitempty"`
}

// DefaultParams returns the defaults documented in DESIGN.md §2.
func DefaultParams() Params {
	return Params{Eta: 0.25, Lambda: 0.5, Gamma: 0.5, Chi: 0.5, MaxSteps: 64, AIS: AISIndependentCascade}
}

// Substrate is the campaign-independent half of an IMDPP instance.
// Many campaigns (b, T) run over one substrate (Dataset.Clone), so what
// derives from its inputs alone is built once here and shared by every
// Problem over it (DESIGN.md §5): warm states, the clean-target table
// per χ and the content digest. Never modify a substrate once used;
// build a new one. The mutex makes `go vet` reject a by-value copy.
type Substrate struct {
	G   *graph.Graph // social network G_SN; arc weights are P0act
	KG  *kg.KG       // knowledge graph G_KG
	PIN *pin.Model   // meta-graphs + relevance tables

	// Importance is w_x per item (len = KG.NumItems()).
	Importance []float64
	// BasePref is P0(u,y), the initial preference of user u for item
	// y, addressed (user, item).
	BasePref Matrix
	// Cost is c_{u,x}, the cost of hiring user u to promote item x,
	// addressed (user, item).
	Cost Matrix

	mu     sync.Mutex             // guards free and bounds
	free   []*State               // warm states, see getState
	bounds map[uint64]*boundTable // clean-target tables by the bits of χ

	digestOnce sync.Once
	digest     Digest // the walk of the fields above, see ContentDigest
}

// Problem is one immutable IMDPP instance: a campaign over a shared
// Substrate, whose fields it promotes (p.G, p.PIN, …). A by-value copy
// shares the substrate, so give it a new Substrate, never new fields.
type Problem struct {
	*Substrate

	// Budget is b; T is the total number of promotions.
	Budget float64
	T      int

	Params Params
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if p.Substrate == nil {
		return fmt.Errorf("diffusion: problem has no substrate")
	}
	n := p.G.N()
	items := p.KG.NumItems()
	if p.PIN.NumItems() != items {
		return fmt.Errorf("diffusion: PIN items %d != KG items %d", p.PIN.NumItems(), items)
	}
	if len(p.Importance) != items {
		return fmt.Errorf("diffusion: importance len %d != %d items", len(p.Importance), items)
	}
	if p.BasePref.Rows() != n || p.BasePref.Cols() != items {
		return fmt.Errorf("diffusion: basePref %d×%d != %d users × %d items",
			p.BasePref.Rows(), p.BasePref.Cols(), n, items)
	}
	if p.Cost.Rows() != n || p.Cost.Cols() != items {
		return fmt.Errorf("diffusion: cost %d×%d != %d users × %d items",
			p.Cost.Rows(), p.Cost.Cols(), n, items)
	}
	if p.T < 1 {
		return fmt.Errorf("diffusion: T=%d < 1", p.T)
	}
	if p.Budget < 0 {
		return fmt.Errorf("diffusion: negative budget")
	}
	if p.Params.MaxSteps <= 0 {
		return fmt.Errorf("diffusion: MaxSteps must be positive")
	}
	return nil
}

// NumUsers returns |V|.
func (s *Substrate) NumUsers() int { return s.G.N() }

// NumItems returns |I|.
func (s *Substrate) NumItems() int { return s.KG.NumItems() }

// BasePrefOf returns P0(u, y).
func (s *Substrate) BasePrefOf(u, y int) float64 { return s.BasePref.At(u, y) }

// CostOf returns c_{u,x}.
func (s *Substrate) CostOf(u, x int) float64 { return s.Cost.At(u, x) }

// SeedCost returns the total cost of a seed group.
func (s *Substrate) SeedCost(seeds []Seed) float64 {
	total := 0.0
	for _, sd := range seeds {
		total += s.CostOf(sd.User, sd.Item)
	}
	return total
}

// ValidateSeeds checks ranges, budget and promotion indices.
func (p *Problem) ValidateSeeds(seeds []Seed) error {
	for _, s := range seeds {
		if s.User < 0 || s.User >= p.NumUsers() {
			return fmt.Errorf("diffusion: seed user %d out of range", s.User)
		}
		if s.Item < 0 || s.Item >= p.NumItems() {
			return fmt.Errorf("diffusion: seed item %d out of range", s.Item)
		}
		if s.T < 1 || s.T > p.T {
			return fmt.Errorf("diffusion: seed timing %d outside [1,%d]", s.T, p.T)
		}
	}
	if c := p.SeedCost(seeds); c > p.Budget+1e-9 {
		return fmt.Errorf("diffusion: seed cost %.3f exceeds budget %.3f", c, p.Budget)
	}
	return nil
}
