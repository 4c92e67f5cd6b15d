package diffusion

import (
	"math"
	"testing"

	"imdpp/internal/rng"
)

// TestSingleAdoptionKeepsInitRelevance checks the facts the engine's
// single-adoption shortcuts rest on (DESIGN.md §3), on every state a
// campaign or a restore reaches: each user's weightings equal a
// replay of every end-of-step update from InitWeights, so a user with
// one adoption still holds InitWeights bit for bit; and each adopter's
// Δpref row equals the EvalContribs recompute under its weightings.
func TestSingleAdoptionKeepsInitRelevance(t *testing.T) {
	p := goldenProblem(t)
	pm := p.PIN
	lam := p.Params.Lambda
	singles, moved := 0, 0
	campaignStates(t, p, 24, func(what string, st *State, log []adoptRec) {
		for u := 0; u < p.NumUsers(); u++ {
			// replay: one UpdateWeights per (promotion, step) with the
			// items the user adopted in it, against the adoption set so far
			var mine []adoptRec
			for _, rec := range log {
				if rec.user == u {
					mine = append(mine, rec)
				}
			}
			w := append([]float64(nil), pm.InitWeights...)
			bitsRow := make([]uint64, st.words)
			var stepItems []int32
			for i, rec := range mine {
				bitsRow[rec.item/64] |= 1 << (uint(rec.item) % 64)
				stepItems = append(stepItems, int32(rec.item))
				if i+1 == len(mine) || mine[i+1].promo != rec.promo || mine[i+1].step != rec.step {
					pm.UpdateWeights(w, stepItems, bitsRow, p.Params.Eta)
					stepItems = stepItems[:0]
				}
			}
			got := st.Weights(u)
			lst := st.AdoptedList(u)
			for j := range w {
				if math.Float64bits(got[j]) != math.Float64bits(w[j]) {
					t.Fatalf("%s: user %d (%d adoptions) weighting %d = %v, replay %v", what, u, len(lst), j, got[j], w[j])
				}
				if len(lst) == 1 && math.Float64bits(got[j]) != math.Float64bits(pm.InitWeights[j]) {
					t.Fatalf("%s: single-adoption user %d weighting %d = %v, InitWeights %v", what, u, j, got[j], pm.InitWeights[j])
				}
				if got[j] != pm.InitWeights[j] {
					moved++
				}
			}
			if len(lst) == 0 {
				continue
			}
			if len(lst) == 1 {
				singles++
			}
			want := make([]float64, st.items)
			for _, a := range lst {
				for _, pr := range pm.Row(int(a)) {
					rc, rs := pm.EvalContribs(got, pr.Contribs)
					want[pr.Y] += lam * (rc - rs)
				}
			}
			row := st.prefDelta[u]
			if row == nil {
				t.Fatalf("%s: adopter %d has no Δpref row", what, u)
			}
			for y := range want {
				if math.Float64bits(row[y]) != math.Float64bits(want[y]) {
					t.Fatalf("%s: user %d (%d adoptions) Δpref[%d] = %v, recompute %v", what, u, len(lst), y, row[y], want[y])
				}
			}
		}
	})
	if singles == 0 || moved == 0 {
		t.Fatalf("%d single-adoption users, %d moved weightings: the campaigns do not exercise both cases", singles, moved)
	}
}

// TestAssociationUsesMovedWeights pins the other side of the
// single-adoption rule: a user with two related adoptions has moved
// weightings, and the association coins it draws must use them, not
// the cached init relevance. User 1 co-adopts the complementary pair
// (0, 1) and is then promoted item 2, whose complement 3 it may take by
// association. On the streams where user 1 declines item 2 itself, it
// still holds two adoptions when the coin for 3 is drawn, so the
// frequency of 3 must match χ·Pact·Ppref·rC under the moved weights.
func TestAssociationUsesMovedWeights(t *testing.T) {
	p := benchProblem(t, 8, 16)
	p.G = lineGraph(8, 1)
	p.T = 1
	p.Params.Eta, p.Params.Chi, p.Params.Lambda = 1, 1, 0.1
	row := p.BasePref.Row(1)
	for x := range row {
		row[x] = 1
	}
	st := NewState(p)
	setup := func() {
		st.ForceAdopt(1, 0)
		st.ForceAdopt(1, 1)
	}
	st.Reset(rng.New(0))
	setup()
	rc, _ := p.PIN.Rel(st.Weights(1), 2, 3)
	rcInit, _ := p.PIN.RelStatic(2, 3)
	base := p.Params.Chi * st.Act(0, 1, 1) * st.Pref(1, 2)
	want, wrong := base*rc, base*rcInit
	const n = 4000
	declined, hits := 0, 0
	var res Result
	res.PerItem = make([]float64, p.NumItems())
	for i := 0; i < n; i++ {
		st.Reset(rng.New(uint64(i)))
		setup()
		st.RunCampaign([]Seed{{User: 0, Item: 2, T: 1}}, nil, &res)
		if st.Adopted(1, 2) {
			continue
		}
		declined++
		if st.Adopted(1, 3) {
			hits++
		}
	}
	sd := math.Sqrt(want * (1 - want) / float64(declined))
	if math.Abs(want-wrong) < 8*sd {
		t.Fatalf("moved (%v) and init (%v) association probabilities are too close to tell apart over %d streams", want, wrong, declined)
	}
	if freq := float64(hits) / float64(declined); math.Abs(freq-want) > 4*sd {
		t.Fatalf("item 3 taken by association on %v of %d streams, want %v under the moved weights (init relevance gives %v)",
			freq, declined, want, wrong)
	}
}
