package diffusion

import (
	"math"
	"testing"

	"imdpp/internal/rng"
)

// replayWeights replays one user's end-of-step weighting updates from
// InitWeights: one UpdateWeights per (promotion, step) with the items
// the user adopted in it, against the adoption set so far. recs are the
// user's adoptions in adoption order.
func replayWeights(p *Problem, recs []adoptRec) []float64 {
	pm := p.PIN
	w := append([]float64(nil), pm.InitWeights...)
	bitsRow := make([]uint64, (p.NumItems()+63)/64)
	var stepItems []int32
	for i, rec := range recs {
		bitsRow[rec.item/64] |= 1 << (uint(rec.item) % 64)
		stepItems = append(stepItems, int32(rec.item))
		if i+1 == len(recs) || recs[i+1].promo != rec.promo || recs[i+1].step != rec.step {
			pm.UpdateWeights(w, stepItems, bitsRow, p.Params.Eta)
			stepItems = stepItems[:0]
		}
	}
	return w
}

// densePref is the items-wide Δpref row of a user with adoptions recs
// under weightings w, built as the dense layout did: zeroed, then
// λ·(rC − rS) added entry by entry in adoption order.
func densePref(p *Problem, recs []adoptRec, w []float64) []float64 {
	want := make([]float64, p.NumItems())
	for _, rec := range recs {
		for _, pr := range p.PIN.Row(rec.item) {
			rc, rs := p.PIN.EvalContribs(w, pr.Contribs)
			want[pr.Y] += p.Params.Lambda * (rc - rs)
		}
	}
	return want
}

// TestSingleAdoptionKeepsInitRelevance checks the facts the engine's
// single-adoption shortcuts rest on (DESIGN.md §3), on every state a
// campaign or a restore reaches: each user's weightings equal a
// replay of every end-of-step update from InitWeights, so a user with
// one adoption still holds InitWeights bit for bit; and each adopter's
// Δpref covers all its adoptions and equals, for every item, the
// EvalContribs recompute under its weightings.
func TestSingleAdoptionKeepsInitRelevance(t *testing.T) {
	p := goldenProblem(t)
	pm := p.PIN
	singles, moved := 0, 0
	campaignStates(t, p, 24, func(what string, st *State, log []adoptRec) {
		for u := 0; u < p.NumUsers(); u++ {
			var mine []adoptRec
			for _, rec := range log {
				if rec.user == u {
					mine = append(mine, rec)
				}
			}
			w := replayWeights(p, mine)
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
			n := int(st.prefN[u])
			if n != len(lst) {
				t.Fatalf("%s: adopter %d has Δpref over %d of its %d adoptions", what, u, n, len(lst))
			}
			want := densePref(p, mine, got)
			for y := range want {
				if d := st.deltaPref(u, y, n); math.Float64bits(d) != math.Float64bits(want[y]) {
					t.Fatalf("%s: user %d (%d adoptions) Δpref[%d] = %v, recompute %v", what, u, len(lst), y, d, want[y])
				}
			}
		}
	}, nil)
	if singles == 0 || moved == 0 {
		t.Fatalf("%d single-adoption users, %d moved weightings: the campaigns do not exercise both cases", singles, moved)
	}
}

// TestPrefCoversAdoptionsAtLastStepEnd pins what Pref reads between two
// ends of step (DESIGN.md §3): the Δpref of the adoptions the user held
// at the last end of step, under the weightings that end of step left,
// and none of the adoptions made since. An OnAdopt hook reads Pref for
// every item of the user who has just adopted, whose list has therefore
// grown past what the last end of step covered, and compares it bit for
// bit with a dense recompute over only the covered adoptions under
// replayed weightings. It runs over campaigns, restores to
// promotion-boundary checkpoints and the runs resumed from them; in the
// dynamic regime it must meet both a one-adoption Δpref and one under
// moved weightings, and under Params.Static, where no end of step
// updates anything, Pref must stay the base preference.
func TestPrefCoversAdoptionsAtLastStepEnd(t *testing.T) {
	for _, static := range []bool{false, true} {
		p := goldenProblem(t)
		p.Params.Static = static
		one, moved, grown := 0, 0, 0
		campaignStates(t, p, 24, func(string, *State, []adoptRec) {}, func(st *State, log []adoptRec) {
			cur := log[len(log)-1]
			u := cur.user
			var covered []adoptRec
			for _, rec := range log[:len(log)-1] {
				if rec.user == u && (rec.promo < cur.promo || rec.promo == cur.promo && rec.step < cur.step) {
					covered = append(covered, rec)
				}
			}
			if len(st.AdoptedList(u)) > len(covered)+1 {
				grown++ // earlier adoptions this step are not covered either
			}
			if static {
				covered = nil
			}
			w := replayWeights(p, covered)
			want := densePref(p, covered, w)
			for y := range want {
				v := p.BasePref.At(u, y) + want[y]
				v = math.Max(0, math.Min(1, v))
				if got := st.Pref(u, y); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("static=%v: user %d adopting item %d at promotion %d step %d (%d adoptions, %d at the last end of step): Pref(%d) = %v, recompute %v",
						static, u, cur.item, cur.promo, cur.step, len(st.AdoptedList(u)), len(covered), y, got, v)
				}
			}
			switch {
			case len(covered) == 1:
				one++
			case len(covered) > 1:
				for j := range w {
					if w[j] != p.PIN.InitWeights[j] {
						moved++
						break
					}
				}
			}
		})
		t.Logf("static=%v: %d hook reads after one covered adoption, %d under moved weightings, %d with an earlier adoption in the same step",
			static, one, moved, grown)
		if !static && (one == 0 || moved == 0) {
			t.Fatalf("%d one-adoption and %d moved-weighting reads: the campaigns do not exercise both Δpref cases", one, moved)
		}
		if grown == 0 {
			t.Fatalf("static=%v: no user adopted twice within one step", static)
		}
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
