package diffusion

import (
	"slices"

	"imdpp/internal/rng"
)

// This file is the batch engine's promotion-prefix reuse (DESIGN.md
// §3). TDSI scores every candidate of a round against "the schedule so
// far plus this candidate", so the groups of a scheduling batch repeat
// group 0's seed lists in every promotion before the candidate's.
// Sample i of every group draws from Split(i), promotions run in order
// and the market mask only decides what MarketSigma counts, so two
// groups with equal seed lists (in input order) and equal masks
// through promotion d have identical State, RNG stream and Result at
// that boundary. The engine therefore simulates group 0's campaign
// once per sample, checkpoints it at each boundary where a later group
// diverges, and runs only the remaining promotions of that group.

// family is the engine's unit of work: a root group simulated from
// Reset plus the groups sharing its leading promotions and its mask.
// Batch group 0 is the only root with sharers; every other group is a
// family of one.
type family struct {
	root   int
	cuts   []int    // ascending promotion boundaries in [1,T) the root checkpoints after
	shared []sharer // deepest first, so each restore rewinds the state
}

// sharer is a group that resumes from the root's checkpoint.
type sharer struct {
	g     int
	depth int // leading promotions shared with the root, 1..T
	cut   int // index of depth in family.cuts; -1 when depth == T
}

func (f *family) size() int { return 1 + len(f.shared) }

// member maps member position j (0 = root) to its batch group.
func (f *family) member(j int) int {
	if j == 0 {
		return f.root
	}
	return f.shared[j-1].g
}

// planFamilies splits a batch into families: group 0 with every group
// that shares at least one leading promotion and its mask, first; then
// every other group alone, in batch order. A batch with no sharing (a
// selection batch, a single σ query) plans to one family per group, in
// group order.
func planFamilies(groups [][]Seed, maskOf func(int) []bool, T int) []family {
	fams := make([]family, 1, len(groups))
	var shared []sharer
	for g := 1; g < len(groups); g++ {
		if d := sharedPromotions(groups[0], groups[g], T); d > 0 && sameMask(maskOf(0), maskOf(g)) {
			shared = append(shared, sharer{g: g, depth: d})
			continue
		}
		fams = append(fams, family{root: g})
	}
	slices.SortStableFunc(shared, func(a, b sharer) int { return b.depth - a.depth })
	var cuts []int
	for i := len(shared) - 1; i >= 0; i-- {
		s := &shared[i]
		s.cut = -1
		if s.depth == T {
			continue
		}
		if len(cuts) == 0 || cuts[len(cuts)-1] != s.depth {
			cuts = append(cuts, s.depth)
		}
		s.cut = len(cuts) - 1
	}
	fams[0] = family{root: 0, cuts: cuts, shared: shared}
	return fams
}

// sharedPromotions counts the leading promotions 1..T whose seed lists,
// in input order, are equal in a and b.
func sharedPromotions(a, b []Seed, T int) int {
	for t := 1; t <= T; t++ {
		if !samePromotion(a, b, t) {
			return t - 1
		}
	}
	return T
}

func samePromotion(a, b []Seed, t int) bool {
	i, j := 0, 0
	for {
		for i < len(a) && a[i].T != t {
			i++
		}
		for j < len(b) && b[j].T != t {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
		i++
		j++
	}
}

// sameMask reports whether two market masks select the same users; a
// nil mask (all users) equals only another nil mask.
func sameMask(a, b []bool) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return slices.Equal(a, b)
}

// runFamily simulates sample i of every member of f on st and hands
// each outcome to emit(j, g, res, π), root first (j = 0): the root's
// campaign from Reset, checkpointed at each cut, then each sharer from
// the checkpoint at its depth. π is evaluated on each member's own
// final state; a sharer of depth T has the root's final state, and a
// resumed sharer recomputes only the users changed since its
// checkpoint (resumedPi) found from the change log restore reads too.
// It reports false when a bound context cancelled the batch between
// members.
func (e *Estimator) runFamily(st *State, res *Result, f *family, groups [][]Seed, maskOf func(int) []bool, withPi bool, i int, master *rng.Rand, emit func(j, g int, res *Result, pi float64)) bool {
	market := maskOf(f.root)
	st.resetSplit(master, i)
	res.Sigma, res.MarketSigma, res.Adoptions, res.Steps = 0, 0, 0, 0
	clear(res.PerItem)
	st.runFrom(groups[f.root], 0, market, res, f.cuts)
	var pi float64
	if withPi {
		pi = st.LikelihoodPi(market)
	}
	if withPi && len(f.cuts) > 0 {
		st.keepRootRows()
	}
	emit(0, f.root, res, pi)
	rootLog := len(st.adoptLog)
	for j, s := range f.shared {
		if s.cut >= 0 {
			if e.preempted() {
				return false
			}
			st.restore(s.cut, res)
			st.adoptLog = st.adoptLog[:rootLog]
			st.runFrom(groups[s.g], s.depth, market, res, nil)
			if withPi {
				pi = st.resumedPi(market, s.cut)
			}
		}
		emit(j+1, s.g, res, pi)
	}
	return true
}
