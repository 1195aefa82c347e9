package baselines

import (
	"fmt"
	"sort"

	"probtopk/internal/uncertain"
)

// ExpectedRanks implements the expected-rank semantics contemporaneous with
// the paper (Cormode, Li, Yi: "Semantics of Ranking Queries for Probabilistic
// Data and Expected Ranks", ICDE 2009): each tuple's rank is averaged across
// all possible worlds, where
//
//	rank(t, w) = |{u ∈ w : u ranked above t}|   if t ∈ w,
//	rank(t, w) = |w|                            if t ∉ w
//
// (a missing tuple ranks just past the end of the world). Ranks are 0-based.
// Expectation is linear, so no convolution is needed:
//
//	E[rank(t)] = p_t·Σ_{h≠g(t)} M_h + Σ_{u∈g(t), u≠t} p_u + (1−p_t)·Σ_{u∉g(t)} p_u,
//
// where M_h is the probability that group h contributes a tuple ranked above
// t, and g(t) is t's ME group.
func ExpectedRanks(p *uncertain.Prepared) []float64 {
	n := p.Len()
	out := make([]float64, n)
	// totalMass[g] = Σ probabilities of group g's members.
	totalMass := make([]float64, p.NumGroups())
	var allMass float64
	for i := 0; i < n; i++ {
		totalMass[p.Tuples[i].Group] += p.Tuples[i].Prob
		allMass += p.Tuples[i].Prob
	}
	// Scan in rank order, maintaining per-group mass above the current
	// position.
	aboveMass := make([]float64, p.NumGroups())
	var aboveAll float64
	for i := 0; i < n; i++ {
		tp := p.Tuples[i]
		g := tp.Group
		// Expected number of higher-ranked tuples given t present: groups are
		// independent and contribute at most one tuple each; t's own group
		// contributes none (mates are excluded by t's presence).
		expAbove := aboveAll - aboveMass[g]
		// Expected world size restricted to "t absent": mates contribute
		// p_u outright; others p_u(1−p_t).
		mates := totalMass[g] - tp.Prob
		others := allMass - totalMass[g]
		out[i] = tp.Prob*expAbove + mates + (1-tp.Prob)*others
		aboveMass[g] += tp.Prob
		aboveAll += tp.Prob
	}
	return out
}

// ExpectedRankTopk returns the k positions with the smallest expected rank,
// in increasing expected-rank order (ties toward higher-ranked tuples).
func ExpectedRankTopk(p *uncertain.Prepared, k int) ([]int, error) {
	out, _, err := ExpectedRankTopkRanks(p, k)
	return out, err
}

// ExpectedRankTopkRanks is ExpectedRankTopk that also returns the expected
// rank of every position (ExpectedRanks), so callers reporting them compute
// them once.
func ExpectedRankTopkRanks(p *uncertain.Prepared, k int) ([]int, []float64, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("baselines: k must be ≥ 1, got %d", k)
	}
	if p.Len() < k {
		return nil, nil, fmt.Errorf("baselines: table has %d tuples, need %d", p.Len(), k)
	}
	ranks := ExpectedRanks(p)
	idx := make([]int, p.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if ranks[idx[a]] != ranks[idx[b]] {
			return ranks[idx[a]] < ranks[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k], ranks, nil
}
