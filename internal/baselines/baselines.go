// Package baselines implements the pre-existing uncertain top-k semantics
// the paper compares against and discusses (§1, §6):
//
//   - U-Topk [Soliman, Ilyas, Chang; ICDE'07] — the k-tuple vector with the
//     highest probability of being the top-k (category 1).
//   - U-kRanks [same] — for each rank r ≤ k, the tuple most likely to occupy
//     rank r across all possible worlds (category 2). As the paper notes, it
//     may return the same tuple for several ranks.
//   - PT-k [Hua, Pei, Zhang, Lin; SIGMOD'08] — all tuples whose probability
//     of being in the top-k reaches a threshold (category 2).
//   - Global-Topk [Zhang, Chomicki; DBRank'08] — the k tuples with the
//     highest probability of being in the top-k (category 2).
//
// Prior work assumed injective scoring; under ties this package ranks by the
// same (score, probability)-descending order used everywhere in probtopk.
//
// The category-2 semantics share one primitive: the distribution of the
// number of higher-ranked tuples that appear, a Poisson-binomial convolution
// over the independent ME groups.
package baselines

import (
	"errors"
	"fmt"
	"sort"

	"probtopk/internal/core"
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// UTopk returns the U-Topk answer: the top-k vector with the maximum
// probability of being a top-k vector, with its probability and total score.
// It is computed from the main algorithm's exact vector tracking, which
// line coalescing provably preserves (merges keep the more probable vector).
func UTopk(p *uncertain.Prepared, k int) (vec []int, prob float64, err error) {
	res, err := core.Distribution(p, core.Params{K: k, TrackVectors: true})
	if err != nil {
		return nil, 0, err
	}
	line, ok := res.Dist.MaxVecProbLine()
	if !ok {
		return nil, 0, fmt.Errorf("baselines: no top-%d vector exists (fewer than %d tuples can co-exist)", k, k)
	}
	return line.Vec.Slice(), line.VecProb, nil
}

// UTopkLine returns the full distribution line of the U-Topk vector from an
// already-computed distribution (score, mass at that score, vector,
// probability).
func UTopkLine(d *pmf.Dist) (pmf.Line, bool) { return d.MaxVecProbLine() }

// higherRankCounts returns, for tuple position i, the probability
// distribution of the number of higher-ranked tuples (positions < i) that
// appear, excluding tuples of skipGroup (whose members cannot co-appear with
// the tuple under consideration). The returned slice is truncated at maxCount
// with the tail mass accumulated in the last entry.
func higherRankCounts(p *uncertain.Prepared, i, skipGroup, maxCount int) []float64 {
	counts := make([]float64, maxCount+1)
	counts[0] = 1
	// One Bernoulli trial per group with a member above i, in the order of
	// the groups' first members: its success probability is the chance some
	// member at a position < i appears. Groups are independent; members are
	// exclusive, so each group contributes at most one tuple.
	for pos := 0; pos < i; pos++ {
		tp := p.Tuples[pos]
		if !tp.Lead || tp.Group == skipGroup {
			continue
		}
		m := p.PrefixMass(tp.Group, i)
		for c := maxCount; c >= 0; c-- {
			moved := counts[c] * m
			counts[c] -= moved
			if c < maxCount {
				counts[c+1] += moved
			} else {
				counts[c] += moved // saturate: ≥ maxCount higher tuples
			}
		}
	}
	return counts
}

// InTopkProbs returns, for every prepared position, the probability that the
// tuple is among the top-k: it appears and at most k−1 higher-ranked tuples
// appear.
func InTopkProbs(p *uncertain.Prepared, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("baselines: k must be ≥ 1, got %d", k)
	}
	out := make([]float64, p.Len())
	for i := range out {
		tp := p.Tuples[i]
		counts := higherRankCounts(p, i, tp.Group, k)
		var below float64
		for c := 0; c < k; c++ {
			below += counts[c]
		}
		out[i] = tp.Prob * below
	}
	return out, nil
}

// RankProbs returns rank[i][r-1] = Pr(tuple at position i occupies rank r),
// for r = 1..k: the tuple appears and exactly r−1 higher-ranked tuples
// appear.
func RankProbs(p *uncertain.Prepared, k int) ([][]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("baselines: k must be ≥ 1, got %d", k)
	}
	out := make([][]float64, p.Len())
	for i := range out {
		tp := p.Tuples[i]
		counts := higherRankCounts(p, i, tp.Group, k)
		row := make([]float64, k)
		// counts[k] holds the saturated ≥k tail; ranks 1..k only read the
		// exact entries 0..k−1.
		for r := 1; r <= k; r++ {
			row[r-1] = tp.Prob * counts[r-1]
		}
		out[i] = row
	}
	return out, nil
}

// RankAnswer is one row of a U-kRanks result.
type RankAnswer struct {
	Rank     int     // 1-based rank
	Position int     // prepared position of the winning tuple
	Prob     float64 // probability the tuple occupies this rank
}

// UKRanks returns, for each rank r = 1..k, the tuple with the highest
// probability of being at rank r. Ties break toward the higher-ranked
// (lower-position) tuple, keeping the answer deterministic. The same tuple
// may win several ranks — the behaviour the paper criticises in §1.
func UKRanks(p *uncertain.Prepared, k int) ([]RankAnswer, error) {
	probs, err := RankProbs(p, k)
	if err != nil {
		return nil, err
	}
	out := make([]RankAnswer, k)
	for r := 1; r <= k; r++ {
		best := RankAnswer{Rank: r, Position: -1}
		for i := range probs {
			if pr := probs[i][r-1]; pr > best.Prob {
				best.Position = i
				best.Prob = pr
			}
		}
		out[r-1] = best
	}
	return out, nil
}

// PTk returns the positions of all tuples whose probability of being in the
// top-k is at least threshold, in rank order — the probabilistic threshold
// top-k semantics of Hua et al.
func PTk(p *uncertain.Prepared, k int, threshold float64) ([]int, error) {
	out, _, err := PTkProbs(p, k, threshold)
	return out, err
}

// PTkProbs is PTk that also returns the in-top-k probabilities of every
// position (InTopkProbs), so callers reporting them compute them once.
func PTkProbs(p *uncertain.Prepared, k int, threshold float64) ([]int, []float64, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, nil, fmt.Errorf("baselines: PT-k threshold must be in (0, 1], got %v", threshold)
	}
	probs, err := InTopkProbs(p, k)
	if err != nil {
		return nil, nil, err
	}
	var out []int
	for i, pr := range probs {
		if pr >= threshold {
			out = append(out, i)
		}
	}
	return out, probs, nil
}

// GlobalTopk returns the k positions with the highest probability of being
// in the top-k (ties toward higher-ranked tuples), in decreasing order of
// that probability — the Global-Topk semantics of Zhang and Chomicki.
func GlobalTopk(p *uncertain.Prepared, k int) ([]int, error) {
	out, _, err := GlobalTopkProbs(p, k)
	return out, err
}

// GlobalTopkProbs is GlobalTopk that also returns the in-top-k
// probabilities of every position (InTopkProbs), so callers reporting them
// compute them once.
func GlobalTopkProbs(p *uncertain.Prepared, k int) ([]int, []float64, error) {
	probs, err := InTopkProbs(p, k)
	if err != nil {
		return nil, nil, err
	}
	if p.Len() < k {
		return nil, nil, errors.New("baselines: table has fewer tuples than k")
	}
	idx := make([]int, p.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if probs[idx[a]] != probs[idx[b]] {
			return probs[idx[a]] > probs[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k], probs, nil
}
