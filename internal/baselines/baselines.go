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
// The category-2 semantics share one primitive: for every tuple, the
// distribution of the number of higher-ranked tuples outside its ME group
// that appear, a Poisson-binomial convolution over the independent groups.
// A segment tree over the positions computes it for all tuples at once
// (rankTree): each group contributes one Bernoulli factor per range of
// positions between two of its members, placed at O(log n) tree nodes, and
// one walk down the tree applies each factor once for every position below
// its node. That is O(n log n · k) per query, against O(n²·k) for
// recomputing every position from scratch; factors are multiplied, never
// divided out, so groups of mass 1 stay stable.
//
// U-Topk is one run of the main algorithm with a single line (UTopk).
package baselines

import (
	"errors"
	"fmt"
	"sort"

	"probtopk/internal/core"
	"probtopk/internal/uncertain"
)

// UTopk returns the U-Topk answer: the top-k vector with the maximum
// probability of being a top-k vector, with that probability. It is one run
// of the main algorithm over the whole table (Threshold 0) with vector
// tracking and a single line: merging two lines keeps the more probable of
// their vectors, which preserves the most probable one (see
// pmf.Dist.MaxVecProbLine), so the cap costs nothing in the answer and
// keeps every cell of the run to one line. The root package's
// UTopKSnapshot runs the same parameters through its engine.
func UTopk(p *uncertain.Prepared, k int) (vec []int, prob float64, err error) {
	res, err := core.Distribution(p, core.Params{K: k, MaxLines: 1, TrackVectors: true})
	if err != nil {
		return nil, 0, err
	}
	line, ok := res.Dist.MaxVecProbLine()
	if !ok {
		return nil, 0, fmt.Errorf("baselines: no top-%d vector exists (fewer than %d tuples can co-exist)", k, k)
	}
	return line.Vec.Slice(), line.VecProb, nil
}

// InTopkProbs returns, for every prepared position, the probability that the
// tuple is among the top-k: it appears and at most k−1 higher-ranked tuples
// appear.
func InTopkProbs(p *uncertain.Prepared, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("baselines: k must be ≥ 1, got %d", k)
	}
	out := make([]float64, p.Len())
	rankCounts(p, k, func(i int, counts []float64) {
		var below float64
		for _, c := range counts[:min(k, len(counts))] {
			below += c
		}
		out[i] = p.Tuples[i].Prob * below
	})
	return out, nil
}

// RankProbs returns rank[i][r-1] = Pr(tuple at position i occupies rank r),
// for r = 1..k: the tuple appears and exactly r−1 higher-ranked tuples
// appear. The rows share one backing array.
func RankProbs(p *uncertain.Prepared, k int) ([][]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("baselines: k must be ≥ 1, got %d", k)
	}
	flat := make([]float64, p.Len()*k)
	out := make([][]float64, p.Len())
	rankCounts(p, k, func(i int, counts []float64) {
		row := flat[i*k : (i+1)*k : (i+1)*k]
		// counts[k] holds the saturated ≥k tail; ranks 1..k only read the
		// exact entries 0..k−1.
		for c, pr := range counts[:min(k, len(counts))] {
			row[c] = p.Tuples[i].Prob * pr
		}
		out[i] = row
	})
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
	if k < 1 {
		return nil, fmt.Errorf("baselines: k must be ≥ 1, got %d", k)
	}
	out := make([]RankAnswer, k)
	for r := range out {
		out[r] = RankAnswer{Rank: r + 1, Position: -1}
	}
	// Leaves come in position order, so a strict comparison keeps the
	// lowest position among equals.
	rankCounts(p, k, func(i int, counts []float64) {
		for c, pr := range counts[:min(k, len(counts))] {
			if pr *= p.Tuples[i].Prob; pr > out[c].Prob {
				out[c].Position, out[c].Prob = i, pr
			}
		}
	})
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
