package core

import (
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// KCombo implements the paper's second baseline (§3.1): iterate through all
// k-combinations of the first n tuples (n from Theorem 2) in lexicographic
// order, excluding combinations that violate the mutual exclusion rules, and
// compute each combination's total score and probability of being the top-k
// vector. Cost O(n^k).
//
// The probability of a combination v with deepest position q is
//
//	Π_{t ∈ v} Pr(t) × Π_{g untouched by v} (1 − mass of g's members above q),
//
// the configuration sub-event probability of Lemma 1, identical to the
// semantics of the other two algorithms under ties. Subtrees whose partial
// probability product is already at or below Threshold are pruned (the skip
// factors can only shrink the product).
func KCombo(p *uncertain.Prepared, params Params) (*Result, error) {
	if err := params.validate(p); err != nil {
		return nil, err
	}
	n := ScanDepth(p, params.K, params.Threshold)
	res := &Result{ScanDepth: n}
	budget := params.maxStates()
	k := params.K

	var lines []pmf.Line
	combo := make([]int, k)
	// Stamp arrays avoid per-combination allocation.
	groupStamp := make([]int, p.NumGroups())
	for i := range groupStamp {
		groupStamp[i] = -1
	}
	stamp := 0

	emit := func() {
		q := combo[k-1]
		stamp++
		prob := 1.0
		for _, i := range combo {
			g := p.Tuples[i].Group
			if groupStamp[g] == stamp {
				return // violates an ME rule
			}
			groupStamp[g] = stamp
			prob *= p.Tuples[i].Prob
		}
		// Skip factors of every group untouched by the combination that has
		// members ranked above q.
		for pos := 0; pos < q; pos++ {
			g := p.Tuples[pos].Group
			if groupStamp[g] == stamp {
				continue
			}
			groupStamp[g] = stamp
			prob *= 1 - p.PrefixMass(g, q)
		}
		if prob <= 0 {
			return
		}
		l := pmf.Line{Score: 0, Prob: prob}
		if params.TrackVectors {
			var v *pmf.Vector
			for i := k - 1; i >= 0; i-- {
				v = v.Prepend(combo[i])
			}
			l.Vec = v
			l.VecProb = VectorProb(p, combo)
			l.VecBound = p.Tuples[q].Score
		}
		for _, i := range combo {
			l.Score += p.Tuples[i].Score
		}
		lines = append(lines, l)
	}

	overBudget := false
	var rec func(start, depth int, probUB float64)
	rec = func(start, depth int, probUB float64) {
		if overBudget {
			return
		}
		if depth == k {
			emit()
			return
		}
		for i := start; i <= n-(k-depth) && !overBudget; i++ {
			// Every visited enumeration node counts against the budget —
			// pruned subtrees still cost their frontier.
			res.Cells++
			if res.Cells > budget {
				overBudget = true
				return
			}
			ub := probUB * p.Tuples[i].Prob
			if ub <= params.Threshold && params.Threshold > 0 {
				continue
			}
			combo[depth] = i
			rec(i+1, depth+1, ub)
		}
	}
	rec(0, 0, 1)
	if overBudget {
		return nil, ErrBudgetExceeded
	}
	res.Dist = pmf.FromLines(lines)
	res.Dist.Coalesce(params.MaxLines, params.CoalesceMode)
	return res, nil
}
