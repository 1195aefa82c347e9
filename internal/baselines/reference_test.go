package baselines

import "probtopk/internal/uncertain"

// The O(n²·k) count distributions the rank tree replaced, kept as the
// reference its differentials check against.

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
