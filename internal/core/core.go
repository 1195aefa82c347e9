// Package core implements §3 of the paper: the algorithms that compute the
// score distribution of top-k tuple vectors of an uncertain table.
//
// Three algorithms are provided, matching the paper:
//
//   - Distribution — the main dynamic program (§3.2), extended to mutually
//     exclusive tuples via rule tuples, blocked exit points and per-unit runs
//     (§3.3), and to score ties via the (score, probability) sort order
//     (§3.4). O(kmn) with constant-size distributions after line coalescing.
//     The units' runs share rows: each group row a run of units uses
//     alike is applied once for all of them, at the nodes of a binary fold
//     tree over the units that merges their columns bottom-up.
//   - StateExpansion — the naive state-space expansion of Figure 4,
//     exponential in the scan depth, kept exact under ME rules by telescoping
//     conditional skip/take factors.
//   - KCombo — enumeration of all k-combinations of the first n tuples,
//     O(n^k), with group-aware skip factors.
//
// All three consume a Prepared table and agree exactly (up to floating-point
// ε) when run with Threshold 0 and no line coalescing; the test suite
// verifies this against the possible-worlds oracle.
package core

import (
	"errors"
	"fmt"
	"math"

	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// DefaultMaxStates bounds the work of the naive baseline algorithms
// (StateExpansion states, k-Combo combinations) unless overridden.
const DefaultMaxStates = 10_000_000

// Params configures a distribution computation.
type Params struct {
	// K is the number of tuples in a top-k vector. Must be ≥ 1.
	K int
	// Threshold is the paper's pτ: top-k vectors with probability below it
	// may be dropped, and the Theorem-2 scan depth is derived from it.
	// 0 means exact (full scan, no pruning).
	Threshold float64
	// MaxLines caps the number of lines kept in any intermediate or final
	// distribution (the paper's c'); 0 means unlimited (exact).
	MaxLines int
	// CoalesceMode selects how coalesced line pairs pick their score.
	CoalesceMode pmf.CoalesceMode
	// TrackVectors enables recording a representative (highest-probability)
	// top-k vector per distribution line, as required by c-Typical-Topk.
	TrackVectors bool
	// MaxStates guards the naive algorithms; 0 uses DefaultMaxStates.
	MaxStates int
	// Parallelism is the number of goroutines the main algorithm may use to
	// evaluate disjoint subtrees of its fold tree concurrently (they are
	// independent). The nodes above them then merge their columns in the
	// fixed left-then-right order, whoever computed them, so the result is
	// bit-identical to serial execution.
	//
	// 0 auto-tunes: queries whose fan-out saves enough estimated cells on
	// the critical path (autoParallelWork) fan out over min(GOMAXPROCS,
	// units) workers, other queries run serially (worker hand-off would
	// cost more than it saves). 1 or negative forces serial execution;
	// values ≥ 2 set the worker count explicitly and always fan out when
	// there are two units or more.
	Parallelism int
}

func (p Params) validate(tbl *uncertain.Prepared) error {
	if tbl == nil {
		return errors.New("core: nil prepared table")
	}
	if p.K < 1 {
		return fmt.Errorf("core: k must be ≥ 1, got %d", p.K)
	}
	if p.Threshold < 0 || p.Threshold >= 1 {
		return fmt.Errorf("core: threshold must be in [0, 1), got %v", p.Threshold)
	}
	if p.MaxLines < 0 {
		return fmt.Errorf("core: max lines must be ≥ 0, got %d", p.MaxLines)
	}
	return nil
}

func (p Params) maxStates() int {
	if p.MaxStates > 0 {
		return p.MaxStates
	}
	return DefaultMaxStates
}

// Result carries a computed score distribution and the work counters used by
// the empirical study.
type Result struct {
	// Dist is the score distribution of top-k vectors. Its total mass is the
	// probability that a top-k vector exists (at least k tuples appear)
	// within the scanned prefix; it is not normalized.
	Dist *pmf.Dist
	// ScanDepth is the number of tuples n examined (Theorem 2).
	ScanDepth int
	// Units is the number of dynamic-programming units (lead-tuple regions
	// plus non-lead tuples) of the main algorithm: the leaves of its fold
	// tree, each holding a unit's exit rows and the rows no other unit
	// shares with it.
	Units int
	// Cells counts the Combine calls the main algorithm actually made —
	// columns that cannot reach k, or whose sources are both empty, are not
	// computed and not counted — or expanded states (StateExpansion), or
	// enumerated combinations (KCombo).
	Cells int
}

// ErrBudgetExceeded is returned when a naive algorithm exceeds MaxStates.
var ErrBudgetExceeded = errors.New("core: state budget exceeded")

// Bound returns the right-hand side of the Theorem-2 stopping condition:
// k + 1 + ln(1/pτ) + sqrt(ln²(1/pτ) + 2k·ln(1/pτ)). For ptau ≤ 0 it is +Inf
// (never stop early).
func Bound(k int, ptau float64) float64 {
	if ptau <= 0 {
		return math.Inf(1)
	}
	l := math.Log(1 / ptau)
	return float64(k) + 1 + l + math.Sqrt(l*l+2*float64(k)*l)
}

// VectorProb returns the exact probability that the k-tuple vector at the
// given prepared positions is a top-k vector of the table:
//
//	Π_{t ∈ v} Pr(t) × Π_{g untouched by v} (1 − mass of g's tuples ranked
//	strictly above v's boundary score),
//
// where the boundary score is the minimum score in v. Tuples tied with the
// boundary may appear freely (the world then merely has several top-k
// vectors, Theorem 1). Returns 0 for vectors violating an ME rule.
func VectorProb(p *uncertain.Prepared, vec []int) float64 {
	if len(vec) == 0 {
		return 0
	}
	bound := math.Inf(1)
	taken := make(map[int]bool, len(vec))
	prob := 1.0
	for _, pos := range vec {
		tp := p.Tuples[pos]
		if taken[tp.Group] {
			return 0
		}
		taken[tp.Group] = true
		prob *= tp.Prob
		if tp.Score < bound {
			bound = tp.Score
		}
	}
	seen := make(map[int]bool)
	for pos := 0; pos < p.Len(); pos++ {
		tp := p.Tuples[pos]
		if tp.Score <= bound {
			break // rank order: no further tuples outrank the boundary
		}
		if taken[tp.Group] || seen[tp.Group] {
			continue
		}
		seen[tp.Group] = true
		var mass float64
		for _, m := range p.GroupMembers(tp.Group) {
			if p.Tuples[m].Score > bound {
				mass += p.Tuples[m].Prob
			}
		}
		if f := 1 - mass; f > 0 {
			prob *= f
		} else {
			return 0
		}
	}
	return prob
}

// ScanDepth returns the number of tuples n that must be examined, per
// Theorem 2: the scan of tuples in rank order may stop at the first tuple t
// whose μ(t) — the total probability of higher-ranked tuples outside t's ME
// group — reaches Bound(k, ptau). The cut is then extended to the end of the
// enclosing tie group, since configurations never split a tie group.
func ScanDepth(p *uncertain.Prepared, k int, ptau float64) int {
	depth, stopped := StopRank(p, k, ptau)
	if !stopped {
		return p.Len()
	}
	if depth == 0 {
		return 0
	}
	// Never cut a tie group: include all peers of the last needed tuple.
	_, end := p.TieGroup(depth - 1)
	if end > depth {
		depth = end
	}
	return depth
}

// StopRank returns the rank of the first tuple t whose μ(t) reaches
// Bound(k, ptau), the Theorem-2 stopping point before the tie-group
// extension, and whether any tuple of p reaches it. A Prepared holding only
// a rank prefix of a table gives the whole table's answer whenever the stop
// falls inside the prefix, since μ depends only on higher ranks.
func StopRank(p *uncertain.Prepared, k int, ptau float64) (int, bool) {
	n := p.Len()
	bound := Bound(k, ptau)
	if math.IsInf(bound, 1) {
		return n, false
	}
	for i := 0; i < n; i++ {
		tp := p.Tuples[i]
		// PrefixProbability is precomputed once per Prepared, so repeated
		// queries and batches share the scan's running sums.
		mu := p.PrefixProbability(i) - p.PrefixMass(tp.Group, i)
		if mu >= bound {
			return i, true
		}
	}
	return n, false
}
