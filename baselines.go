package probtopk

import (
	"probtopk/internal/baselines"
	"probtopk/internal/core"
	"probtopk/internal/uncertain"
)

// The baseline semantics below are Engine methods sharing the snapshot's
// memoized prepared form: computing several of them over the same table —
// the typical comparison workload — prepares it once. The package-level
// functions delegate to the shared default engine.

// UTopK computes the U-Topk answer [Soliman, Ilyas, Chang]: the top-k tuple
// vector with the highest probability of being a top-k vector.
//
// It is one run of the main algorithm over the whole table that keeps a
// single line, TopKDistribution(t, k, &Options{Threshold: -1, MaxLines: 1})
// followed by Distribution.UTopK: merging lines keeps the more probable
// vector, so the cap does not change the vector, and the run costs about
// what a default query does. The returned Line therefore reads:
//
//   - Vector and VectorProb: the most probable vector and the exact
//     probability that it is a top-k vector;
//   - Score: the vector's own total score;
//   - Prob: the single line's mass, which is Pr(a top-k vector exists), not
//     the mass at Score.
func UTopK(t *Table, k int) (Line, error) { return defaultEngine.UTopK(t, k) }

// UTopK computes the U-Topk answer through this engine; see the
// package-level UTopK.
func (e *Engine) UTopK(t *Table, k int) (Line, error) {
	if t == nil {
		return Line{}, ErrNilTable
	}
	return e.UTopKSnapshot(t.Snapshot(), k)
}

// UTopKSnapshot computes the U-Topk answer over an immutable snapshot; see
// the package-level UTopK.
func (e *Engine) UTopKSnapshot(s *Snapshot, k int) (Line, error) {
	dist, err := e.TopKDistributionSnapshot(s, k, &Options{Threshold: -1, MaxLines: 1})
	if err != nil {
		return Line{}, err
	}
	l, ok := dist.dist.MaxVecProbLine()
	if !ok {
		return Line{}, ErrNoVector
	}
	out := dist.line(l)
	out.Score = dist.prepared.TotalScore(l.Vec.Slice())
	return out, nil
}

// ErrNoVector is returned when no k tuples can co-exist, so no top-k vector
// exists.
var ErrNoVector = errNoVector{}

type errNoVector struct{}

func (errNoVector) Error() string { return "probtopk: no top-k vector exists" }

// RankedTuple is one row of a U-kRanks answer: the tuple most likely to
// occupy a given rank.
type RankedTuple struct {
	Rank  int
	ID    string
	Score float64
	Prob  float64
}

// UKRanks computes the U-kRanks answer [Soliman, Ilyas, Chang]: for each
// rank r = 1..k, the tuple with the highest probability of ranking exactly
// r-th across all possible worlds. As the paper's §1 observes, the same
// tuple may win several ranks, and the returned tuples need not be able to
// co-exist.
func UKRanks(t *Table, k int) ([]RankedTuple, error) { return defaultEngine.UKRanks(t, k) }

// UKRanks computes the U-kRanks answer through this engine; see the
// package-level UKRanks.
func (e *Engine) UKRanks(t *Table, k int) ([]RankedTuple, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.UKRanksSnapshot(t.Snapshot(), k)
}

// UKRanksSnapshot computes the U-kRanks answer over an immutable snapshot.
func (e *Engine) UKRanksSnapshot(s *Snapshot, k int) ([]RankedTuple, error) {
	prep, err := e.prepareSnapshot(s)
	if err != nil {
		return nil, err
	}
	answers, err := baselines.UKRanks(prep, k)
	if err != nil {
		return nil, err
	}
	out := make([]RankedTuple, 0, len(answers))
	for _, a := range answers {
		rt := RankedTuple{Rank: a.Rank, Prob: a.Prob}
		if a.Position >= 0 {
			tp := prep.Tuples[a.Position]
			rt.ID = tp.ID
			rt.Score = tp.Score
		}
		out = append(out, rt)
	}
	return out, nil
}

// TupleProb reports a tuple together with its probability of being among the
// top-k.
type TupleProb struct {
	ID     string
	Score  float64
	Prob   float64 // membership probability
	InTopK float64 // probability of being in the top-k
}

// PTk computes the probabilistic threshold top-k answer [Hua et al.]: every
// tuple whose probability of being in the top-k is at least threshold, in
// rank order.
func PTk(t *Table, k int, threshold float64) ([]TupleProb, error) {
	return defaultEngine.PTk(t, k, threshold)
}

// PTk computes the probabilistic threshold top-k answer through this
// engine; see the package-level PTk.
func (e *Engine) PTk(t *Table, k int, threshold float64) ([]TupleProb, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.PTkSnapshot(t.Snapshot(), k, threshold)
}

// PTkSnapshot computes the probabilistic threshold top-k answer over an
// immutable snapshot.
func (e *Engine) PTkSnapshot(s *Snapshot, k int, threshold float64) ([]TupleProb, error) {
	prep, err := e.prepareSnapshot(s)
	if err != nil {
		return nil, err
	}
	positions, probs, err := baselines.PTkProbs(prep, k, threshold)
	if err != nil {
		return nil, err
	}
	return tupleProbs(prep, positions, probs), nil
}

// GlobalTopK computes the Global-Topk answer [Zhang, Chomicki]: the k tuples
// with the highest probability of being in the top-k, most probable first.
func GlobalTopK(t *Table, k int) ([]TupleProb, error) { return defaultEngine.GlobalTopK(t, k) }

// GlobalTopK computes the Global-Topk answer through this engine; see the
// package-level GlobalTopK.
func (e *Engine) GlobalTopK(t *Table, k int) ([]TupleProb, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.GlobalTopKSnapshot(t.Snapshot(), k)
}

// GlobalTopKSnapshot computes the Global-Topk answer over an immutable
// snapshot.
func (e *Engine) GlobalTopKSnapshot(s *Snapshot, k int) ([]TupleProb, error) {
	prep, err := e.prepareSnapshot(s)
	if err != nil {
		return nil, err
	}
	positions, probs, err := baselines.GlobalTopkProbs(prep, k)
	if err != nil {
		return nil, err
	}
	return tupleProbs(prep, positions, probs), nil
}

// InTopKProbs returns, for every tuple in rank order, its probability of
// being among the top-k — the marginal the category-2 semantics build on.
func InTopKProbs(t *Table, k int) ([]TupleProb, error) { return defaultEngine.InTopKProbs(t, k) }

// InTopKProbs returns the in-top-k marginals through this engine; see the
// package-level InTopKProbs.
func (e *Engine) InTopKProbs(t *Table, k int) ([]TupleProb, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.InTopKProbsSnapshot(t.Snapshot(), k)
}

// InTopKProbsSnapshot returns the in-top-k marginals over an immutable
// snapshot.
func (e *Engine) InTopKProbsSnapshot(s *Snapshot, k int) ([]TupleProb, error) {
	prep, err := e.prepareSnapshot(s)
	if err != nil {
		return nil, err
	}
	probs, err := baselines.InTopkProbs(prep, k)
	if err != nil {
		return nil, err
	}
	positions := make([]int, prep.Len())
	for i := range positions {
		positions[i] = i
	}
	return tupleProbs(prep, positions, probs), nil
}

// ExpectedRankTuple reports a tuple with its expected rank across all
// possible worlds.
type ExpectedRankTuple struct {
	ID    string
	Score float64
	Prob  float64
	// Rank is the expected 0-based rank: the expected number of
	// higher-ranked co-existing tuples when present, the expected world size
	// when absent.
	Rank float64
}

// ExpectedRankTopK computes the expected-rank semantics contemporaneous with
// the paper (Cormode, Li, Yi; ICDE 2009): the k tuples with the smallest
// rank averaged over all possible worlds, in increasing expected-rank order.
func ExpectedRankTopK(t *Table, k int) ([]ExpectedRankTuple, error) {
	return defaultEngine.ExpectedRankTopK(t, k)
}

// ExpectedRankTopK computes the expected-rank answer through this engine;
// see the package-level ExpectedRankTopK.
func (e *Engine) ExpectedRankTopK(t *Table, k int) ([]ExpectedRankTuple, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.ExpectedRankTopKSnapshot(t.Snapshot(), k)
}

// ExpectedRankTopKSnapshot computes the expected-rank answer over an
// immutable snapshot.
func (e *Engine) ExpectedRankTopKSnapshot(s *Snapshot, k int) ([]ExpectedRankTuple, error) {
	prep, err := e.prepareSnapshot(s)
	if err != nil {
		return nil, err
	}
	positions, ranks, err := baselines.ExpectedRankTopkRanks(prep, k)
	if err != nil {
		return nil, err
	}
	out := make([]ExpectedRankTuple, 0, len(positions))
	for _, pos := range positions {
		tp := prep.Tuples[pos]
		out = append(out, ExpectedRankTuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Rank: ranks[pos]})
	}
	return out, nil
}

// ScanDepth returns how many tuples (in rank order) the algorithms must
// examine for a top-k query with probability threshold ptau, per Theorem 2.
// ptau ≤ 0 means the whole table.
func ScanDepth(t *Table, k int, ptau float64) (int, error) {
	return defaultEngine.ScanDepth(t, k, ptau)
}

// ScanDepth returns the Theorem-2 scan depth through this engine; see the
// package-level ScanDepth.
func (e *Engine) ScanDepth(t *Table, k int, ptau float64) (int, error) {
	if t == nil {
		return 0, ErrNilTable
	}
	return e.ScanDepthSnapshot(t.Snapshot(), k, ptau)
}

// ScanDepthSnapshot returns the Theorem-2 scan depth over an immutable
// snapshot.
func (e *Engine) ScanDepthSnapshot(s *Snapshot, k int, ptau float64) (int, error) {
	prep, err := e.prepareSnapshot(s)
	if err != nil {
		return 0, err
	}
	return core.ScanDepth(prep, k, ptau), nil
}

func tupleProbs(prep *uncertain.Prepared, positions []int, probs []float64) []TupleProb {
	out := make([]TupleProb, 0, len(positions))
	for _, pos := range positions {
		tp := prep.Tuples[pos]
		out = append(out, TupleProb{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, InTopK: probs[pos]})
	}
	return out
}
