package probtopk

import (
	"errors"
	"fmt"
	"io"

	"probtopk/internal/core"
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// Tuple is one uncertain tuple: an identifier, a ranking score, a membership
// probability in (0, 1], and an optional ME group key ("" = independent).
type Tuple = uncertain.Tuple

// Table is an uncertain table: tuples plus the mutual-exclusion rules
// implied by their group keys. Create one with NewTable, populate it with
// Add/AddIndependent/AddExclusive, then query it with TopKDistribution.
type Table = uncertain.Table

// Snapshot is an immutable snapshot of a table's contents with a
// process-unique identity, obtained from Table.Snapshot (or frozen from raw
// tuples with NewSnapshot). Snapshots are the unit of isolation for
// concurrent serving: a query over a Snapshot holds no lock and sees
// exactly the state the snapshot was taken from, while the owning table
// keeps mutating. Each snapshot memoizes its prepared form on first use
// (Snapshot.Prepare), and unchanged tables hand out the same snapshot, so
// repeated queries prepare once; a mutation lazily mints a fresh snapshot
// (copy-on-write, no tuple copying) with a fresh memo.
type Snapshot = uncertain.Snapshot

// NewSnapshot freezes a copy of the given tuples as a standalone snapshot
// with a fresh identity.
func NewSnapshot(tuples []Tuple) *Snapshot { return uncertain.NewSnapshot(tuples) }

// NewTable returns an empty uncertain table.
func NewTable() *Table { return uncertain.NewTable() }

// ReadTableCSV parses a table from CSV with header id,score,prob,group.
func ReadTableCSV(r io.Reader) (*Table, error) { return uncertain.ReadCSV(r) }

// Algorithm selects which §3 algorithm computes the distribution.
type Algorithm int

const (
	// AlgorithmMain is the paper's dynamic program (§3.2–3.4), the default.
	AlgorithmMain Algorithm = iota
	// AlgorithmStateExpansion is the exponential baseline of Figure 4.
	AlgorithmStateExpansion
	// AlgorithmKCombo enumerates k-combinations, O(n^k).
	AlgorithmKCombo
)

// String returns the algorithm's name.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmMain:
		return "main"
	case AlgorithmStateExpansion:
		return "state-expansion"
	case AlgorithmKCombo:
		return "k-combo"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// DefaultMaxLines is the default cap on distribution lines (the paper's c';
// §3.2.1 suggests a constant around 200).
const DefaultMaxLines = 200

// Options tune a TopKDistribution computation. The zero value (or nil) means:
// main algorithm, threshold 0.001, 200 lines, paper-style plain-average
// coalescing, unnormalized output.
type Options struct {
	// Algorithm selects the computation strategy.
	Algorithm Algorithm
	// Threshold is the paper's pτ: vectors with probability at or below it
	// may be dropped and the Theorem-2 scan depth derives from it.
	//
	// SENTINEL: the zero value does NOT mean "threshold zero". Threshold ==
	// 0 — including the zero Options value and a nil *Options — is replaced
	// by the 0.001 default the paper's experiments use. An exact,
	// unthresholded computation is requested with any NEGATIVE value (or
	// with Exact(), which also lifts the line cap). There is no way to ask
	// for a literal threshold of exactly 0 other than a negative sentinel;
	// positive values are used as given.
	Threshold float64
	// MaxLines caps the number of lines in every intermediate and final
	// distribution. Negative means unlimited; 0 is replaced by
	// DefaultMaxLines.
	MaxLines int
	// WeightedCoalesce switches line coalescing from the paper's plain
	// average to a probability-weighted average that preserves the mean.
	WeightedCoalesce bool
	// Normalize rescales the final distribution to total mass 1. Without it
	// the total mass is Pr(a top-k vector exists), i.e. that at least k
	// tuples co-exist.
	Normalize bool
	// Parallelism lets the main algorithm evaluate disjoint subtrees of its
	// fold tree (the binary tree over its dynamic-programming units whose
	// nodes apply the rows the units below share) on up to this many
	// goroutines; the nodes above them run serially. The result is
	// bit-identical to serial execution. The zero value auto-tunes: queries
	// whose fan-out saves enough estimated work fan out over
	// min(GOMAXPROCS, units) workers, others run serially. 1 or negative
	// forces serial; ≥ 2 sets the count explicitly.
	Parallelism int
}

// resolveThreshold maps the public Threshold sentinel (see
// Options.Threshold) to the core parameter: negative → 0 (exact), 0 → the
// 0.001 paper default, positive → itself.
func resolveThreshold(t float64) float64 {
	switch {
	case t < 0:
		return 0
	case t == 0:
		return 0.001
	default:
		return t
	}
}

func (o *Options) resolve() (core.Params, Algorithm) {
	opts := Options{}
	if o != nil {
		opts = *o
	}
	p := core.Params{TrackVectors: true}
	p.Threshold = resolveThreshold(opts.Threshold)
	switch {
	case opts.MaxLines < 0:
		p.MaxLines = 0
	case opts.MaxLines == 0:
		p.MaxLines = DefaultMaxLines
	default:
		p.MaxLines = opts.MaxLines
	}
	if opts.WeightedCoalesce {
		p.CoalesceMode = pmf.CoalesceWeightedAverage
	}
	p.Parallelism = opts.Parallelism
	return p, opts.Algorithm
}

// Exact returns Options that compute the exact distribution: full scan, no
// pruning, unlimited lines.
func Exact() *Options { return &Options{Threshold: -1, MaxLines: -1} }

// Line is one atom of a top-k score distribution as seen by callers: a total
// score, its probability, and the most probable top-k vector achieving it.
type Line struct {
	// Score is the total score of the aggregated top-k vectors.
	Score float64
	// Prob is the probability mass at Score.
	Prob float64
	// Vector lists the tuple IDs of the most probable top-k vector with this
	// score, highest-ranked first. Empty for distributions not derived from
	// a table (see NewDistribution).
	Vector []string
	// VectorProb is the exact probability that Vector is a top-k vector.
	VectorProb float64
}

// Distribution is the score distribution of top-k vectors — the paper's
// primary query answer — along with the statistics needed to interpret it.
type Distribution struct {
	dist     *pmf.Dist
	prepared *uncertain.Prepared
	// ScanDepth is the number of tuples examined under Theorem 2.
	ScanDepth int
	// K is the query's k.
	K int
}

// ErrNilTable is returned when a nil table is queried.
var ErrNilTable = errors.New("probtopk: nil table")

// ErrNilSnapshot is returned when a nil snapshot is queried.
var ErrNilSnapshot = errors.New("probtopk: nil snapshot")

// TopKDistribution computes the score distribution of the top-k tuple
// vectors of t. A nil opts uses the defaults documented on Options.
//
// Queries route through the package's shared default Engine: t's current
// snapshot is taken and its prepared form memoized on the snapshot, so
// repeated queries over an unchanged table skip preparation, and per-query
// scratch is pooled. Results are identical to a from-scratch computation.
func TopKDistribution(t *Table, k int, opts *Options) (*Distribution, error) {
	return defaultEngine.TopKDistribution(t, k, opts)
}

// TopKDistributionSnapshot is TopKDistribution over an immutable snapshot:
// the computation holds no reference to any table and may run concurrently
// with mutations of the snapshot's origin.
func TopKDistributionSnapshot(s *Snapshot, k int, opts *Options) (*Distribution, error) {
	return defaultEngine.TopKDistributionSnapshot(s, k, opts)
}

// NewDistribution builds a Distribution directly from (score, probability)
// pairs, without an underlying table. This supports using the c-Typical
// machinery on arbitrary discrete distributions (e.g. the biased-coin
// typical-set demonstration of the paper's Example 2). Probabilities must be
// positive; scores need not be distinct (duplicates are combined).
func NewDistribution(scores, probs []float64) (*Distribution, error) {
	if len(scores) != len(probs) {
		return nil, fmt.Errorf("probtopk: %d scores but %d probabilities", len(scores), len(probs))
	}
	if len(scores) == 0 {
		return nil, errors.New("probtopk: empty distribution")
	}
	lines := make([]pmf.Line, len(scores))
	for i := range scores {
		if probs[i] <= 0 {
			return nil, fmt.Errorf("probtopk: probability %v at index %d not positive", probs[i], i)
		}
		lines[i] = pmf.Line{Score: scores[i], Prob: probs[i]}
	}
	return &Distribution{dist: pmf.FromLines(lines)}, nil
}

// line converts an internal line, translating tuple positions to IDs.
func (d *Distribution) line(l pmf.Line) Line {
	out := Line{Score: l.Score, Prob: l.Prob, VectorProb: l.VecProb}
	if d.prepared != nil && l.Vec != nil {
		out.Vector = d.prepared.IDs(l.Vec.Slice())
	}
	return out
}

// Lines returns the distribution as (score, probability, vector) lines in
// ascending score order.
func (d *Distribution) Lines() []Line {
	out := make([]Line, 0, d.dist.Len())
	for _, l := range d.dist.Lines() {
		out = append(out, d.line(l))
	}
	return out
}

// Len returns the number of distinct score lines.
func (d *Distribution) Len() int { return d.dist.Len() }

// TotalMass returns the summed probability of all lines: the probability
// that a top-k vector exists (1 after Normalize).
func (d *Distribution) TotalMass() float64 { return d.dist.TotalMass() }

// Mean returns the expected top-k total score, conditioned on existence.
func (d *Distribution) Mean() float64 { return d.dist.Mean() }

// Variance returns the conditional variance of the top-k total score.
func (d *Distribution) Variance() float64 { return d.dist.Variance() }

// StdDev returns the conditional standard deviation of the top-k total score.
func (d *Distribution) StdDev() float64 { return d.dist.StdDev() }

// Median returns the weighted median score.
func (d *Distribution) Median() float64 { return d.dist.Median() }

// Quantile returns the smallest score at or above the given conditional
// cumulative probability q ∈ [0, 1].
func (d *Distribution) Quantile(q float64) float64 { return d.dist.Quantile(q) }

// CDF returns Pr(top-k total score ≤ x).
func (d *Distribution) CDF(x float64) float64 { return d.dist.CDF(x) }

// TailProb returns Pr(top-k total score > x).
func (d *Distribution) TailProb(x float64) float64 { return d.dist.TailProb(x) }

// Min returns the smallest score with positive probability.
func (d *Distribution) Min() float64 { return d.dist.Min() }

// Max returns the largest score with positive probability.
func (d *Distribution) Max() float64 { return d.dist.Max() }

// Span returns Max − Min.
func (d *Distribution) Span() float64 { return d.dist.Span() }

// Bucket is one bar of a histogram view of the distribution.
type Bucket struct {
	Lo, Hi float64 // [Lo, Hi)
	Prob   float64
}

// Histogram aggregates the distribution into buckets of the given width —
// the paper's "any granularity of precision" access path (§2.2 usage 1).
func (d *Distribution) Histogram(width float64) []Bucket {
	bs := d.dist.Histogram(width)
	out := make([]Bucket, len(bs))
	for i, b := range bs {
		out[i] = Bucket{Lo: b.Lo, Hi: b.Hi, Prob: b.Prob}
	}
	return out
}

// ExpectedMinDistance evaluates the Definition-1 objective for an arbitrary
// point set: E[min_i |S − points_i|].
func (d *Distribution) ExpectedMinDistance(points []float64) float64 {
	return d.dist.ExpectedMinDistance(points)
}

// UTopK returns the U-Topk answer [Soliman et al.]: the most probable top-k
// vector, as the line carrying it. ok is false when the distribution is
// empty. Line coalescing preserves this answer exactly.
func (d *Distribution) UTopK() (Line, bool) {
	l, ok := d.dist.MaxVecProbLine()
	if !ok {
		return Line{}, false
	}
	return d.line(l), true
}
