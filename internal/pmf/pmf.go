// Package pmf implements the discrete probability-mass-function substrate
// used throughout probtopk.
//
// A distribution is a sorted sequence of "lines" (the paper's term for the
// vertical lines of a PMF plot): (score, probability) pairs, optionally
// annotated with a representative top-k tuple vector and that vector's own
// probability. The package provides the merge/shift/scale operations the
// paper's dynamic program is built from (§3.2), the closest-pair line
// coalescing strategy (§3.2.1), histogram views at arbitrary bucket widths,
// and the summary statistics (mean, variance, quantiles, expected minimum
// distance) needed for c-Typical-Topk and for the empirical study.
//
// # Memory layout
//
// Dist stores its lines as a structure of arrays: scores and probabilities
// live in two dense []float64 slices, and the vector-tracking annotations
// (representative vector, its probability and boundary score) live in three
// side-arrays that exist only when vectors are tracked. The dynamic
// program's hot kernels (Combine, GridCombiner.Combine, Coalescer) stream
// the score/prob arrays with tight scalar loops — 16 bytes per line through
// the cache instead of the 40 an array-of-structs layout would drag — and
// touch the vector side-arrays in separate passes only when a query tracks
// vectors. The Line struct remains the interchange format: Lines()/Line(i)
// materialize it for readers, FromLines accepts it from producers.
//
// Representative-vector nodes are bump-allocated from a VectorArena during
// a DP run (the per-line Prepend was the dominant allocation of the whole
// query path) and copied out into ordinary heap storage by
// Dist.DetachVectors before the arena is recycled, so finished results
// never alias scratch memory.
package pmf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Eps is the relative tolerance under which two scores are considered equal
// and their lines combined by summing probabilities.
const Eps = 1e-9

// sameScore reports whether a and b are equal within Eps (relative to their
// magnitude, with an absolute floor of Eps). Written with plain compares —
// no math.Abs/math.Max calls — because every kernel's append path runs it
// once per output line.
func sameScore(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= Eps {
		return true
	}
	aa := a
	if aa < 0 {
		aa = -aa
	}
	bb := b
	if bb < 0 {
		bb = -bb
	}
	if bb > aa {
		aa = bb
	}
	return d <= Eps*aa
}

// Vector is a persistent (immutable, structurally shared) list of tuple
// positions forming a top-k vector. The dynamic program prepends tuples as it
// walks up the table, so the head is always the highest-ranked tuple.
// A nil *Vector is the empty vector.
type Vector struct {
	// Tuple is a position in the prepared (sorted) table, not an original
	// table index; callers translate via uncertain.Prepared.
	Tuple int
	Next  *Vector
}

// Prepend returns a new vector with t in front of v. v is not modified.
func (v *Vector) Prepend(t int) *Vector { return &Vector{Tuple: t, Next: v} }

// Len returns the number of tuples in the vector.
func (v *Vector) Len() int {
	n := 0
	for ; v != nil; v = v.Next {
		n++
	}
	return n
}

// Slice materializes the vector as a slice of tuple positions, highest rank
// first. A nil vector yields nil.
func (v *Vector) Slice() []int {
	if v == nil {
		return nil
	}
	s := make([]int, 0, 4)
	for ; v != nil; v = v.Next {
		s = append(s, v.Tuple)
	}
	return s
}

// Line is one atom of a discrete score distribution, the interchange format
// between Dist's internal structure-of-arrays layout and its callers.
type Line struct {
	// Score is the total score of the top-k vectors aggregated in this line.
	Score float64
	// Prob is the total probability mass at Score.
	Prob float64
	// Vec is a representative top-k vector with this score: among all vectors
	// whose total score coalesced into this line, one with the highest
	// probability of being a top-k vector. Nil when vectors are not tracked.
	Vec *Vector
	// VecProb is the probability that Vec is a top-k vector. When the
	// producer supplies a boundary-aware skip adjustment (see Combine), this
	// is the exact vector probability even under score ties combined with
	// mutual exclusion — strictly stronger than the paper's Theorem 3, whose
	// max-probability claim fails when a tie group contains a tuple mutually
	// exclusive with a higher-ranked one.
	VecProb float64
	// VecBound is the score of Vec's k-th (lowest-ranked) member — the
	// boundary score that decides which higher-ranked absences Vec's
	// probability must pay for. Maintained by Combine.
	VecBound float64
}

// Dist is a discrete distribution over total scores: lines sorted by
// ascending score with no two lines closer than Eps, stored as parallel
// arrays. The zero value is an empty (all-mass-zero) distribution, which is
// the identity for Merge and the annihilator produced by blocked exit points
// (the paper's "(0, 0)" cells).
type Dist struct {
	scores []float64
	probs  []float64
	// Vector side-arrays. hasVec marks them live; when false they are dead
	// storage kept only for capacity reuse and every annotation reads as the
	// zero Line fields. When true all three have the same length as scores.
	vecs    []*Vector
	vprobs  []float64
	vbounds []float64
	hasVec  bool
}

// New returns an empty distribution.
func New() *Dist { return &Dist{} }

// Point returns the single-line distribution {(score, prob)}.
func Point(score, prob float64) *Dist {
	return &Dist{scores: []float64{score}, probs: []float64{prob}}
}

// PointVec returns a single-line distribution carrying a representative
// vector.
func PointVec(score, prob float64, vec *Vector, vecProb float64) *Dist {
	return &Dist{
		scores: []float64{score}, probs: []float64{prob},
		vecs: []*Vector{vec}, vprobs: []float64{vecProb}, vbounds: []float64{0},
		hasVec: true,
	}
}

// FromLines builds a distribution from arbitrary lines: they are sorted,
// lines with equal scores (within Eps) are combined, and lines with zero
// probability are dropped.
func FromLines(lines []Line) *Dist {
	ls := make([]Line, 0, len(lines))
	for _, l := range lines {
		if l.Prob != 0 {
			ls = append(ls, l)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Score < ls[j].Score })
	d := &Dist{scores: make([]float64, 0, len(ls)), probs: make([]float64, 0, len(ls))}
	for _, l := range ls {
		d.appendCombine(l)
	}
	return d
}

// enableVec switches the vector side-arrays on, zero-filling them to the
// current line count.
func (d *Dist) enableVec() {
	if d.hasVec {
		return
	}
	d.hasVec = true
	n := len(d.scores)
	d.vecs = growZero(d.vecs, n)
	d.vprobs = growZeroF(d.vprobs, n)
	d.vbounds = growZeroF(d.vbounds, n)
}

func growZero(s []*Vector, n int) []*Vector {
	if cap(s) < n {
		return make([]*Vector, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growZeroF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset truncates d to zero lines, configuring the vector side-arrays for
// the given tracking mode while keeping all storage for reuse.
func (d *Dist) reset(trackVectors bool) {
	d.scores = d.scores[:0]
	d.probs = d.probs[:0]
	d.vecs = d.vecs[:0]
	d.vprobs = d.vprobs[:0]
	d.vbounds = d.vbounds[:0]
	d.hasVec = trackVectors
}

// ensureCap makes sure n lines can be appended without reallocating
// mid-kernel. Call on an empty (just-reset) distribution. Storage that must
// grow grows to twice n: the dynamic program recycles its distributions
// across kernels that fill up to the line cap (combines) and to the sum of
// two columns (merges), and across the Scratches of a fanned-out query, so
// storage sized exactly for one kernel would be regrown by the next.
func (d *Dist) ensureCap(n int) {
	if cap(d.scores) < n {
		d.scores = make([]float64, 0, 2*n)
	}
	if cap(d.probs) < n {
		d.probs = make([]float64, 0, 2*n)
	}
	if !d.hasVec {
		return
	}
	if cap(d.vecs) < n {
		d.vecs = make([]*Vector, 0, 2*n)
	}
	if cap(d.vprobs) < n {
		d.vprobs = make([]float64, 0, 2*n)
	}
	if cap(d.vbounds) < n {
		d.vbounds = make([]float64, 0, 2*n)
	}
}

// appendCombine appends l to the (already sorted) distribution, combining it
// with the last line when their scores match within Eps.
func (d *Dist) appendCombine(l Line) {
	if !d.hasVec && (l.Vec != nil || l.VecProb != 0 || l.VecBound != 0) {
		d.enableVec()
	}
	n := len(d.scores)
	if n > 0 && sameScore(d.scores[n-1], l.Score) {
		d.probs[n-1] += l.Prob
		if d.hasVec && l.VecProb > d.vprobs[n-1] {
			d.vecs[n-1] = l.Vec
			d.vprobs[n-1] = l.VecProb
			d.vbounds[n-1] = l.VecBound
		}
		return
	}
	d.scores = append(d.scores, l.Score)
	d.probs = append(d.probs, l.Prob)
	if d.hasVec {
		d.vecs = append(d.vecs, l.Vec)
		d.vprobs = append(d.vprobs, l.VecProb)
		d.vbounds = append(d.vbounds, l.VecBound)
	}
}

// appendLine is appendCombine for a bare (score, prob) line on a
// distribution whose vector side-arrays are off — the untracked kernels'
// fast path.
func (d *Dist) appendLine(score, prob float64) {
	n := len(d.scores)
	if n > 0 && sameScore(d.scores[n-1], score) {
		d.probs[n-1] += prob
		return
	}
	d.scores = append(d.scores, score)
	d.probs = append(d.probs, prob)
}

// appendLineVec is appendCombine for a fully annotated line on a
// distribution whose vector side-arrays are on.
func (d *Dist) appendLineVec(score, prob float64, vec *Vector, vecProb, vecBound float64) {
	n := len(d.scores)
	if n > 0 && sameScore(d.scores[n-1], score) {
		d.probs[n-1] += prob
		if vecProb > d.vprobs[n-1] {
			d.vecs[n-1] = vec
			d.vprobs[n-1] = vecProb
			d.vbounds[n-1] = vecBound
		}
		return
	}
	d.scores = append(d.scores, score)
	d.probs = append(d.probs, prob)
	d.vecs = append(d.vecs, vec)
	d.vprobs = append(d.vprobs, vecProb)
	d.vbounds = append(d.vbounds, vecBound)
}

// Len returns the number of lines.
func (d *Dist) Len() int { return len(d.scores) }

// Lines returns a copy of the distribution as lines, sorted by ascending
// score.
func (d *Dist) Lines() []Line {
	out := make([]Line, len(d.scores))
	for i := range d.scores {
		out[i] = d.Line(i)
	}
	return out
}

// Line returns the i-th line (ascending score order).
func (d *Dist) Line(i int) Line {
	l := Line{Score: d.scores[i], Prob: d.probs[i]}
	if d.hasVec {
		l.Vec = d.vecs[i]
		l.VecProb = d.vprobs[i]
		l.VecBound = d.vbounds[i]
	}
	return l
}

// Scores returns the line scores in ascending order as a read-only view of
// the distribution's internal storage: callers must not modify it, and it is
// invalidated by any mutation of d.
func (d *Dist) Scores() []float64 { return d.scores }

// Probs returns the line probabilities (parallel to Scores) as a read-only
// view with the same aliasing caveats.
func (d *Dist) Probs() []float64 { return d.probs }

// Clone returns a deep copy of the line storage (vectors are shared, they
// are immutable).
func (d *Dist) Clone() *Dist {
	c := &Dist{
		scores: append([]float64(nil), d.scores...),
		probs:  append([]float64(nil), d.probs...),
		hasVec: d.hasVec,
	}
	if d.hasVec {
		c.vecs = append([]*Vector(nil), d.vecs...)
		c.vprobs = append([]float64(nil), d.vprobs...)
		c.vbounds = append([]float64(nil), d.vbounds...)
	}
	return c
}

// IsEmpty reports whether the distribution has no mass.
func (d *Dist) IsEmpty() bool { return len(d.scores) == 0 }

// Reset empties d in place, keeping the line storage for reuse but clearing
// the vector pointers so recycled distributions do not pin vector nodes of
// earlier queries.
func (d *Dist) Reset() {
	clear(d.vecs)
	d.reset(false)
}

// TotalMass returns the sum of all line probabilities using compensated
// (Kahan) summation.
func (d *Dist) TotalMass() float64 {
	var s KahanSum
	for _, p := range d.probs {
		s.Add(p)
	}
	return s.Sum()
}

// Normalize scales the line probabilities so the total mass is 1 (a proper
// conditional PMF). Vector probabilities are left untouched: they are
// marginal probabilities of concrete events and do not change because the
// caller conditions the score view. No-op on an empty or zero-mass
// distribution.
func (d *Dist) Normalize() {
	m := d.TotalMass()
	if m <= 0 {
		return
	}
	inv := 1 / m
	for i := range d.probs {
		d.probs[i] *= inv
	}
}

// Mean returns the expectation of the score under d. If the distribution is
// unnormalized the conditional mean (given the event the distribution covers)
// is returned. Returns NaN for an empty distribution.
func (d *Dist) Mean() float64 {
	if len(d.scores) == 0 {
		return math.NaN()
	}
	var num, den KahanSum
	probs := d.probs[:len(d.scores)]
	for i, s := range d.scores {
		num.Add(s * probs[i])
		den.Add(probs[i])
	}
	if den.Sum() == 0 {
		return math.NaN()
	}
	return num.Sum() / den.Sum()
}

// Variance returns the variance of the score under d (conditional on the
// covered event if unnormalized). Returns NaN for an empty distribution.
func (d *Dist) Variance() float64 {
	if len(d.scores) == 0 {
		return math.NaN()
	}
	mu := d.Mean()
	var num, den KahanSum
	probs := d.probs[:len(d.scores)]
	for i, s := range d.scores {
		dd := s - mu
		num.Add(dd * dd * probs[i])
		den.Add(probs[i])
	}
	if den.Sum() == 0 {
		return math.NaN()
	}
	return num.Sum() / den.Sum()
}

// StdDev returns the standard deviation of the score under d.
func (d *Dist) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Min returns the smallest score with positive mass (NaN when empty).
func (d *Dist) Min() float64 {
	if len(d.scores) == 0 {
		return math.NaN()
	}
	return d.scores[0]
}

// Max returns the largest score with positive mass (NaN when empty).
func (d *Dist) Max() float64 {
	if len(d.scores) == 0 {
		return math.NaN()
	}
	return d.scores[len(d.scores)-1]
}

// Span returns Max − Min (0 when empty or single-line).
func (d *Dist) Span() float64 {
	if len(d.scores) < 2 {
		return 0
	}
	return d.Max() - d.Min()
}

// CDF returns Pr(S ≤ x) (relative to total mass 1; divide by TotalMass for
// unnormalized distributions if conditional semantics are wanted).
func (d *Dist) CDF(x float64) float64 {
	var s KahanSum
	for i, sc := range d.scores {
		if sc > x && !sameScore(sc, x) {
			break
		}
		s.Add(d.probs[i])
	}
	return s.Sum()
}

// TailProb returns Pr(S > x).
func (d *Dist) TailProb(x float64) float64 {
	var s KahanSum
	for i := len(d.scores) - 1; i >= 0; i-- {
		sc := d.scores[i]
		if sc < x || sameScore(sc, x) {
			break
		}
		s.Add(d.probs[i])
	}
	return s.Sum()
}

// Quantile returns the smallest score s with CDF(s) ≥ q·TotalMass. It treats
// the distribution as conditional (quantiles of the covered event). Returns
// NaN when empty or q outside [0,1].
func (d *Dist) Quantile(q float64) float64 {
	if len(d.scores) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	target := q * d.TotalMass()
	var s KahanSum
	for i, p := range d.probs {
		s.Add(p)
		if s.Sum() >= target {
			return d.scores[i]
		}
	}
	return d.scores[len(d.scores)-1]
}

// Median returns Quantile(0.5) — the weighted median, which minimizes the
// expected absolute distance E|S − s| over all s (the c = 1 typical score
// when restricted to support points).
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// MaxProbLine returns the line with the largest probability mass (the mode).
// ok is false when the distribution is empty.
func (d *Dist) MaxProbLine() (Line, bool) {
	if len(d.scores) == 0 {
		return Line{}, false
	}
	best := 0
	for i, p := range d.probs {
		if p > d.probs[best] {
			best = i
		}
	}
	return d.Line(best), true
}

// MaxVecProbLine returns the line whose representative vector has the largest
// vector probability. On the main algorithm's output over the whole table
// (core.Params.Threshold 0) that is the U-Topk answer among the vectors the
// algorithm builds — those whose configuration (Theorem 3) has positive
// probability — at any line cap: no merge loses the most probable vector.
//
// Proof. A line's tracked vector probability is the product of its chosen
// tuples' probabilities and the skip factors of the rows it passed over,
// where a row's skip factor for a vector whose lowest score is b drops the
// members scoring above b (members tied with b are free). Every merge — a
// coalesce, two lines at one score, two columns joined at a fold-tree node —
// keeps the line whose vector has the larger tracked probability.
//
//  1. Above a unit's fold-tree leaf every row outranks every vector below
//     it, and the vectors of a non-lead unit share their lowest score, so
//     there a merge keeps the line whose every completion is at least as
//     probable. Only in the leaf of a lead region do two merged lines face
//     different skip factors for the rows still to come.
//  2. Call a vector tight when it takes every row still to come that holds
//     a member tied with its lowest score. Say a merge drops P2 for P1 and
//     V = P2 + π is a most probable vector of the unit and tight. Every row
//     π passes over then has all its members above V's lowest score, so its
//     skip factor for V is the smallest a row can have, and P1 + π is at
//     least as probable as V: a most probable vector too, carried by the
//     kept line. It is tight, or one of those rows would charge it strictly
//     less and make it more probable than V.
//  3. Say a most probable vector V of the unit starts at its lowest tuple e
//     and is not tight: a row R it will pass over holds a member t tied
//     with e. t ranks above e with the same score, so Pr(t) ≥ Pr(e) in the
//     canonical order; e leads its group (lead region), so leaving it out
//     frees no factor. V − e + t is thus at least as probable — it gains
//     Pr(t) for Pr(e) times R's skip factor, and skips the rows between e
//     and its own lowest tuple — and that tuple ranks above e: either a
//     later exit row of the same unit, so the vector has not started, or a
//     tuple of a unit ranked above.
//
// So by induction over a lead region's rows, some most probable vector of
// the unit has not started yet, or is carried by a kept line and tight, or
// is matched by a vector of a unit ranked above. By induction over the
// units in rank order, the answer is at least as probable as every unit's
// most probable vector. TestUTopkOneLine in internal/baselines checks the
// claim against world enumeration at caps 1, 2 and 5.
func (d *Dist) MaxVecProbLine() (Line, bool) {
	if len(d.scores) == 0 {
		return Line{}, false
	}
	if !d.hasVec {
		return d.Line(0), true
	}
	best := 0
	for i, vp := range d.vprobs {
		if vp > d.vprobs[best] {
			best = i
		}
	}
	return d.Line(best), true
}

// ExpectedMinDistance returns E[min_i |S − points[i]|] under d, the
// c-Typical-Topk objective of Definition 1 (conditional on the covered event
// when unnormalized). points need not be sorted. Returns NaN when d is empty
// or points is empty.
func (d *Dist) ExpectedMinDistance(points []float64) float64 {
	if len(d.scores) == 0 || len(points) == 0 {
		return math.NaN()
	}
	ps := append([]float64(nil), points...)
	sort.Float64s(ps)
	var num, den KahanSum
	j := 0
	for i, sc := range d.scores {
		for j+1 < len(ps) && ps[j+1] <= sc {
			j++
		}
		best := math.Abs(sc - ps[j])
		if j+1 < len(ps) {
			if alt := math.Abs(ps[j+1] - sc); alt < best {
				best = alt
			}
		}
		num.Add(best * d.probs[i])
		den.Add(d.probs[i])
	}
	if den.Sum() == 0 {
		return math.NaN()
	}
	return num.Sum() / den.Sum()
}

// Wasserstein1 returns the 1-Wasserstein (earth mover's) distance between d
// and o, treating both as distributions conditioned on their covered events
// (each is normalized first). It is the test metric for the accuracy loss of
// line coalescing. Returns NaN if either is empty.
func (d *Dist) Wasserstein1(o *Dist) float64 {
	if len(d.scores) == 0 || len(o.scores) == 0 {
		return math.NaN()
	}
	md, mo := d.TotalMass(), o.TotalMass()
	if md <= 0 || mo <= 0 {
		return math.NaN()
	}
	// W1 = ∫ |F_d(x) − F_o(x)| dx over the merged support.
	var w KahanSum
	var cd, co float64
	i, j := 0, 0
	prev := math.Min(d.scores[0], o.scores[0])
	for i < len(d.scores) || j < len(o.scores) {
		var x float64
		switch {
		case i >= len(d.scores):
			x = o.scores[j]
		case j >= len(o.scores):
			x = d.scores[i]
		default:
			x = math.Min(d.scores[i], o.scores[j])
		}
		w.Add(math.Abs(cd/md-co/mo) * (x - prev))
		for i < len(d.scores) && d.scores[i] <= x {
			cd += d.probs[i]
			i++
		}
		for j < len(o.scores) && o.scores[j] <= x {
			co += o.probs[j]
			j++
		}
		prev = x
	}
	return w.Sum()
}

// Bucket is one bar of a histogram view.
type Bucket struct {
	Lo, Hi float64 // [Lo, Hi)
	Prob   float64
}

// Histogram returns the distribution aggregated into buckets of the given
// width, aligned at multiples of width. This implements the paper's "access
// the distribution at any granularity of precision". Panics if width ≤ 0.
func (d *Dist) Histogram(width float64) []Bucket {
	if width <= 0 {
		panic("pmf: histogram width must be positive")
	}
	if len(d.scores) == 0 {
		return nil
	}
	var out []Bucket
	for i, sc := range d.scores {
		lo := math.Floor(sc/width) * width
		if n := len(out); n > 0 && out[n-1].Lo == lo {
			out[n-1].Prob += d.probs[i]
			continue
		}
		out = append(out, Bucket{Lo: lo, Hi: lo + width, Prob: d.probs[i]})
	}
	return out
}

// NormalizeVectors rewrites every line's representative vector into
// ascending-position (i.e. rank) order. The ME-handling dynamic program
// builds vectors in row order, and rule-tuple rows may sit out of position
// relative to plain rows; one pass over the final lines restores the
// presentation invariant. Probabilities are untouched.
func (d *Dist) NormalizeVectors() {
	if !d.hasVec {
		return
	}
	for i, v := range d.vecs {
		if v == nil || v.Next == nil {
			continue
		}
		s := v.Slice()
		if sort.IntsAreSorted(s) {
			continue
		}
		sort.Ints(s)
		var nv *Vector
		for j := len(s) - 1; j >= 0; j-- {
			nv = nv.Prepend(s[j])
		}
		d.vecs[i] = nv
	}
}

// DetachVectors rebuilds every representative vector into one freshly
// allocated node block owned by d. The dynamic program allocates its
// intermediate vector nodes from a recycled VectorArena; a result that
// outlives the query must detach before the arena is reset. Sharing between
// lines is not preserved (final vectors have at most k nodes each, so the
// copy is tiny compared to the DP that produced them).
func (d *Dist) DetachVectors() {
	if !d.hasVec {
		return
	}
	total := 0
	for _, v := range d.vecs {
		total += v.Len()
	}
	if total == 0 {
		return
	}
	nodes := make([]Vector, total)
	next := 0
	for i, v := range d.vecs {
		if v == nil {
			continue
		}
		head := &nodes[next]
		cur := head
		for {
			next++
			cur.Tuple = v.Tuple
			v = v.Next
			if v == nil {
				cur.Next = nil
				break
			}
			cur.Next = &nodes[next]
			cur = cur.Next
		}
		d.vecs[i] = head
	}
}

// String renders a short human-readable summary.
func (d *Dist) String() string {
	if len(d.scores) == 0 {
		return "pmf{empty}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pmf{n=%d mass=%.6g span=[%.6g,%.6g] mean=%.6g}",
		len(d.scores), d.TotalMass(), d.Min(), d.Max(), d.Mean())
	return b.String()
}

// KahanSum is a compensated floating-point accumulator. The zero value is an
// empty sum ready to use.
type KahanSum struct {
	sum, c float64
}

// Add accumulates x.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the accumulated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}
