// Package check verifies topkd answers against the benchmark's own
// computations: possible-world enumeration, the paper's vector-probability
// formula, the existence probability of k co-existing tuples, and the
// properties each query semantics must have. It imports no code of the
// program under test; it sees only uploaded tuples and decoded answers.
package check

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Tuple is one uploaded uncertain tuple, in its wire form.
type Tuple struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Prob  float64 `json:"prob"`
	Group string  `json:"group,omitempty"`
}

// Line is one line of a top-k score distribution answer.
type Line struct {
	Score      float64  `json:"score"`
	Prob       float64  `json:"prob"`
	Vector     []string `json:"vector,omitempty"`
	VectorProb float64  `json:"vectorProb,omitempty"`
}

// Dist is a top-k score distribution answer.
type Dist struct {
	K         int     `json:"k"`
	ScanDepth int     `json:"scanDepth"`
	TotalMass float64 `json:"totalMass"`
	Lines     []Line  `json:"lines"`
}

// Batch is a batched distribution answer.
type Batch struct {
	Results []Dist `json:"results"`
}

// Typical is a c-typical answer.
type Typical struct {
	K     int     `json:"k"`
	C     int     `json:"c"`
	Cost  float64 `json:"cost"`
	Lines []Line  `json:"lines"`
}

// TupleProb is one tuple with its in-top-k probability.
type TupleProb struct {
	ID     string  `json:"id"`
	Score  float64 `json:"score"`
	Prob   float64 `json:"prob"`
	InTopK float64 `json:"inTopK"`
}

// Ranked is one U-kRanks row.
type Ranked struct {
	Rank  int     `json:"rank"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Prob  float64 `json:"prob"`
}

// ExpectedRank is one expected-rank row.
type ExpectedRank struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Prob  float64 `json:"prob"`
	Rank  float64 `json:"rank"`
}

// Baseline is a §5 baseline answer.
type Baseline struct {
	Semantic string         `json:"semantic"`
	K        int            `json:"k"`
	P        float64        `json:"p,omitempty"`
	Line     *Line          `json:"line,omitempty"`
	Ranks    []Ranked       `json:"ranks,omitempty"`
	Tuples   []TupleProb    `json:"tuples,omitempty"`
	Expected []ExpectedRank `json:"expected,omitempty"`
}

// Tolerances. The program and the benchmark sum and multiply the same
// numbers in different orders, so equal quantities agree to about 1e-15
// relative; 1e-9 leaves room for long sums while still catching any real
// error.
const (
	relTol = 1e-9
	absTol = 1e-12
)

func near(a, b float64) bool {
	return math.Abs(a-b) <= absTol+relTol*math.Max(math.Abs(a), math.Abs(b))
}

// Table is the benchmark's own model of an uploaded table: tuples in
// descending score order, each with the index of its mutual-exclusion
// group (an independent tuple is a group of its own). Add keeps the model
// current as tuples are appended.
type Table struct {
	tuples  []Tuple
	byID    map[string]int
	groupOf []int
	named   map[string]int
	gmass   []float64
	order   []int // tuple indices by descending score
}

// NewTable models the given tuples.
func NewTable(tuples []Tuple) *Table {
	t := &Table{byID: map[string]int{}, named: map[string]int{}}
	for _, tp := range tuples {
		t.order = append(t.order, t.add(tp))
	}
	// Descending score; ties stay in upload order, as Add places them.
	sort.SliceStable(t.order, func(a, b int) bool { return t.tuples[t.order[a]].Score > t.tuples[t.order[b]].Score })
	return t
}

// Add appends tuples to the model.
func (t *Table) Add(tuples ...Tuple) {
	for _, tp := range tuples {
		i := t.add(tp)
		pos := sort.Search(len(t.order), func(j int) bool { return t.tuples[t.order[j]].Score < tp.Score })
		t.order = slices.Insert(t.order, pos, i)
	}
}

// add records tp and its group, and returns its index; the caller places
// it in the score order.
func (t *Table) add(tp Tuple) int {
	i := len(t.tuples)
	t.tuples = append(t.tuples, tp)
	t.byID[tp.ID] = i
	g, ok := t.named[tp.Group]
	if tp.Group == "" || !ok {
		g = len(t.gmass)
		t.gmass = append(t.gmass, 0)
		if tp.Group != "" {
			t.named[tp.Group] = g
		}
	}
	t.groupOf = append(t.groupOf, g)
	t.gmass[g] += tp.Prob
	return i
}

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.tuples) }

// Tuples returns the tuples in upload order.
func (t *Table) Tuples() []Tuple { return t.tuples }

// countDist returns the distribution of the number of present groups,
// truncated at k: entry j < k is Pr(|W| = j), entry k is Pr(|W| ≥ k).
func (t *Table) countDist(k int) []float64 {
	f := make([]float64, k+1)
	f[0] = 1
	for _, m := range t.gmass {
		m = math.Min(m, 1)
		f[k] += f[k-1] * m
		for j := k - 1; j >= 1; j-- {
			f[j] = f[j]*(1-m) + f[j-1]*m
		}
		f[0] *= 1 - m
	}
	return f
}

// AtLeastK returns the probability that at least k tuples co-exist.
func (t *Table) AtLeastK(k int) float64 { return t.countDist(k)[k] }

// ExpectedMinK returns E[min(k, |W|)].
func (t *Table) ExpectedMinK(k int) float64 {
	f := t.countDist(k)
	var e float64
	for j, p := range f {
		e += float64(j) * p
	}
	return e
}

// VectorProb checks that ids name k distinct uploaded tuples breaking no
// mutual-exclusion rule and returns the paper's probability that they form
// a top-k vector: the product of their probabilities times, for every
// group they leave untouched, one minus that group's mass ranked strictly
// above the vector's lowest score.
func (t *Table) VectorProb(ids []string) (float64, error) {
	taken := map[int]bool{}
	prob, bound := 1.0, math.Inf(1)
	for _, id := range ids {
		i, ok := t.byID[id]
		if !ok {
			return 0, fmt.Errorf("vector names unknown tuple %q", id)
		}
		g := t.groupOf[i]
		if taken[g] {
			return 0, fmt.Errorf("vector %v takes two tuples of one exclusive group (or a tuple twice)", ids)
		}
		taken[g] = true
		prob *= t.tuples[i].Prob
		bound = math.Min(bound, t.tuples[i].Score)
	}
	var groups []int
	above := map[int]float64{}
	for _, i := range t.order {
		tp := t.tuples[i]
		if tp.Score <= bound {
			break
		}
		g := t.groupOf[i]
		if taken[g] {
			continue
		}
		if _, ok := above[g]; !ok {
			groups = append(groups, g)
		}
		above[g] += tp.Prob
	}
	for _, g := range groups {
		prob *= math.Max(0, 1-above[g])
	}
	return prob, nil
}

// CheckDist verifies a top-k distribution answer: lines strictly ascending
// in score with positive probabilities, at most maxLines of them (0 means
// uncapped), total mass equal to the sum of the lines and at most the
// probability that k tuples co-exist, and every representative vector a
// valid top-k vector whose reported probability matches the paper's
// formula.
//
// On an uncapped answer every vector's probability is also at most its
// line's: all worlds in which the vector is a top-k vector have the line's
// total score. Under a line cap that is no property of the method: line
// coalescing moves part of a score's mass into a neighbouring line while
// the representative's probability stays exact, so it is not checked
// there.
func CheckDist(t *Table, d Dist, k, maxLines int) error {
	if d.K != k {
		return fmt.Errorf("answer is for k=%d, asked k=%d", d.K, k)
	}
	if maxLines > 0 && len(d.Lines) > maxLines {
		return fmt.Errorf("%d lines exceed the cap of %d", len(d.Lines), maxLines)
	}
	var mass float64
	for i, l := range d.Lines {
		if !(l.Prob > 0) || math.IsInf(l.Prob, 0) || math.IsNaN(l.Score) || math.IsInf(l.Score, 0) {
			return fmt.Errorf("line %d has score %v and probability %v", i, l.Score, l.Prob)
		}
		if i > 0 && !(l.Score > d.Lines[i-1].Score) {
			return fmt.Errorf("line %d score %v does not ascend from %v", i, l.Score, d.Lines[i-1].Score)
		}
		mass += l.Prob
		if err := checkVector(t, l, k, maxLines == 0); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
	}
	if !near(mass, d.TotalMass) {
		return fmt.Errorf("lines sum to %v, totalMass says %v", mass, d.TotalMass)
	}
	if limit := t.AtLeastK(k); d.TotalMass > limit*(1+relTol)+absTol {
		return fmt.Errorf("total mass %v exceeds Pr(%d tuples co-exist) = %v", d.TotalMass, k, limit)
	}
	return nil
}

// checkVector verifies a line's representative vector; bounded also checks
// that the vector is no more probable than its line.
func checkVector(t *Table, l Line, k int, bounded bool) error {
	if len(l.Vector) != k {
		return fmt.Errorf("vector %v has %d tuples, want %d", l.Vector, len(l.Vector), k)
	}
	want, err := t.VectorProb(l.Vector)
	if err != nil {
		return err
	}
	if !near(l.VectorProb, want) {
		return fmt.Errorf("vector %v: vectorProb %v, formula gives %v", l.Vector, l.VectorProb, want)
	}
	if bounded && l.VectorProb > l.Prob*(1+relTol)+absTol {
		return fmt.Errorf("vector %v: vectorProb %v exceeds its line's probability %v", l.Vector, l.VectorProb, l.Prob)
	}
	return nil
}

// ExactDist enumerates the possible worlds of t and returns the exact
// distribution of the top-k total score: score → probability that the k
// highest-scoring tuples of a world sum to it. Worlds with fewer than k
// tuples contribute nothing. Only for small tables: the number of worlds is
// the product of the group sizes (plus one for each group that may be
// empty).
func (t *Table) ExactDist(k int) map[float64]float64 {
	members := make([][]int, len(t.gmass))
	for i, g := range t.groupOf {
		members[g] = append(members[g], i)
	}
	out := map[float64]float64{}
	var scores []float64
	var walk func(g int, p float64)
	walk = func(g int, p float64) {
		if p == 0 {
			return
		}
		if g == len(members) {
			if len(scores) < k {
				return
			}
			top := append([]float64(nil), scores...)
			sort.Sort(sort.Reverse(sort.Float64Slice(top)))
			var s float64
			for _, v := range top[:k] {
				s += v
			}
			out[s] += p
			return
		}
		if rest := 1 - t.gmass[g]; rest > absTol {
			walk(g+1, p*rest)
		}
		for _, i := range members[g] {
			scores = append(scores, t.tuples[i].Score)
			walk(g+1, p*t.tuples[i].Prob)
			scores = scores[:len(scores)-1]
		}
	}
	walk(0, 1)
	return out
}

// CheckExact verifies an exact (unthresholded, uncapped) distribution
// answer against possible-world enumeration. With normalized set the
// enumeration is conditioned on k tuples co-existing.
func CheckExact(t *Table, d Dist, k int, normalized bool) error {
	want := t.ExactDist(k)
	scale := 1.0
	if normalized {
		scale = 1 / t.AtLeastK(k)
	}
	if len(d.Lines) != len(want) {
		return fmt.Errorf("%d lines, enumeration gives %d distinct scores", len(d.Lines), len(want))
	}
	for i, l := range d.Lines {
		p, ok := want[l.Score]
		if !ok {
			return fmt.Errorf("line %d: score %v is no top-%d total of any world", i, l.Score, k)
		}
		if !near(l.Prob, p*scale) {
			return fmt.Errorf("line %d: score %v has probability %v, enumeration gives %v", i, l.Score, l.Prob, p*scale)
		}
		var s float64
		for _, id := range l.Vector {
			if j, ok := t.byID[id]; ok {
				s += t.tuples[j].Score
			}
		}
		if !near(s, l.Score) {
			return fmt.Errorf("line %d: vector %v scores %v, not the line's %v", i, l.Vector, s, l.Score)
		}
	}
	if normalized {
		return nil
	}
	return CheckDist(t, d, k, 0)
}

// TypicalCost returns Σ_b p_b · min_i |s_b − points_i| over the lines of d:
// the expected distance from a top-k score to its nearest typical score,
// weighted by the distribution's (possibly unnormalized) mass.
func TypicalCost(d Dist, points []float64) float64 {
	var cost float64
	for _, l := range d.Lines {
		best := math.Inf(1)
		for _, p := range points {
			best = math.Min(best, math.Abs(l.Score-p))
		}
		cost += l.Prob * best
	}
	return cost
}

// quantilePoints returns the scores at the c evenly spaced quantile levels
// (i − ½)/c of d.
func quantilePoints(d Dist, c int) []float64 {
	var mass float64
	for _, l := range d.Lines {
		mass += l.Prob
	}
	points := make([]float64, 0, c)
	for i := 0; i < c; i++ {
		level := (float64(i) + 0.5) / float64(c) * mass
		var acc float64
		for _, l := range d.Lines {
			acc += l.Prob
			if acc >= level {
				points = append(points, l.Score)
				break
			}
		}
	}
	return points
}

// CheckTypical verifies a c-typical answer against the distribution it was
// selected from: min(c, lines) lines, each a line of the distribution, in
// ascending score order; a reported cost equal to E[min_i |S − s_i|]
// recomputed from the distribution; and a cost no worse than that of c
// evenly spaced quantiles.
func CheckTypical(d Dist, typ Typical, c int) error {
	want := min(c, len(d.Lines))
	if typ.C != c || len(typ.Lines) != want {
		return fmt.Errorf("typical answer has c=%d and %d lines, want c=%d and %d lines", typ.C, len(typ.Lines), c, want)
	}
	byScore := map[float64]Line{}
	for _, l := range d.Lines {
		byScore[l.Score] = l
	}
	points := make([]float64, len(typ.Lines))
	for i, l := range typ.Lines {
		dl, ok := byScore[l.Score]
		if !ok {
			return fmt.Errorf("typical score %v is not a line of the distribution", l.Score)
		}
		if !near(dl.Prob, l.Prob) || !near(dl.VectorProb, l.VectorProb) {
			return fmt.Errorf("typical line at %v differs from the distribution's line", l.Score)
		}
		if i > 0 && !(l.Score > points[i-1]) {
			return fmt.Errorf("typical scores do not ascend at %v", l.Score)
		}
		points[i] = l.Score
	}
	cost := TypicalCost(d, points)
	if !near(cost, typ.Cost) {
		return fmt.Errorf("reported cost %v, recomputed E[min|S-p|] is %v", typ.Cost, cost)
	}
	if q := TypicalCost(d, quantilePoints(d, c)); typ.Cost > q*(1+relTol)+absTol {
		return fmt.Errorf("cost %v is worse than %d evenly spaced quantiles (%v)", typ.Cost, c, q)
	}
	return nil
}

// CheckInTopK verifies in-top-k probabilities: one row per tuple, each at
// most the tuple's own probability, summing to E[min(k, |W|)].
func CheckInTopK(t *Table, b Baseline, k int) error {
	if b.K != k || len(b.Tuples) != t.Len() {
		return fmt.Errorf("intopk answer has k=%d and %d rows, want k=%d and %d rows", b.K, len(b.Tuples), k, t.Len())
	}
	seen := map[string]bool{}
	var sum float64
	for _, r := range b.Tuples {
		i, ok := t.byID[r.ID]
		if !ok || seen[r.ID] {
			return fmt.Errorf("intopk row %q is unknown or repeated", r.ID)
		}
		seen[r.ID] = true
		if r.InTopK < 0 || r.InTopK > t.tuples[i].Prob*(1+relTol)+absTol {
			return fmt.Errorf("intopk of %q is %v, outside [0, %v]", r.ID, r.InTopK, t.tuples[i].Prob)
		}
		sum += r.InTopK
	}
	if want := t.ExpectedMinK(k); !near(sum, want) {
		return fmt.Errorf("in-top-%d probabilities sum to %v, E[min(k,|W|)] is %v", k, sum, want)
	}
	return nil
}

// agreeing maps each in-top-k row by id.
func agreeing(in Baseline) map[string]float64 {
	m := make(map[string]float64, len(in.Tuples))
	for _, r := range in.Tuples {
		m[r.ID] = r.InTopK
	}
	return m
}

// CheckPTk verifies a PT-k answer against the in-top-k probabilities of
// the same table and k: exactly the tuples whose probability reaches p
// (values within tolerance of p may go either way), with the same
// probabilities.
func CheckPTk(in, ptk Baseline, p float64) error {
	probs := agreeing(in)
	got := map[string]bool{}
	for _, r := range ptk.Tuples {
		want, ok := probs[r.ID]
		if !ok || !near(r.InTopK, want) {
			return fmt.Errorf("ptk row %q has inTopK %v, intopk gives %v", r.ID, r.InTopK, want)
		}
		if want < p*(1-relTol)-absTol {
			return fmt.Errorf("ptk returned %q with probability %v below p=%v", r.ID, want, p)
		}
		got[r.ID] = true
	}
	for id, v := range probs {
		if v > p*(1+relTol)+absTol && !got[id] {
			return fmt.Errorf("ptk misses %q with probability %v above p=%v", id, v, p)
		}
	}
	return nil
}

// CheckGlobalTopK verifies a Global-topk answer against the in-top-k
// probabilities: min(k, n) tuples, none less probable than any tuple left
// out, with the same probabilities.
func CheckGlobalTopK(in, g Baseline, k int) error {
	probs := agreeing(in)
	if len(g.Tuples) != min(k, len(probs)) {
		return fmt.Errorf("globaltopk returned %d tuples, want %d", len(g.Tuples), min(k, len(probs)))
	}
	got := map[string]bool{}
	lowest := math.Inf(1)
	for _, r := range g.Tuples {
		want, ok := probs[r.ID]
		if !ok || !near(r.InTopK, want) || got[r.ID] {
			return fmt.Errorf("globaltopk row %q has inTopK %v, intopk gives %v", r.ID, r.InTopK, want)
		}
		got[r.ID] = true
		lowest = math.Min(lowest, want)
	}
	for id, v := range probs {
		if !got[id] && v > lowest*(1+relTol)+absTol {
			return fmt.Errorf("globaltopk left out %q (%v) but kept a tuple of %v", id, v, lowest)
		}
	}
	return nil
}

// CheckExpectedRank verifies an expected-rank answer: min(k, n) distinct
// uploaded tuples in non-decreasing expected rank, each rank within
// [0, n).
func CheckExpectedRank(t *Table, b Baseline, k int) error {
	if len(b.Expected) != min(k, t.Len()) {
		return fmt.Errorf("expectedrank returned %d rows, want %d", len(b.Expected), min(k, t.Len()))
	}
	seen := map[string]bool{}
	for i, r := range b.Expected {
		if _, ok := t.byID[r.ID]; !ok || seen[r.ID] {
			return fmt.Errorf("expectedrank row %q is unknown or repeated", r.ID)
		}
		seen[r.ID] = true
		if r.Rank < 0 || r.Rank >= float64(t.Len()) || (i > 0 && r.Rank < b.Expected[i-1].Rank) {
			return fmt.Errorf("expectedrank row %d has rank %v out of order or range", i, r.Rank)
		}
	}
	return nil
}

// CheckUKRanks verifies a U-kRanks answer: ranks 1..k, each naming an
// uploaded tuple with a probability in (0, its own probability], or no
// tuple at all with probability 0.
func CheckUKRanks(t *Table, b Baseline, k int) error {
	if len(b.Ranks) != k {
		return fmt.Errorf("ukranks returned %d rows, want %d", len(b.Ranks), k)
	}
	for i, r := range b.Ranks {
		if r.Rank != i+1 {
			return fmt.Errorf("ukranks row %d has rank %d", i, r.Rank)
		}
		if r.ID == "" {
			if r.Prob != 0 {
				return fmt.Errorf("ukranks rank %d has no tuple but probability %v", r.Rank, r.Prob)
			}
			continue
		}
		j, ok := t.byID[r.ID]
		if !ok || !(r.Prob > 0) || r.Prob > t.tuples[j].Prob*(1+relTol)+absTol {
			return fmt.Errorf("ukranks rank %d names %q with probability %v", r.Rank, r.ID, r.Prob)
		}
	}
	return nil
}

// CheckUTopK verifies a U-Topk answer: a valid top-k vector whose
// probability matches the formula. With exhaustive set, it also checks that
// no other k-subset of the table is more probable (only for small tables).
func CheckUTopK(t *Table, b Baseline, k int, exhaustive bool) error {
	if b.Line == nil {
		return fmt.Errorf("utopk answer has no line")
	}
	if err := checkVector(t, *b.Line, k, true); err != nil {
		return err
	}
	if !exhaustive {
		return nil
	}
	ids := make([]string, 0, k)
	var best float64
	var walk func(from int)
	walk = func(from int) {
		if len(ids) == k {
			if p, err := t.VectorProb(ids); err == nil && p > best {
				best = p
			}
			return
		}
		for i := from; i < len(t.tuples); i++ {
			ids = append(ids, t.tuples[i].ID)
			walk(i + 1)
			ids = ids[:len(ids)-1]
		}
	}
	walk(0)
	if !near(best, b.Line.VectorProb) {
		return fmt.Errorf("utopk vector has probability %v, the most probable vector has %v", b.Line.VectorProb, best)
	}
	return nil
}

// SameDist reports whether two distribution answers are identical.
func SameDist(a, b Dist) error {
	if a.K != b.K || a.ScanDepth != b.ScanDepth || a.TotalMass != b.TotalMass || len(a.Lines) != len(b.Lines) {
		return fmt.Errorf("answers differ: k %d/%d, scanDepth %d/%d, mass %v/%v, %d/%d lines",
			a.K, b.K, a.ScanDepth, b.ScanDepth, a.TotalMass, b.TotalMass, len(a.Lines), len(b.Lines))
	}
	for i := range a.Lines {
		x, y := a.Lines[i], b.Lines[i]
		if x.Score != y.Score || x.Prob != y.Prob || x.VectorProb != y.VectorProb || fmt.Sprint(x.Vector) != fmt.Sprint(y.Vector) {
			return fmt.Errorf("line %d differs: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// ParseCSV decodes a table download (header id,score,prob,group).
func ParseCSV(data []byte) ([]Tuple, error) {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table csv: %w", err)
	}
	if len(rows) == 0 || fmt.Sprint(rows[0]) != "[id score prob group]" {
		return nil, fmt.Errorf("table csv: missing id,score,prob,group header")
	}
	out := make([]Tuple, 0, len(rows)-1)
	for _, r := range rows[1:] {
		if len(r) != 4 {
			return nil, fmt.Errorf("table csv: row %v has %d fields", r, len(r))
		}
		score, err1 := strconv.ParseFloat(r[1], 64)
		prob, err2 := strconv.ParseFloat(r[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("table csv: bad number in row %v", r)
		}
		out = append(out, Tuple{ID: r[0], Score: score, Prob: prob, Group: r[3]})
	}
	return out, nil
}

// SameTuples verifies that got holds exactly the tuples of want, in the
// same order and with bit-identical values.
func SameTuples(want, got []Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, the ledger holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("tuple %d is %+v, the ledger says %+v", i, got[i], want[i])
		}
	}
	return nil
}
