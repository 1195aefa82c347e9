// Dynamic prepared index: a fully dynamic counterpart to Prepared.
//
// Index maintains the canonical §3.4 order (descending score, descending
// probability, remaining ties by insertion sequence) in a persistent
// order-statistic treap whose nodes carry subtree aggregates (tuple count and
// probability mass), so Insert/Delete/Update touch O(log n) nodes and
// cumProb-style prefix sums are answered in O(log n) straight from the tree.
// Per-ME-group sub-treaps over the same order replace the flat groupCum
// partial sums: GroupMass is O(1) off the sub-treap root and PrefixMass is
// O(log n + log g). Tie-group ranges are answered by two rank-by-score
// descents instead of a stored tieStart/tieEnd table.
//
// The tree is persistent (path-copying): mutations never modify reachable
// nodes, so Freeze can publish the current root as an immutable IndexView in
// O(1) and the owner can keep mutating while any number of goroutines read
// the frozen view. Materialize mints the flat *Prepared form the existing DP
// and query paths consume, reusing the unchanged rank prefix through
// PrepareSorted (the batch/oracle path) so the result is bit-identical to a
// from-scratch Prepare of the same contents; while the index is unchanged the
// same *Prepared pointer is returned, preserving its memoized §3.3.3 unit
// decomposition across queries.
package uncertain

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// inode is one persistent treap node. Nodes reachable from a published root
// are never mutated; structural changes path-copy O(log n) nodes.
type inode struct {
	t           Tuple
	seq         uint64
	prio        uint64
	left, right *inode
	// size and mass aggregate the subtree rooted here: tuple count and total
	// probability. They give O(log n) order statistics and prefix masses.
	size int
	mass float64
}

func sz(n *inode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func ms(n *inode) float64 {
	if n == nil {
		return 0
	}
	return n.mass
}

// mk returns a fresh copy of n with the given children and recomputed
// aggregates — the single path-copying constructor all structural ops share.
func mk(n *inode, l, r *inode) *inode {
	return &inode{
		t: n.t, seq: n.seq, prio: n.prio,
		left: l, right: r,
		size: 1 + sz(l) + sz(r),
		mass: n.t.Prob + ms(l) + ms(r),
	}
}

// canonLess reports whether (a, aSeq) precedes (b, bSeq) in the canonical
// prepared order: descending score, then descending probability, then
// insertion sequence. Sequences are unique, so the order is total and
// identical to Prepare's stable sort of the arrival-order table.
func canonLess(a Tuple, aSeq uint64, b Tuple, bSeq uint64) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return aSeq < bSeq
}

// splitmix64 derives a node's heap priority deterministically from its
// sequence number, so a given mutation history always builds the same tree
// shape (reproducible tests and benchmarks, no global RNG state).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// split partitions n into (before, rest) around the key (t, seq): before
// holds all nodes strictly preceding it, rest the others. Path-copies the
// split path.
func split(n *inode, t Tuple, seq uint64) (before, rest *inode) {
	if n == nil {
		return nil, nil
	}
	if canonLess(n.t, n.seq, t, seq) {
		rl, rr := split(n.right, t, seq)
		return mk(n, n.left, rl), rr
	}
	ll, lr := split(n.left, t, seq)
	return ll, mk(n, lr, n.right)
}

// merge joins two treaps where every key of l precedes every key of r.
func merge(l, r *inode) *inode {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio >= r.prio {
		return mk(l, l.left, merge(l.right, r))
	}
	return mk(r, merge(l, r.left), r.right)
}

// detachMin removes n's leftmost node, returning it and the remainder.
func detachMin(n *inode) (min *inode, rest *inode) {
	if n.left == nil {
		return n, n.right
	}
	m, rl := detachMin(n.left)
	return m, mk(n, rl, n.right)
}

// treapInsert adds a node with the given key, returning the new root and the
// rank (number of preceding tuples) at which it landed.
func treapInsert(root *inode, t Tuple, seq uint64) (*inode, int) {
	l, r := split(root, t, seq)
	nd := &inode{t: t, seq: seq, prio: splitmix64(seq), size: 1, mass: t.Prob}
	return merge(merge(l, nd), r), sz(l)
}

// treapDelete removes the node with the given key (which must exist),
// returning the new root and the rank it occupied.
func treapDelete(root *inode, t Tuple, seq uint64) (*inode, int) {
	l, r := split(root, t, seq)
	_, rest := detachMin(r)
	return merge(l, rest), sz(l)
}

// nodeAt returns the node at rank pos (0-based, canonical order).
func nodeAt(n *inode, pos int) *inode {
	for {
		ls := sz(n.left)
		switch {
		case pos < ls:
			n = n.left
		case pos == ls:
			return n
		default:
			pos -= ls + 1
			n = n.right
		}
	}
}

// treePrefixMass returns the total probability of the tuples at ranks < pos.
func treePrefixMass(n *inode, pos int) float64 {
	var m float64
	for n != nil && pos > 0 {
		ls := sz(n.left)
		if pos <= ls {
			n = n.left
			continue
		}
		m += ms(n.left) + n.t.Prob
		pos -= ls + 1
		n = n.right
	}
	return m
}

// massBefore returns the total probability of nodes whose key strictly
// precedes (t, seq).
func massBefore(n *inode, t Tuple, seq uint64) float64 {
	var m float64
	for n != nil {
		if canonLess(n.t, n.seq, t, seq) {
			m += ms(n.left) + n.t.Prob
			n = n.right
		} else {
			n = n.left
		}
	}
	return m
}

// countScore returns the number of nodes with score > s, or ≥ s when orEqual
// is set. Scores descend in the canonical order, so both are single descents.
func countScore(n *inode, s float64, orEqual bool) int {
	c := 0
	for n != nil {
		if n.t.Score > s || (orEqual && n.t.Score == s) {
			c += sz(n.left) + 1
			n = n.right
		} else {
			n = n.left
		}
	}
	return c
}

// appendNodes appends n's tuples in canonical order.
func appendNodes(n *inode, buf []Tuple) []Tuple {
	if n == nil {
		return buf
	}
	buf = appendNodes(n.left, buf)
	buf = append(buf, n.t)
	return appendNodes(n.right, buf)
}

// appendFrom appends the tuples at ranks ≥ skip in canonical order, using
// subtree sizes to step over the untouched prefix.
func appendFrom(n *inode, skip int, buf []Tuple) []Tuple {
	if n == nil {
		return buf
	}
	if skip <= 0 {
		return appendNodes(n, buf)
	}
	ls := sz(n.left)
	switch {
	case skip < ls:
		buf = appendFrom(n.left, skip, buf)
		buf = append(buf, n.t)
		return appendNodes(n.right, buf)
	case skip == ls:
		buf = append(buf, n.t)
		return appendNodes(n.right, buf)
	default:
		return appendFrom(n.right, skip-ls-1, buf)
	}
}

// appendFirst appends the first count tuples in canonical order, stepping
// over the rest: O(count + log n).
func appendFirst(n *inode, count int, buf []Tuple) []Tuple {
	if n == nil || count <= 0 {
		return buf
	}
	ls := sz(n.left)
	if count <= ls {
		return appendFirst(n.left, count, buf)
	}
	buf = appendNodes(n.left, buf)
	buf = append(buf, n.t)
	return appendFirst(n.right, count-ls-1, buf)
}

// rankReaching returns the first rank whose prefix mass — the total
// probability of the ranks above it — reaches target, if such a rank
// exists.
func rankReaching(n *inode, target float64) (int, bool) {
	total := sz(n)
	rank := 0
	var m float64
	for m < target {
		if n == nil {
			return 0, false
		}
		if m+ms(n.left) >= target {
			n = n.left
			continue
		}
		m += ms(n.left) + n.t.Prob
		rank += sz(n.left) + 1
		n = n.right
	}
	return rank, rank < total
}

// IndexStats counts how an Index's mutations and materializations resolved,
// for observability of the dynamic-index win in production.
type IndexStats struct {
	// Mutations is the number of Insert/Delete/Update calls (an Update counts
	// once), each costing O(log n) structural work.
	Mutations uint64
	// MemoHits is the number of Materialize calls that returned the memoized
	// *Prepared without any rebuild (index unchanged since the last one).
	MemoHits uint64
	// SuffixMaterializations is the number of materializations that had a
	// previous Prepared to reuse, re-deriving only the rank suffix below the
	// first changed position (possibly all of it, when rank 0 changed).
	SuffixMaterializations uint64
	// FullMaterializations is the number of materializations from scratch
	// (no previous Prepared — the first successful build).
	FullMaterializations uint64
	// ViewMaterializations is the number of frozen IndexViews that
	// materialized their own Prepared (view published before the owner
	// materialized). Tracked in the process-wide totals only.
	ViewMaterializations uint64
	// PrefixMaterializations is the number of rank prefixes frozen views
	// built for thresholded scans instead of the whole Prepared form (see
	// IndexView.MaterializePrefix). Tracked in the process-wide totals only.
	PrefixMaterializations uint64
	// ViewPrepares is the number of snapshots whose memoized Prepare was
	// served by their attached view instead of a from-scratch sort: at most
	// one per snapshot. Tracked in the process-wide totals only.
	ViewPrepares uint64
}

// indexTotals aggregates IndexStats across every Index in the process, so
// serving layers can surface the counters without tracking index ownership.
var indexTotals struct {
	mutations, memoHits, suffixMat, fullMat, viewMat, prefixMat, viewPrepares atomic.Uint64
}

// IndexTotals returns the process-wide IndexStats aggregated over all
// indexes (and their frozen views).
func IndexTotals() IndexStats {
	return IndexStats{
		Mutations:              indexTotals.mutations.Load(),
		MemoHits:               indexTotals.memoHits.Load(),
		SuffixMaterializations: indexTotals.suffixMat.Load(),
		FullMaterializations:   indexTotals.fullMat.Load(),
		ViewMaterializations:   indexTotals.viewMat.Load(),
		PrefixMaterializations: indexTotals.prefixMat.Load(),
		ViewPrepares:           indexTotals.viewPrepares.Load(),
	}
}

// Index is a fully dynamic counterpart to Prepared: it maintains the
// canonical §3.4 rank order under Insert, Delete and Update in O(log n)
// structural work per mutation, wherever in the rank order the change lands.
// Order statistics (At, PrefixProbability, GroupMass, PrefixMass, TieGroup)
// are answered from subtree aggregates in O(log n) without materializing
// anything; Materialize lazily mints the flat *Prepared form for the DP and
// memoizes it while the index is unchanged.
//
// Group-mass validation follows the sliding window's semantics: Insert is
// permissive, and a group whose total probability exceeds 1 surfaces as an
// error at Materialize time, healing when members are deleted.
//
// An Index is single-owner (not safe for concurrent use); Freeze publishes
// an immutable IndexView that is.
type Index struct {
	root   *inode
	groups map[string]*inode
	bySeq  map[uint64]Tuple
	seq    uint64
	gen    uint64

	// prep memoizes the last successful Materialize; dirtyFrom is the lowest
	// rank touched since then (-1 = clean, so prep is current). buf holds
	// the canonical-order tuples of the last materialization attempt
	// (bufValid reports whether it still describes a past state of this
	// index, so its unchanged prefix can be reused instead of re-walked).
	prep      *Prepared
	prepGen   uint64
	dirtyFrom int
	buf       []Tuple
	bufValid  bool

	// frozen memoizes Freeze while the index is unchanged, so an idle index
	// keeps publishing one view identity (and downstream caches keep
	// hitting). lastView is the most recent view ever frozen, and
	// dirtySinceView the lowest rank touched since it — if a downstream
	// consumer (the engine) materializes that view, the owner adopts the
	// result as its own memo basis, so serving layers that never call the
	// owner's Materialize still get suffix reuse across mutations.
	frozen         *IndexView
	lastView       *IndexView
	dirtySinceView int

	// unbounded counts the groups whose mass provablyBounded cannot vouch
	// for; while it is zero, frozen views may serve rank prefixes.
	unbounded int

	stats IndexStats
}

// NewIndex returns an empty dynamic index.
func NewIndex() *Index {
	return &Index{
		groups:         make(map[string]*inode),
		bySeq:          make(map[uint64]Tuple),
		dirtyFrom:      -1,
		dirtySinceView: -1,
	}
}

// NewIndexOf builds an index over the given tuples in insertion order,
// validating each as Insert does.
func NewIndexOf(tuples []Tuple) (*Index, error) {
	ix := NewIndex()
	for _, t := range tuples {
		if _, err := ix.Insert(t); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Len returns the number of tuples in the index.
func (ix *Index) Len() int { return sz(ix.root) }

// Gen returns a counter that changes on every mutation; together with the
// index's identity it keys caches of materialized state.
func (ix *Index) Gen() uint64 { return ix.gen }

// Stats returns the index's maintenance counters. ViewMaterializations and
// PrefixMaterializations are always 0 here: views outlive their owner and
// report to the process-wide IndexTotals instead.
func (ix *Index) Stats() IndexStats { return ix.stats }

// markDirty records that ranks at or beyond pos changed.
func (ix *Index) markDirty(pos int) {
	if ix.dirtyFrom < 0 || pos < ix.dirtyFrom {
		ix.dirtyFrom = pos
	}
}

func (ix *Index) mutated(rank int) {
	ix.markDirty(rank)
	if ix.lastView != nil && (ix.dirtySinceView < 0 || rank < ix.dirtySinceView) {
		ix.dirtySinceView = rank
	}
	ix.gen++
	ix.frozen = nil
	ix.stats.Mutations++
	indexTotals.mutations.Add(1)
}

// Insert adds a tuple, returning the sequence number that identifies it for
// later Delete/Update. The tuple is validated on entry (finite score,
// probability in (0, 1]); group-mass validation is deferred to Materialize,
// matching the sliding window's in-window semantics.
func (ix *Index) Insert(t Tuple) (seq uint64, err error) {
	if err := CheckTuple(t); err != nil {
		return 0, fmt.Errorf("uncertain: %w", err)
	}
	ix.seq++
	seq = ix.seq
	rank, err := ix.insert(t, seq)
	if err != nil {
		return 0, err
	}
	ix.mutated(rank)
	return seq, nil
}

// insert is the raw insertion shared by Insert and Update; it returns the
// rank the tuple landed at. A sequence number already present is refused
// before either treap is touched: inserting a second node under the same
// seq would leave bySeq pointing at only one of them, so a later
// Delete/Update would strand the other — from then on the main and group
// treaps disagree with bySeq and every group aggregate built from them is
// silently wrong. No caller can hit this today (Insert mints fresh seqs,
// Update removes the seq first), so the guard is cheap insurance against a
// future caller that replays external seqs.
func (ix *Index) insert(t Tuple, seq uint64) (int, error) {
	if _, dup := ix.bySeq[seq]; dup {
		return 0, fmt.Errorf("uncertain: index already has a tuple with sequence %d", seq)
	}
	var rank int
	ix.root, rank = treapInsert(ix.root, t, seq)
	if t.Group != "" {
		g, _ := treapInsert(ix.groups[t.Group], t, seq)
		ix.setGroup(t.Group, g)
	}
	ix.bySeq[seq] = t
	return rank, nil
}

// Delete removes the tuple with the given sequence number, reporting whether
// it was present.
func (ix *Index) Delete(seq uint64) (Tuple, bool) {
	t, ok := ix.bySeq[seq]
	if !ok {
		return Tuple{}, false
	}
	rank := ix.remove(t, seq)
	ix.mutated(rank)
	return t, true
}

// remove is the raw removal shared by Delete and Update; it returns the rank
// the tuple occupied.
func (ix *Index) remove(t Tuple, seq uint64) int {
	var rank int
	ix.root, rank = treapDelete(ix.root, t, seq)
	if t.Group != "" {
		g, _ := treapDelete(ix.groups[t.Group], t, seq)
		ix.setGroup(t.Group, g)
	}
	delete(ix.bySeq, seq)
	return rank
}

// setGroup installs root as the named group's sub-treap (nil drops the
// group), keeping the count of groups not provably within the mass bound.
func (ix *Index) setGroup(group string, root *inode) {
	if old := ix.groups[group]; old != nil && !provablyBounded(old) {
		ix.unbounded--
	}
	if root == nil {
		delete(ix.groups, group)
		return
	}
	ix.groups[group] = root
	if !provablyBounded(root) {
		ix.unbounded++
	}
}

// provablyBounded reports whether a group's probabilities sum to at most
// 1+probSumTolerance in every summation order, so that validateSorted can
// never reject it. The sub-treap's aggregate sums in tree order; any two
// orders of g non-negative terms differ by less than g·2⁻⁵¹ of their sum,
// which the margin covers with room to spare.
func provablyBounded(group *inode) bool {
	return ms(group)*(1+float64(sz(group))*0x1p-49) <= 1+probSumTolerance
}

// Update replaces the tuple identified by seq with t, keeping its sequence
// number (and therefore its position among exact canonical ties). It costs
// one delete plus one insert — O(log n) — and counts as one mutation.
func (ix *Index) Update(seq uint64, t Tuple) error {
	old, ok := ix.bySeq[seq]
	if !ok {
		return fmt.Errorf("uncertain: index has no tuple with sequence %d", seq)
	}
	if err := CheckTuple(t); err != nil {
		return fmt.Errorf("uncertain: %w", err)
	}
	oldRank := ix.remove(old, seq)
	newRank, err := ix.insert(t, seq)
	if err != nil {
		// Unreachable: the seq was removed the line above. Reinstate the
		// old tuple rather than lose it to a partial update.
		ix.insert(old, seq)
		return err
	}
	if newRank < oldRank {
		oldRank = newRank
	}
	ix.mutated(oldRank)
	return nil
}

// Get returns the tuple identified by seq.
func (ix *Index) Get(seq uint64) (Tuple, bool) {
	t, ok := ix.bySeq[seq]
	return t, ok
}

// At returns the tuple at rank pos in the canonical order, in O(log n).
func (ix *Index) At(pos int) Tuple { return nodeAt(ix.root, pos).t }

// PrefixProbability returns the total probability of the tuples at ranks
// strictly less than pos — Prepared.PrefixProbability answered from subtree
// aggregates in O(log n), with no materialization.
func (ix *Index) PrefixProbability(pos int) float64 {
	if pos > sz(ix.root) {
		pos = sz(ix.root)
	}
	return treePrefixMass(ix.root, pos)
}

// GroupMass returns the total in-index probability of the named ME group, in
// O(1) from the group sub-treap's root aggregate.
func (ix *Index) GroupMass(group string) float64 { return ms(ix.groups[group]) }

// PrefixMass returns the total probability of the named group's members at
// ranks strictly less than pos — Prepared.PrefixMass answered dynamically in
// O(log n + log g).
func (ix *Index) PrefixMass(group string, pos int) float64 {
	g := ix.groups[group]
	if g == nil {
		return 0
	}
	if pos >= sz(ix.root) {
		return ms(g)
	}
	nd := nodeAt(ix.root, pos)
	return massBefore(g, nd.t, nd.seq)
}

// TieGroup returns the half-open rank range [start, end) of the tie group
// (§2.3, equal scores) containing rank pos, in O(log n) via two
// rank-by-score descents.
func (ix *Index) TieGroup(pos int) (start, end int) {
	s := nodeAt(ix.root, pos).t.Score
	return countScore(ix.root, s, false), countScore(ix.root, s, true)
}

// Tuples returns the index contents in canonical rank order.
func (ix *Index) Tuples() []Tuple {
	return appendNodes(ix.root, make([]Tuple, 0, sz(ix.root)))
}

// Materialize mints the flat *Prepared form of the current contents,
// bit-identical to a from-scratch Prepare of the same tuples. The result is
// memoized: while the index is unchanged every call returns the same
// *Prepared pointer, so its sync.Once unit-decomposition memo keeps paying
// off across queries. After mutations, only the rank suffix below the first
// changed position is re-derived (PrepareSorted's suffix re-prepare);
// group-mass validation runs on every rebuild, so an overfull ME group
// surfaces here and the memo stays dirty until the contents are fixed.
func (ix *Index) Materialize() (*Prepared, error) {
	if sz(ix.root) == 0 {
		return nil, ErrEmptyTable
	}
	ix.adopt()
	if ix.prep != nil && ix.dirtyFrom < 0 {
		ix.stats.MemoHits++
		indexTotals.memoHits.Add(1)
		return ix.prep, nil
	}
	from := ix.dirtyFrom
	if ix.prep == nil || from < 0 {
		from = 0
	}
	walk := from
	if !ix.bufValid || walk > len(ix.buf) {
		walk = 0
	}
	ix.buf = appendFrom(ix.root, walk, ix.buf[:walk])
	ix.bufValid = true
	prep, err := PrepareSorted(ix.buf, ix.prep, from)
	if err != nil {
		// Stay dirty: dirtyFrom still bounds every change since ix.prep was
		// built, so a later attempt (after the contents heal) can still
		// reuse the prefix.
		return nil, err
	}
	if ix.prep != nil {
		ix.stats.SuffixMaterializations++
		indexTotals.suffixMat.Add(1)
	} else {
		ix.stats.FullMaterializations++
		indexTotals.fullMat.Add(1)
	}
	ix.prep = prep
	ix.prepGen = ix.gen
	ix.dirtyFrom = -1
	return prep, nil
}

// Freeze publishes the current contents as an immutable IndexView. The tree
// is persistent, so this is O(1): the view captures the current root and the
// owner's future mutations path-copy around it. An unchanged index returns
// the same view on every call; if the index was materialized and unchanged,
// the view carries that same *Prepared outright, so downstream consumers
// share the memo with the owner.
func (ix *Index) Freeze() *IndexView {
	if ix.frozen != nil {
		return ix.frozen
	}
	ix.adopt()
	v := &IndexView{n: sz(ix.root), gen: ix.gen, bounded: ix.unbounded == 0}
	if ix.prep != nil && ix.dirtyFrom < 0 {
		v.prep = ix.prep
	} else {
		v.root = ix.root
		if ix.prep != nil && ix.dirtyFrom >= 0 {
			v.hintPrep = ix.prep
			v.hintFrom = ix.dirtyFrom
		}
	}
	ix.frozen = v
	ix.lastView = v
	ix.dirtySinceView = -1
	return v
}

// adopt pulls a materialization performed by the last frozen view back into
// the owner's memo. Serving layers hand frozen views to a query engine that
// materializes them lazily; without adoption the owner would never see those
// Prepared forms, and every successive view would rebuild from an ever-staler
// hint. Adoption happens whenever the view's result is a strictly fresher
// rebuild basis (fewer ranks to re-derive) than the owner's own memo, which
// restores suffix reuse across mutations for owners that never call
// Materialize themselves.
func (ix *Index) adopt() {
	v := ix.lastView
	if v == nil {
		return
	}
	p := v.Ready()
	if p == nil || p == ix.prep {
		return
	}
	if ix.prep != nil && v.gen <= ix.prepGen {
		return // memo built at (or after) the view's generation — no fresher
	}
	ix.prep = p
	ix.prepGen = v.gen
	ix.dirtyFrom = ix.dirtySinceView
	// buf was filled against the old basis; its prefix no longer matches.
	ix.bufValid = false
}

// IndexView is an immutable frozen version of an Index: a published treap
// root (never mutated thereafter — the owner path-copies) plus a lazily
// materialized Prepared. Safe for concurrent use.
type IndexView struct {
	root *inode
	n    int
	gen  uint64
	// bounded reports that every ME group was provably within its mass
	// bound at freeze time, which MaterializePrefix needs: a prefix cannot
	// see the members that would make a group overfull.
	bounded bool
	// prefix memoizes the longest rank prefix MaterializePrefix has built.
	prefix atomic.Pointer[Prepared]

	// hintPrep/hintFrom carry the owner's last materialized Prepared and the
	// first rank that has changed since, so the view's own materialization
	// can reuse the unchanged prefix.
	hintPrep *Prepared
	hintFrom int

	once sync.Once
	done atomic.Bool
	prep *Prepared
	err  error
}

// Len returns the number of tuples in the frozen contents.
func (v *IndexView) Len() int { return v.n }

// Gen returns the owning index's generation at freeze time; (index identity,
// generation) keys caches of materialized state.
func (v *IndexView) Gen() uint64 { return v.gen }

// Materialize returns the Prepared form of the frozen contents, computing it
// at most once (errors included — the contents are immutable, so a failed
// validation is equally permanent). If the owner had already materialized
// the same generation, the owner's *Prepared is returned without any work.
func (v *IndexView) Materialize() (*Prepared, error) {
	if v.root == nil {
		// Pre-resolved at Freeze from the owner's memo.
		if v.prep == nil {
			return nil, ErrEmptyTable
		}
		return v.prep, nil
	}
	v.once.Do(func() {
		buf := appendNodes(v.root, make([]Tuple, 0, v.n))
		v.prep, v.err = PrepareSorted(buf, v.hintPrep, v.hintFrom)
		if v.err == nil {
			indexTotals.viewMat.Add(1)
		}
		v.done.Store(true)
	})
	return v.prep, v.err
}

// MaterializePrefix returns a Prepared form for a Theorem-2 scan that stops
// once μ reaches bound (core.Bound): the shortest rank prefix that reaches
// prefix mass bound+1+probSumTolerance at some rank i* and ends with i*'s
// tie group. μ at i* is at least that prefix mass minus the mass of i*'s
// group, which is at most 1+probSumTolerance, so the scan stops by i*. If
// the view has already materialized its whole form, that is returned
// instead. nil means no prefix can serve the scan — a group not provably
// within its mass bound (the whole form must report it), too little mass,
// or a prefix spanning the whole table — and the caller needs Materialize.
//
// Over its ranks the prefix has the whole form's positions, group ids, lead
// flags, prefix sums, group prefix masses and tie ranges, since each
// depends only on the ranks above. i* is found from tree aggregates, whose
// sums may differ from the scan's running sums in the last bits, so callers
// must confirm that the stop falls strictly inside the prefix before using
// it (core.StopRank).
//
// A prefix of D ranks costs O(D + log n). It is memoized on the view, and a
// longer memoized prefix is reused.
func (v *IndexView) MaterializePrefix(bound float64) *Prepared {
	if p := v.Ready(); p != nil {
		return p
	}
	if v.root == nil || !v.bounded {
		return nil
	}
	last, ok := rankReaching(v.root, bound+1+probSumTolerance)
	if !ok {
		return nil
	}
	d := countScore(v.root, nodeAt(v.root, last).t.Score, true)
	if d >= v.n {
		return nil
	}
	if p := v.prefix.Load(); p != nil && p.Len() >= d {
		return p
	}
	p, err := PrepareSorted(appendFirst(v.root, d, make([]Tuple, 0, d)), nil, 0)
	if err != nil {
		return nil
	}
	indexTotals.prefixMat.Add(1)
	for {
		cur := v.prefix.Load()
		if cur != nil && cur.Len() >= d {
			return cur
		}
		if v.prefix.CompareAndSwap(cur, p) {
			return p
		}
	}
}

// Ready returns the view's Prepared form if Materialize has already completed
// successfully, without triggering materialization; nil otherwise. The owning
// index uses it to adopt a view's work back into its own memo.
func (v *IndexView) Ready() *Prepared {
	if v.root == nil {
		return v.prep // pre-resolved at Freeze (nil for an empty index)
	}
	if v.done.Load() && v.err == nil {
		return v.prep
	}
	return nil
}
