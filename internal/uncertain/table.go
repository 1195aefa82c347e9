// Package uncertain implements the tuple-level uncertain data model of the
// probabilistic database literature, as used by the paper (§2.1): an
// uncertain table is a set of tuples, each with a membership probability, and
// a set of mutual-exclusion (ME) rules. Each rule names an ME group, at most
// one tuple of which may appear in a possible world; the probabilities within
// a group sum to at most 1, and groups are independent of each other.
//
// The package also provides the derived structure the paper's algorithms
// need: the (score, probability)-descending sort order of §3.4, tie groups
// (§2.3), lead tuples and lead-tuple regions (§3.3.3), and the per-group
// prefix probability masses used by the exact StateExpansion baseline.
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// probSumTolerance is the slack allowed when validating that an ME group's
// probabilities sum to at most 1, to absorb floating-point noise in
// generated datasets.
const probSumTolerance = 1e-9

// Tuple is one uncertain tuple: an identifier, a ranking score, a membership
// probability, and an optional ME group key ("" means the tuple is alone in
// its own group, i.e. independent).
type Tuple struct {
	ID    string
	Score float64
	Prob  float64
	Group string
}

// Table is an uncertain table: an ordered collection of tuples plus the ME
// rules implied by their Group keys. The zero value is an empty table.
//
// A Table is the mutable builder of the model; queries and caches work on
// the immutable Snapshot it publishes (see Table.Snapshot). Mutations must
// be externally synchronized with each other and with Snapshot calls, but a
// Snapshot, once obtained, is safe to read from any goroutine while the
// table keeps mutating.
type Table struct {
	tuples  []Tuple
	version uint64
	// snap memoizes the snapshot of the current contents: unchanged tables
	// hand out the same snapshot, mutations clear the memo so the next
	// Snapshot call lazily mints a fresh one (copy-on-write).
	snap atomic.Pointer[Snapshot]
	// extended reports that a successor built by Extend owns the storage
	// past len(tuples), so this table must copy before it appends again.
	extended atomic.Bool
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Add appends a tuple. Returns the table for chaining.
func (t *Table) Add(tp Tuple) *Table {
	if t.extended.Load() {
		// Clamping the capacity makes append copy, leaving the successor's
		// tuples in the shared storage untouched.
		t.tuples = t.tuples[:len(t.tuples):len(t.tuples)]
		t.extended.Store(false)
	}
	t.tuples = append(t.tuples, tp)
	t.version++
	t.snap.Store(nil)
	return t
}

// Version returns a counter that changes on every mutation of the table.
// It orders the states of ONE table; it does not identify contents across
// tables (a clone shares its origin's version, and two tables built by the
// same number of Adds share a version). Caches must key on Snapshot.ID,
// which is process-unique, instead.
func (t *Table) Version() uint64 { return t.version }

// Snapshot returns an immutable snapshot of the current contents with a
// process-unique identity. Snapshots are copy-on-write: while the table is
// unchanged, every call returns the same *Snapshot (and therefore the same
// ID); a mutation clears the memo, and the next call mints a fresh snapshot
// — without copying the tuples, since the table's storage is append-only
// and the snapshot's view has its capacity clamped.
//
// Snapshot must be synchronized with mutations like any other read, but the
// returned Snapshot itself is immutable and safe for concurrent use.
func (t *Table) Snapshot() *Snapshot {
	if s := t.snap.Load(); s != nil {
		return s
	}
	s := &Snapshot{
		id:     snapshotIDs.Add(1),
		tuples: t.tuples[:len(t.tuples):len(t.tuples)],
	}
	if t.snap.CompareAndSwap(nil, s) {
		return s
	}
	// A concurrent first Snapshot won the race; share its result so the
	// "unchanged table → same snapshot" contract holds.
	return t.snap.Load()
}

// AddIndependent appends an independent tuple (its own ME group).
func (t *Table) AddIndependent(id string, score, prob float64) *Table {
	return t.Add(Tuple{ID: id, Score: score, Prob: prob})
}

// AddExclusive appends a tuple belonging to the named ME group.
func (t *Table) AddExclusive(id, group string, score, prob float64) *Table {
	return t.Add(Tuple{ID: id, Score: score, Prob: prob, Group: group})
}

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.tuples) }

// Tuples returns a copy of the tuple slice in insertion order.
func (t *Table) Tuples() []Tuple {
	out := make([]Tuple, len(t.tuples))
	copy(out, t.tuples)
	return out
}

// Tuple returns the i-th tuple in insertion order.
func (t *Table) Tuple(i int) Tuple { return t.tuples[i] }

// Clone returns a deep copy: the clone shares no storage and no snapshot
// memo, and — even though it shares its origin's Version — can never be
// confused with the original by an identity-keyed cache, because its
// snapshots carry fresh IDs.
func (t *Table) Clone() *Table {
	c := &Table{tuples: make([]Tuple, len(t.tuples)), version: t.version}
	copy(c.tuples, t.tuples)
	return c
}

// Extend returns a successor table holding t's tuples followed by tps, as
// Clone followed by one Add per tuple would — but
// without copying t's tuples. The successor shares t's append-only storage
// and writes only past t's length, which neither t nor any snapshot of t
// can see, so t stays valid and unchanged for its concurrent readers. Only
// the first successor of t extends the storage in place; a second Extend of
// t, or a later Add to t, copies first. Costs O(len(tps)), amortized.
//
// Extend reads t like Snapshot does; it must not run concurrently with a
// mutation of t.
func (t *Table) Extend(tps []Tuple) *Table {
	base := t.tuples
	if !t.extended.CompareAndSwap(false, true) {
		base = base[:len(base):len(base)]
	}
	return &Table{tuples: append(base, tps...), version: t.version + uint64(len(tps))}
}

// CheckTuple validates one tuple's own invariants — finite score,
// probability in (0, 1] — independent of any group-mass constraint. It is
// the single per-tuple rule shared by Validate, PrepareSorted and the
// sliding window's Push. The message carries no package prefix; callers
// wrap it with their own context.
func CheckTuple(tp Tuple) error {
	if math.IsNaN(tp.Score) || math.IsInf(tp.Score, 0) {
		return fmt.Errorf("tuple %q has non-finite score %v", tp.ID, tp.Score)
	}
	if !(tp.Prob > 0 && tp.Prob <= 1) {
		return fmt.Errorf("tuple %q has probability %v outside (0, 1]", tp.ID, tp.Prob)
	}
	return nil
}

// checkGroupSums validates that each ME group's probabilities sum to at
// most 1.
func checkGroupSums(tuples []Tuple) error {
	_, err := groupSums(tuples)
	return err
}

// groupSums sums each ME group's probabilities in slice order and checks
// every sum against the bound, returning the sums.
func groupSums(tuples []Tuple) (map[string]float64, error) {
	sums := make(map[string]float64)
	for _, tp := range tuples {
		if tp.Group != "" {
			sums[tp.Group] += tp.Prob
		}
	}
	for g, s := range sums {
		if err := checkGroupSum(g, s); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

func checkGroupSum(group string, sum float64) error {
	if sum > 1+probSumTolerance {
		return fmt.Errorf("uncertain: ME group %q has total probability %v > 1", group, sum)
	}
	return nil
}

// Ledger is the validation state of an append-only table with unique tuple
// ids: the id set and each ME group's probability sum. Checking an append
// against it touches only the appended tuples, yet gives the verdict — and
// the error — that Validate plus an id-uniqueness check would give on the
// extended table, because each running sum adds the same probabilities in
// the same insertion order as Validate does, so it is bit-identical. A
// Ledger is not safe for concurrent use.
type Ledger struct {
	n    int
	ids  map[string]struct{}
	sums map[string]float64
}

// NewLedger validates t — Validate's rules, then unique ids — and returns
// its ledger. It makes the same passes over the tuples as those two checks,
// so building it costs nothing extra.
func NewLedger(t *Table) (*Ledger, error) {
	tuples := t.tuples
	sums, err := validatedSums(tuples)
	if err != nil {
		return nil, err
	}
	ids := make(map[string]struct{}, len(tuples))
	for _, tp := range tuples {
		if _, dup := ids[tp.ID]; dup {
			return nil, fmt.Errorf("duplicate tuple id %q", tp.ID)
		}
		ids[tp.ID] = struct{}{}
	}
	return &Ledger{n: len(tuples), ids: ids, sums: sums}, nil
}

// Check validates appending tps to the ledger's table, in O(len(tps)),
// leaving the ledger unchanged. Errors come in NewLedger's order: a bad
// tuple first, then an overfull group, then a duplicate id.
func (l *Ledger) Check(tps []Tuple) error {
	for i, tp := range tps {
		if err := CheckTuple(tp); err != nil {
			return fmt.Errorf("uncertain: at index %d: %w", l.n+i, err)
		}
	}
	sums := make(map[string]float64)
	for _, tp := range tps {
		if tp.Group == "" {
			continue
		}
		s, ok := sums[tp.Group]
		if !ok {
			s = l.sums[tp.Group]
		}
		sums[tp.Group] = s + tp.Prob
	}
	for g, s := range sums {
		if err := checkGroupSum(g, s); err != nil {
			return err
		}
	}
	batch := make(map[string]struct{}, len(tps))
	for _, tp := range tps {
		_, dup := l.ids[tp.ID]
		if _, again := batch[tp.ID]; dup || again {
			return fmt.Errorf("duplicate tuple id %q", tp.ID)
		}
		batch[tp.ID] = struct{}{}
	}
	return nil
}

// Commit records tps as appended. Call it only with tuples Check accepted.
func (l *Ledger) Commit(tps []Tuple) {
	for _, tp := range tps {
		if tp.Group != "" {
			l.sums[tp.Group] += tp.Prob
		}
		l.ids[tp.ID] = struct{}{}
	}
	l.n += len(tps)
}

// validateTuples checks the data-model invariants on a tuple slice; shared
// by Table.Validate and Snapshot.Validate.
func validateTuples(tuples []Tuple) error {
	_, err := validatedSums(tuples)
	return err
}

// validatedSums is validateTuples returning each ME group's probability
// sum, accumulated in slice order.
func validatedSums(tuples []Tuple) (map[string]float64, error) {
	for i, tp := range tuples {
		if err := CheckTuple(tp); err != nil {
			return nil, fmt.Errorf("uncertain: at index %d: %w", i, err)
		}
	}
	return groupSums(tuples)
}

// Validate checks the data-model invariants: every probability is in (0, 1],
// scores are finite, and each ME group's probabilities sum to at most 1.
func (t *Table) Validate() error { return validateTuples(t.tuples) }

// ErrEmptyTable is returned when an operation requires a non-empty table.
var ErrEmptyTable = errors.New("uncertain: empty table")

// PTuple is a tuple in a Prepared table: the original tuple plus its dense
// group identifier and lead flag.
type PTuple struct {
	// Orig is the tuple's index in the source table's insertion order.
	Orig  int
	ID    string
	Score float64
	Prob  float64
	// Group is a dense group identifier. Independent tuples get their own
	// singleton group.
	Group int
	// Lead reports whether this tuple is the first (highest-ranked) member
	// of its ME group in the prepared order. Singleton-group tuples are
	// always leads (§3.3.3).
	Lead bool
}

// Prepared is a validated table sorted in the canonical order of §3.4:
// descending by (score, probability), remaining ties broken by insertion
// order so the sort is total and deterministic. It caches the group
// structure, tie groups, and lead regions the algorithms need.
type Prepared struct {
	Tuples []PTuple

	// groupMembers[g] lists the prepared positions of group g's members in
	// rank order.
	groupMembers [][]int
	// groupCum[g][j] is the total probability of group g's first j members
	// in rank order, so PrefixMass answers with one binary search instead of
	// rescanning the member list.
	groupCum [][]float64
	// tieStart[i] / tieEnd[i] give the half-open range of the tie group
	// containing position i.
	tieStart, tieEnd []int
	// cumProb[i] is the total probability of the tuples at positions < i,
	// shared by every Theorem-2 scan over this table.
	cumProb []float64
	// allUnits memoizes the full §3.3.3 unit decomposition so repeated
	// queries (and multi-query batches) share it; see AllUnits.
	unitsOnce sync.Once
	allUnits  []Unit
}

// Prepare validates and sorts the table, returning the derived structure.
func Prepare(t *Table) (*Prepared, error) { return prepareTuples(t.tuples) }

// prepareTuples is the shared body of Prepare and Snapshot.Prepare. It
// never mutates tuples (the sort permutes an index array), so it is safe on
// a frozen snapshot's storage.
func prepareTuples(tuples []Tuple) (*Prepared, error) {
	if err := validateTuples(tuples); err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, ErrEmptyTable
	}
	idx := make([]int, len(tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ta, tb := tuples[idx[a]], tuples[idx[b]]
		if ta.Score != tb.Score {
			return ta.Score > tb.Score
		}
		if ta.Prob != tb.Prob {
			return ta.Prob > tb.Prob
		}
		return idx[a] < idx[b]
	})
	p := &Prepared{Tuples: make([]PTuple, len(tuples))}
	groupIDs := make(map[string]int)
	for pos, oi := range idx {
		tp := tuples[oi]
		var g int
		if tp.Group == "" {
			g = len(p.groupMembers)
			p.groupMembers = append(p.groupMembers, nil)
		} else if known, ok := groupIDs[tp.Group]; ok {
			g = known
		} else {
			g = len(p.groupMembers)
			groupIDs[tp.Group] = g
			p.groupMembers = append(p.groupMembers, nil)
		}
		p.Tuples[pos] = PTuple{
			Orig: oi, ID: tp.ID, Score: tp.Score, Prob: tp.Prob,
			Group: g, Lead: len(p.groupMembers[g]) == 0,
		}
		p.groupMembers[g] = append(p.groupMembers[g], pos)
	}
	p.buildDerived()
	return p, nil
}

// validateSorted checks the Prepare invariants on an already-sorted tuple
// slice — the same per-tuple and group-mass rules as Table.Validate — plus
// the canonical (score, probability)-descending order.
func validateSorted(tuples []Tuple) error {
	for i, tp := range tuples {
		if err := CheckTuple(tp); err != nil {
			return fmt.Errorf("uncertain: at position %d: %w", i, err)
		}
		if i > 0 {
			prev := tuples[i-1]
			if tp.Score > prev.Score || (tp.Score == prev.Score && tp.Prob > prev.Prob) {
				return fmt.Errorf("uncertain: tuples %d–%d violate the canonical (score, prob)-descending order", i-1, i)
			}
		}
	}
	return checkGroupSums(tuples)
}

// PrepareSorted builds a Prepared from tuples that are already in the
// canonical §3.4 order (descending score, then descending probability, with
// remaining ties in their desired insertion order). It performs the same
// validation as Prepare but skips the sort, which makes it the fast path for
// callers that maintain rank order incrementally (the sliding window).
//
// If prev is non-nil and from > 0, the caller guarantees that tuples[0:from]
// is identical to the first from tuples prev was built from, and that prev
// itself was built by PrepareSorted. The first from tuple rows and their
// ME group identities are then reused and only the rank suffix [from, n) is
// re-derived — the incremental "suffix re-prepare". The group-membership,
// tie-group and prefix-mass indexes are rebuilt (they hold positions, which
// shift with the suffix), but no sort and no prefix row construction happens.
// Prepared tables built this way use the prepared position itself as each
// tuple's Orig index.
func PrepareSorted(tuples []Tuple, prev *Prepared, from int) (*Prepared, error) {
	n := len(tuples)
	if n == 0 {
		return nil, ErrEmptyTable
	}
	if err := validateSorted(tuples); err != nil {
		return nil, err
	}
	if prev == nil || from > len(prev.Tuples) {
		from = 0
	}
	if from > n {
		from = n
	}
	p := &Prepared{Tuples: make([]PTuple, n)}
	groupIDs := make(map[string]int)
	// Recover the prefix's group-id assignments: ids are dense and assigned
	// in first-occurrence order, so the shared prefix reuses prev's ids and
	// the suffix continues numbering after them.
	for pos := 0; pos < from; pos++ {
		if g := tuples[pos].Group; g != "" {
			groupIDs[g] = prev.Tuples[pos].Group
		}
	}
	for pos := 0; pos < n; pos++ {
		tp := tuples[pos]
		var g int
		if pos < from {
			p.Tuples[pos] = prev.Tuples[pos]
			p.Tuples[pos].Orig = pos
			g = p.Tuples[pos].Group
			if g == len(p.groupMembers) {
				p.groupMembers = append(p.groupMembers, nil)
			}
		} else {
			if tp.Group == "" {
				g = len(p.groupMembers)
				p.groupMembers = append(p.groupMembers, nil)
			} else if known, ok := groupIDs[tp.Group]; ok {
				g = known
			} else {
				g = len(p.groupMembers)
				groupIDs[tp.Group] = g
				p.groupMembers = append(p.groupMembers, nil)
			}
			p.Tuples[pos] = PTuple{
				Orig: pos, ID: tp.ID, Score: tp.Score, Prob: tp.Prob,
				Group: g, Lead: len(p.groupMembers[g]) == 0,
			}
		}
		p.groupMembers[g] = append(p.groupMembers[g], pos)
	}
	p.buildDerived()
	return p, nil
}

// buildDerived computes the structures shared across queries: tie groups,
// cumulative prefix probabilities, and per-group cumulative masses.
func (p *Prepared) buildDerived() {
	p.buildTieGroups()
	p.cumProb = make([]float64, len(p.Tuples)+1)
	for i, tp := range p.Tuples {
		p.cumProb[i+1] = p.cumProb[i] + tp.Prob
	}
	// All per-group cumulative slices share one flat backing array, so the
	// whole index costs two allocations however many (mostly singleton)
	// groups there are — buildDerived runs on the sliding window's
	// suffix-re-prepare hot path.
	flat := make([]float64, len(p.Tuples)+len(p.groupMembers))
	p.groupCum = make([][]float64, len(p.groupMembers))
	off := 0
	for g, members := range p.groupMembers {
		cum := flat[off : off+len(members)+1 : off+len(members)+1]
		off += len(members) + 1
		for j, m := range members {
			cum[j+1] = cum[j] + p.Tuples[m].Prob
		}
		p.groupCum[g] = cum
	}
}

func (p *Prepared) buildTieGroups() {
	n := len(p.Tuples)
	p.tieStart = make([]int, n)
	p.tieEnd = make([]int, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && p.Tuples[j].Score == p.Tuples[i].Score {
			j++
		}
		for q := i; q < j; q++ {
			p.tieStart[q], p.tieEnd[q] = i, j
		}
		i = j
	}
}

// Len returns the number of tuples.
func (p *Prepared) Len() int { return len(p.Tuples) }

// NumGroups returns the number of distinct ME groups (singletons included).
func (p *Prepared) NumGroups() int { return len(p.groupMembers) }

// GroupMembers returns the prepared positions of group g's members in rank
// order. The returned slice must not be modified.
func (p *Prepared) GroupMembers(g int) []int { return p.groupMembers[g] }

// GroupSize returns the number of members of tuple position i's group.
func (p *Prepared) GroupSize(i int) int { return len(p.groupMembers[p.Tuples[i].Group]) }

// TieGroup returns the half-open position range [start, end) of the tie
// group containing position i (§2.3). A tuple with a unique score is in a
// tie group of size one.
func (p *Prepared) TieGroup(i int) (start, end int) { return p.tieStart[i], p.tieEnd[i] }

// HasTies reports whether any tie group has more than one tuple.
func (p *Prepared) HasTies() bool {
	for i := range p.Tuples {
		if p.tieEnd[i]-p.tieStart[i] > 1 {
			return true
		}
	}
	return false
}

// MExclusiveCount returns the number of tuples among the first n positions
// that are mutually exclusive with at least one other tuple anywhere in the
// table (the paper's m in the O(kmn) bound).
func (p *Prepared) MExclusiveCount(n int) int {
	if n > len(p.Tuples) {
		n = len(p.Tuples)
	}
	m := 0
	for i := 0; i < n; i++ {
		if p.GroupSize(i) > 1 {
			m++
		}
	}
	return m
}

// PrefixProbability returns the total probability of the tuples at prepared
// positions strictly less than pos — the running prefix sum of the Theorem-2
// scan, precomputed once per Prepared so that every query shares it.
func (p *Prepared) PrefixProbability(pos int) float64 { return p.cumProb[pos] }

// PrefixMass returns the total probability of group g's members at prepared
// positions strictly less than pos. This is the "consumed" group mass seen
// by a scan that has processed positions [0, pos). The per-group cumulative
// masses are precomputed in buildDerived, so a call costs one binary search
// over the member list (O(log group size)) instead of rescanning it.
func (p *Prepared) PrefixMass(g, pos int) float64 {
	// The first member index at or beyond pos is the number of members
	// strictly below it.
	n := sort.SearchInts(p.groupMembers[g], pos)
	return p.groupCum[g][n]
}

// GroupMassBefore returns, for group g, the total probability of members at
// positions strictly below limit. Identical to PrefixMass; kept as the
// reader-facing name used by rule-tuple compression.
func (p *Prepared) GroupMassBefore(g, limit int) float64 { return p.PrefixMass(g, limit) }

// UnitKind distinguishes the two kinds of dynamic-programming units of
// §3.3.3.
type UnitKind int

const (
	// UnitLeadRegion is a maximal contiguous run of lead tuples; one DP run
	// covers all exit points in the region.
	UnitLeadRegion UnitKind = iota
	// UnitNonLead is a single tuple that is not the first of its ME group;
	// it needs its own DP run with the group's higher-ranked members removed.
	UnitNonLead
)

// Unit is one dynamic-programming run: either a lead-tuple region or a
// single non-lead tuple, identified by the half-open position range
// [Start, End).
type Unit struct {
	Kind       UnitKind
	Start, End int
}

// Units decomposes positions [0, n) into the DP units of §3.3.3, in rank
// order: maximal lead-tuple regions interleaved with individual non-lead
// tuples. The returned slice is freshly allocated and owned by the caller;
// query loops should prefer UnitsPrefix, which shares the memoized full
// decomposition.
func (p *Prepared) Units(n int) []Unit {
	return append([]Unit(nil), p.UnitsPrefix(n)...)
}

// AllUnits returns the unit decomposition of the whole table, computed once
// and shared by every subsequent query (and by all queries of a batch). The
// returned slice must not be modified.
func (p *Prepared) AllUnits() []Unit {
	p.unitsOnce.Do(func() {
		n := len(p.Tuples)
		for i := 0; i < n; {
			if p.Tuples[i].Lead {
				j := i + 1
				for j < n && p.Tuples[j].Lead {
					j++
				}
				p.allUnits = append(p.allUnits, Unit{Kind: UnitLeadRegion, Start: i, End: j})
				i = j
			} else {
				p.allUnits = append(p.allUnits, Unit{Kind: UnitNonLead, Start: i, End: i + 1})
				i++
			}
		}
	})
	return p.allUnits
}

// UnitsPrefix returns the unit decomposition of positions [0, n), derived
// from the memoized full decomposition: a lead-tuple region cut by the scan
// depth is truncated, which yields exactly the decomposition of the prefix.
// The returned slice must not be modified (it may alias the memoized one).
func (p *Prepared) UnitsPrefix(n int) []Unit {
	if n > len(p.Tuples) {
		n = len(p.Tuples)
	}
	all := p.AllUnits()
	if n == len(p.Tuples) {
		return all
	}
	cut := 0
	for cut < len(all) && all[cut].End <= n {
		cut++
	}
	if cut == len(all) || all[cut].Start >= n {
		return all[:cut:cut]
	}
	trunc := all[cut]
	trunc.End = n
	return append(all[:cut:cut], trunc)
}

// TruncateTable materialises the first n prepared (rank-ordered) tuples as a
// fresh table, preserving ME group membership restricted to that prefix —
// the "truncated table" the paper's §3.3.2 extension reasons about. n beyond
// the table length is clamped.
func (p *Prepared) TruncateTable(n int) *Table {
	if n > len(p.Tuples) {
		n = len(p.Tuples)
	}
	t := NewTable()
	for i := 0; i < n; i++ {
		tp := p.Tuples[i]
		group := ""
		if p.GroupSize(i) > 1 {
			group = fmt.Sprintf("g%d", tp.Group)
		}
		t.Add(Tuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: group})
	}
	return t
}

// IDs translates prepared positions into tuple IDs.
func (p *Prepared) IDs(positions []int) []string {
	out := make([]string, len(positions))
	for i, pos := range positions {
		out[i] = p.Tuples[pos].ID
	}
	return out
}

// TotalScore sums the scores of the tuples at the given prepared positions.
func (p *Prepared) TotalScore(positions []int) float64 {
	var s float64
	for _, pos := range positions {
		s += p.Tuples[pos].Score
	}
	return s
}

// String renders a compact description, useful in test failure messages.
func (p *Prepared) String() string {
	return fmt.Sprintf("prepared{n=%d groups=%d}", len(p.Tuples), len(p.groupMembers))
}
