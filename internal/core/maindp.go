package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// row is one row of a unit's dynamic-programming table: either a plain
// uncertain tuple (one take branch) or a compressed rule tuple (§3.3.1, one
// take branch per constituent tuple). exit marks rows at which a top-k
// vector may end (the enabled exit points of §3.3.2/§3.3.3).
type row struct {
	skipFactor float64
	branches   []pmf.TakeBranch
	exit       bool
}

// skipTrue returns the boundary-aware skip factor for vector-probability
// tracking: the probability that this row contributes no tuple ranked
// strictly above the given boundary score. Members tied with the boundary
// are free to appear — the recorded vector stays a top-k vector regardless
// (Theorem 1) — which is what makes the tracked VecProb the exact vector
// probability even when ties and ME groups interact.
func (r row) skipTrue(bound float64) float64 {
	s := 1.0
	for _, b := range r.branches {
		if b.Shift > bound {
			s -= b.Factor
		}
	}
	if s < 0 {
		return 0
	}
	return s
}

// Distribution computes the score distribution of top-k vectors with the
// paper's main dynamic-programming algorithm (§3.2–§3.4).
//
// The table is scanned to the Theorem-2 depth n and decomposed into units —
// maximal lead-tuple regions and individual non-lead tuples. A unit
// conditions on containing the vector's k-th (last) tuple: its DP runs over
// the compressed ME groups above it (rule tuples) and its own rows, the only
// enabled exit points. Units share the rows above their join points (see
// joinPoints), so each unit runs only its private rows and one bottom-up
// sweep runs the shared rows for all of them at once, folding each unit's
// partial columns in at its join point. The sweep's answer and those of the
// units with no shared row are merged and coalesced to Params.MaxLines.
//
// The per-query working state comes from the process-wide Scratch pool, so
// steady-state repeated queries allocate near-zero.
func Distribution(p *uncertain.Prepared, params Params) (*Result, error) {
	s := GetScratch()
	defer PutScratch(s)
	return DistributionScratch(p, params, s)
}

// DistributionScratch is Distribution running against an explicit Scratch,
// for callers (the query engine, the sliding window) that manage scratch
// lifetime themselves. The result is bit-identical to running with a fresh
// zero Scratch.
func DistributionScratch(p *uncertain.Prepared, params Params, s *Scratch) (*Result, error) {
	if err := params.validate(p); err != nil {
		return nil, err
	}
	n := ScanDepth(p, params.K, params.Threshold)
	res := &Result{ScanDepth: n}
	units := p.UnitsPrefix(n)
	res.Units = len(units)
	plan, private := s.joinPoints(p, units, n, params.K)
	s.grid.Arena = &s.arena
	var partials [][]*pmf.Dist
	if workers := dpWorkers(params, len(units), private); workers > 1 {
		partials = runUnitsParallel(p, plan, params, workers, &res.Cells)
	}
	// partial returns the private columns of plan[i], running its DP here
	// when no worker has.
	partial := func(i int) []*pmf.Dist {
		if partials != nil {
			return partials[i]
		}
		s.unit = columns(s.unit, params.K)
		s.runUnit(p, plan[i], s.unit, params, &res.Cells)
		return s.unit
	}

	// The sweep: walk the rows of the groups starting above the deepest join
	// point, deepest first. Before the row of the group starting at f runs,
	// every unit whose join point lies below f folds its partial columns in
	// (join point descending, then unit order, whoever computed them), so
	// the row runs once for all of them.
	k := params.K
	s.sum = columns(s.sum, k)
	sum := s.sum
	next := 0
	if len(plan) > 0 {
		above := plan[0].above
		for f := plan[0].join - 1; f >= 0; f-- {
			tp := p.Tuples[f]
			if !tp.Lead {
				continue
			}
			above--
			for ; next < len(plan) && plan[next].join > f; next++ {
				s.fold(sum, partial(next))
			}
			s.shared, s.branches = groupRow(p, tp.Group, n, s.branches[:0])
			s.apply(sum, &s.shared, above, params, &res.Cells)
		}
	}
	// Units with no shared row (join point 0) finish on their own.
	finals := s.finals[:0]
	if !empty(sum[k]) {
		finals = append(finals, sum[k])
	}
	for ; next < len(plan); next++ {
		if cols := partial(next); !empty(cols[k]) {
			finals = append(finals, cols[k])
		}
	}
	res.Dist = pmf.MergeAll(finals)
	// The final columns are dead after the merge (MergeAll always returns
	// fresh storage); recycle them for the next query.
	for i, d := range finals {
		s.putDist(d)
		finals[i] = nil
	}
	s.finals = finals[:0]
	clear(s.sum)
	clear(s.unit)
	s.cur = nil
	s.co.Coalesce(res.Dist, params.MaxLines, params.CoalesceMode)
	if params.TrackVectors {
		res.Dist.NormalizeVectors()
	}
	// The DP allocated its vector nodes from the scratch arena; the result
	// outlives this call, so copy its surviving vectors (at most
	// MaxLines × k nodes — a sliver of what the DP churned) out of the arena
	// before the arena is recycled for the next query.
	res.Dist.DetachVectors()
	s.arena.Reset()
	return res, nil
}

// plannedUnit is a DP unit with its join point.
type plannedUnit struct {
	uncertain.Unit
	// join is the first position whose group the unit runs privately: the
	// rows of groups starting above join are shared with the sweep.
	join int
	// above is the number of shared rows, the groups starting above join.
	above int
}

// joinPoints plans the units of the scan prefix [0, n) for the sweep and
// returns them in fold order: join point descending, then unit order.
//
// A unit starting at s, whose tie group starts at t, joins at c: the first
// position of the highest-ranked group with a member above t and a member
// in [t, n), or t when no group has both. Every group starting above c then
// has two properties the sweep relies on:
//
//   - its members below n all lie above t, so the unit's compressed row for
//     it (members above s) is the unit-independent row of members below n;
//   - every member strictly outranks every exit row of the unit, so the
//     boundary-aware skip factor (row.skipTrue) has one value for all of the
//     unit's vectors, and electing a line's representative vector when
//     partial columns merge before the row picks the vector the unit's own
//     DP would have picked after it.
//
// Scores tied with s are free to appear in a top-k vector ending at s, which
// is why the cut is at t and not at s. Positions from n on take no part:
// neither the unit's rows nor the Theorem-2 prefix a view materializes
// contain them.
//
// Equivalently c is the lowest first position among the groups of positions
// [t, n), which one backward pass computes for every unit.
func (s *Scratch) joinPoints(p *uncertain.Prepared, units []uncertain.Unit, n, k int) (plan []plannedUnit, private int) {
	plan = s.plan[:0]
	for _, u := range units {
		plan = append(plan, plannedUnit{Unit: u})
	}
	low, pos := n, n
	for i := len(plan) - 1; i >= 0; i-- {
		t, _ := p.TieGroup(plan[i].Start)
		for ; pos > t; pos-- {
			if f := p.GroupMembers(p.Tuples[pos-1].Group)[0]; f < low {
				low = f
			}
		}
		plan[i].join = low
	}
	// Join points and starts never decrease in unit order, so one forward
	// pass counts the groups starting above each join point and each start,
	// and with them the private rows and an estimate of their cells.
	var leads, leadsAbove, joinPos, startPos int
	for i := range plan {
		u := &plan[i]
		for ; joinPos < u.join; joinPos++ {
			if p.Tuples[joinPos].Lead {
				leads++
			}
		}
		for ; startPos < u.Start; startPos++ {
			if p.Tuples[startPos].Lead {
				leadsAbove++
			}
		}
		u.above = leads
		// Row i from the bottom fills at most min(i, k) columns.
		r := leadsAbove - leads + u.End - u.Start
		if r <= k {
			private += r * (r + 1) / 2
		} else {
			private += k*(k+1)/2 + (r-k)*k
		}
	}
	slices.SortStableFunc(plan, func(a, b plannedUnit) int { return cmp.Compare(b.join, a.join) })
	s.plan = plan
	return plan, private
}

// autoParallelWork is the estimated number of private cells (the cells
// workers can take) from which Parallelism == 0 fans out. The shared sweep
// runs serially either way. Measured with two workers at 200 lines: tables
// whose units share most rows (synth, estimates up to 1,500 at k = 20) ran
// 0–60% slower fanned out, as goroutine hand-off, per-worker scratch and
// detaching the partial columns outweigh the split; CarTel-style tables,
// whose rows are nearly all private, broke even near 4,000 and ran 1.7x
// faster from 25,000.
const autoParallelWork = 4096

// dpWorkers resolves Params.Parallelism to a worker count: ≥ 2 is an
// explicit fan-out, 1 or negative forces serial, and 0 auto-tunes — serial
// when the units' private rows hold fewer than autoParallelWork cells,
// otherwise one worker per processor, never more than one per unit.
func dpWorkers(params Params, units, privateCells int) int {
	w := params.Parallelism
	if w == 0 {
		if privateCells < autoParallelWork {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > units {
		w = units
	}
	if w < 2 {
		return 1
	}
	return w
}

// runUnitsParallel fans the units' private DPs out over a bounded worker
// pool and returns their partial columns by plan index; the sweep then folds
// them in plan order, so the answer is bit-identical to the serial one. Cell
// counts are accumulated atomically.
//
// Each worker owns a pooled Scratch whose arena backs the vector nodes of
// the units it runs, so every partial column is detached from that arena
// (a ≤ MaxLines × k copy per column) before the worker releases the Scratch.
func runUnitsParallel(p *uncertain.Prepared, plan []plannedUnit, params Params, workers int, cells *int) [][]*pmf.Dist {
	partials := make([][]*pmf.Dist, len(plan))
	var counted int64
	var wg sync.WaitGroup
	wg.Add(workers)
	worker := func(claim func() int) {
		defer wg.Done()
		ws := GetScratch()
		defer PutScratch(ws)
		ws.grid.Arena = &ws.arena
		local := 0
		for {
			i := claim()
			if i < 0 {
				break
			}
			cols := make([]*pmf.Dist, params.K+1)
			ws.runUnit(p, plan[i], cols, params, &local)
			for _, d := range cols {
				if d != nil {
					d.DetachVectors()
				}
			}
			partials[i] = cols
		}
		ws.arena.Reset()
		atomic.AddInt64(&counted, int64(local))
	}
	if len(plan) > 4*workers {
		// Many units per worker: a shared atomic cursor is cheaper than
		// channel hand-off at this grain.
		cursor := int64(-1)
		claim := func() int {
			if i := int(atomic.AddInt64(&cursor, 1)); i < len(plan) {
				return i
			}
			return -1
		}
		for w := 0; w < workers; w++ {
			go worker(claim)
		}
	} else {
		// Buffered to capacity: the producer below never blocks handing out
		// unit indices.
		next := make(chan int, len(plan))
		for i := range plan {
			next <- i
		}
		close(next)
		claim := func() int {
			if i, ok := <-next; ok {
				return i
			}
			return -1
		}
		for w := 0; w < workers; w++ {
			go worker(claim)
		}
	}
	wg.Wait()
	*cells += int(counted)
	return partials
}

// groupRow appends the compressed row of group g's members at positions
// below limit (a rule tuple, §3.3.1) to buf and returns the row, whose
// branches alias buf.
func groupRow(p *uncertain.Prepared, g, limit int, buf []pmf.TakeBranch) (row, []pmf.TakeBranch) {
	from := len(buf)
	mass := 0.0
	for _, m := range p.GroupMembers(g) {
		if m >= limit {
			break
		}
		tp := p.Tuples[m]
		buf = append(buf, pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: m})
		mass += tp.Prob
	}
	r := row{skipFactor: 1 - mass, branches: buf[from:len(buf):len(buf)]}
	if r.skipFactor < 0 {
		r.skipFactor = 0
	}
	return r, buf
}

// runUnit runs the private rows of unit u bottom-up over cols, which must
// start empty; afterwards cols holds the unit's partial columns at its join
// point.
//
// For a lead-tuple region [a, b): the private rows are the compressed groups
// starting in [join, a), restricted to positions below a, followed by the
// region's tuples, each an enabled exit point. Region tuples are lead
// tuples, so every ME constraint that could affect a vector ending inside
// the region is confined to positions < a.
//
// For a non-lead tuple q: the private rows are the compressed groups
// starting in [join, q) restricted to positions below q, with q's own group
// removed (its higher-ranked mates must simply not appear, which
// conditioning on q's presence already implies), followed by the single row
// q, the only enabled exit point.
func (s *Scratch) runUnit(p *uncertain.Prepared, u plannedUnit, cols []*pmf.Dist, params Params, cells *int) {
	skipGroup := -1
	if u.Kind == uncertain.UnitNonLead {
		skipGroup = p.Tuples[u.Start].Group
	}
	rows := s.rows[:0]
	br := s.branches[:0]
	for pos := u.join; pos < u.Start; pos++ {
		if tp := p.Tuples[pos]; tp.Lead && tp.Group != skipGroup {
			var r row
			r, br = groupRow(p, tp.Group, u.Start, br)
			rows = append(rows, r)
		}
	}
	for pos := u.Start; pos < u.End; pos++ {
		tp := p.Tuples[pos]
		from := len(br)
		br = append(br, pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: pos})
		rows = append(rows, row{skipFactor: 1 - tp.Prob, branches: br[from:len(br):len(br)], exit: true})
	}
	for i := len(rows) - 1; i >= 0; i-- {
		s.apply(cols, &rows[i], u.above+i, params, cells)
	}
	s.rows, s.branches = rows, br
}

// apply runs row r over the columns cols[1..k] in place, bottom-up: after
// it, cols[j] is the score distribution of choosing j tuples from r and the
// rows below it such that the deepest chosen row is an exit row. The
// probability of a line is the product of the chosen tuples' probabilities
// and the skip factors of all unchosen rows above the deepest chosen one —
// exactly the configuration sub-event semantics of Theorem 3. The answer is
// cols[k] after the top row.
//
// above is the number of rows still to run above r. A column j < k − above
// can no longer reach k, so it is dropped without being computed; a column
// both of whose sources are empty stays empty without a Combine call. Each
// Combine call made counts as one cell.
func (s *Scratch) apply(cols []*pmf.Dist, r *row, above int, params Params, cells *int) {
	k := params.K
	lo := max(1, k-above)
	var adjust func(float64) float64
	if params.TrackVectors {
		if s.skipTrue == nil {
			s.skipTrue = func(bound float64) float64 { return s.cur.skipTrue(bound) }
		}
		s.cur = r
		adjust = s.skipTrue
	}
	// Column j reads the old columns j and j−1; going down from k, each old
	// column is dead once its own new value is computed.
	for j := k; j >= lo; j-- {
		skip := cols[j]
		var take *pmf.Dist
		if j > 1 {
			take = cols[j-1]
		} else if r.exit {
			take = s.exitPoint()
		}
		var out *pmf.Dist
		if (!empty(skip) && r.skipFactor > 0) || !empty(take) {
			out = s.grid.Combine(s.getDist(), skip, r.skipFactor, take, r.branches,
				params.MaxLines, params.CoalesceMode, params.TrackVectors, adjust)
			*cells++
		}
		s.putDist(skip)
		cols[j] = out
	}
	for j := 1; j < lo; j++ {
		s.putDist(cols[j])
		cols[j] = nil
	}
}

// fold merges a unit's partial columns into the sweep's columns sum and
// recycles them; part is left empty.
func (s *Scratch) fold(sum, part []*pmf.Dist) {
	for j := 1; j < len(sum); j++ {
		switch d := part[j]; {
		case empty(d):
			s.putDist(d)
		case empty(sum[j]):
			s.putDist(sum[j])
			sum[j] = d
		default:
			m := pmf.MergeInto(s.getDist(), sum[j], d)
			s.putDist(sum[j])
			s.putDist(d)
			sum[j] = m
		}
		part[j] = nil
	}
}

func empty(d *pmf.Dist) bool { return d == nil || d.IsEmpty() }
