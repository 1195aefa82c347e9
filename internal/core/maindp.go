package core

import (
	"math"
	"runtime"
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
	// outranks marks a row whose members all strictly outrank the boundary of
	// every vector it is applied to, so that its boundary-aware skip factor
	// is one number for all of them (see apply).
	outranks bool
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
// enabled exit points. The units' DPs run together on a fold tree (see
// foldTree.build): a binary tree over the units whose every node applies,
// once, the rows all the units below it share, after merging its children's
// columns. The root's column k is the answer, coalesced to Params.MaxLines.
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
	if len(units) == 0 {
		res.Dist = pmf.New()
		return res, nil
	}
	t := &s.tree
	t.build(p, units, n, params.K)
	s.grid.Arena = &s.arena
	k := params.K
	tasks, workers := s.fanOut(t, params)
	s.reserve(int(t.nodes[0].need)+len(tasks), k)
	var cols []*pmf.Dist
	if workers > 1 {
		cols = s.evalParallel(t, tasks, workers, params, &res.Cells)
	} else {
		cols = s.eval(t, 0, 0, params, nil, &res.Cells)
	}
	if empty(cols[k]) {
		res.Dist = pmf.New()
	} else {
		res.Dist = cols[k].Clone()
	}
	for j, d := range cols {
		s.putDist(d)
		cols[j] = nil
	}
	// The pooled Scratch must not keep the table alive.
	s.cur, t.p, t.units = nil, nil, nil
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
	s.release()
	return res, nil
}

// eval computes the columns of node nd of t into s.levels[lv] and returns
// them: cols[j] is the distribution of choosing j tuples from the rows of
// the units below nd (their exit rows, their leaves' rows and the rows of
// the nodes up to nd) such that the deepest chosen row is an exit row.
//
// A leaf applies its unit's exit rows, deepest first, then its own rows. An
// internal node evaluates its children — the one needing more column sets
// first, into level lv, the other into lv+1, so at most nodes[0].need levels
// are live — merges the right child's columns into the left child's, and
// applies its own rows. A node that is a fan-out task takes the columns a
// worker computed (results, by task index) instead.
func (s *Scratch) eval(t *foldTree, nd int32, lv int, params Params, results [][]*pmf.Dist, cells *int) []*pmf.Dist {
	if len(s.levels) <= lv {
		s.levels = append(s.levels, make([][]*pmf.Dist, lv+1-len(s.levels))...)
	}
	node := &t.nodes[nd]
	rows := node.to - node.from
	switch {
	case results != nil && node.task >= 0:
		s.levels[lv] = append(s.levels[lv][:0], results[node.task]...)
		clear(results[node.task])
		return s.levels[lv]
	case node.left < 0:
		cols := columns(s.levels[lv], params.K)
		s.levels[lv] = cols
		u := t.units[node.lo]
		for q := u.End - 1; q >= u.Start; q-- {
			tp := t.p.Tuples[q]
			s.exitBranch[0] = pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: q}
			s.exitRow = row{skipFactor: 1 - tp.Prob, branches: s.exitBranch[:], exit: true}
			s.apply(cols, &s.exitRow, int(rows)+int(node.above)+q-u.Start, params, cells)
		}
	default:
		l, r := node.left, node.left+1
		if t.nodes[r].need > t.nodes[l].need {
			s.eval(t, r, lv, params, results, cells)
			s.eval(t, l, lv+1, params, results, cells)
			s.levels[lv], s.levels[lv+1] = s.levels[lv+1], s.levels[lv]
		} else {
			s.eval(t, l, lv, params, results, cells)
			s.eval(t, r, lv+1, params, results, cells)
		}
		s.fold(s.levels[lv], s.levels[lv+1])
	}
	cols := s.levels[lv]
	for i, ri := range t.at[node.from:node.to] {
		s.apply(cols, &t.rows[ri], int(rows)-1-i+int(node.above), params, cells)
	}
	return cols
}

// autoParallelWork is the estimated number of cells fanning out must save
// on the critical path before Parallelism == 0 fans out. Measured with two
// workers on CarTel-style tables at 200 lines: from about 2,000 saved cells
// fanning out cut wall time by 11–43% for no measurable extra CPU, while
// below 1,500 it cost 7–28% more CPU. Tables whose runs are suffixes (the
// tree is a chain) save nothing and stay serial.
const autoParallelWork = 2048

// fanOut resolves Params.Parallelism and picks the subtrees workers
// evaluate: ≥ 2 is an explicit worker count, 1 or negative forces serial,
// and 0 auto-tunes to one worker per processor when that saves an estimated
// autoParallelWork cells or more, serial otherwise. Never more workers than
// units.
//
// The tasks come from splitting the subtree of most estimated work into its
// children, again and again, up to eight tasks per worker; the split nodes
// then run serially above the tasks. Of the frontiers passed through, fanOut
// keeps the one of shortest estimated critical path: the work above the
// tasks plus the larger of the largest task and the tasks' work spread over
// the workers. An explicit worker count always gets at least two tasks.
func (s *Scratch) fanOut(t *foldTree, params Params) (tasks []int32, workers int) {
	w := params.Parallelism
	total := t.nodes[0].work
	if w == 0 {
		if total < autoParallelWork {
			return nil, 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w = min(w, len(t.units)); w < 2 {
		return nil, 1
	}
	best, bestTasks := total, 1
	if params.Parallelism != 0 {
		best, bestTasks = math.MaxInt, 2
	}
	tasks = append(s.tasks[:0], 0)
	for len(tasks) < 8*w {
		var split bool
		if tasks, split = t.splitHeaviest(tasks); !split {
			break
		}
		spread, largest := 0, 0
		for _, nd := range tasks {
			spread += t.nodes[nd].work
			largest = max(largest, t.nodes[nd].work)
		}
		if crit := total - spread + max(largest, (spread+w-1)/w); crit < best && len(tasks) >= bestTasks {
			best, bestTasks = crit, len(tasks)
		}
	}
	// Replay the splits up to the chosen frontier.
	tasks = append(tasks[:0], 0)
	for len(tasks) < bestTasks {
		tasks, _ = t.splitHeaviest(tasks)
	}
	s.tasks = tasks
	if len(tasks) < 2 || params.Parallelism == 0 && total-best < autoParallelWork {
		return nil, 1
	}
	for i, nd := range tasks {
		t.nodes[nd].task = int32(i)
	}
	return tasks, w
}

// splitHeaviest replaces the task subtree of most estimated work that is not
// a leaf by its two children, and reports whether there was one.
func (t *foldTree) splitHeaviest(tasks []int32) ([]int32, bool) {
	h := -1
	for i, nd := range tasks {
		if t.nodes[nd].left >= 0 && (h < 0 || t.nodes[nd].work > t.nodes[tasks[h]].work) {
			h = i
		}
	}
	if h < 0 {
		return tasks, false
	}
	left := t.nodes[tasks[h]].left
	tasks[h] = left
	return append(tasks, left+1), true
}

// evalParallel evaluates the tasks' subtrees over a bounded worker pool,
// then the nodes above them here, and returns the root's columns. Each
// worker evaluates on a pooled helper Scratch, which the query holds until
// release: the tasks' columns keep pointing into the helpers' arenas until
// the answer's vectors are detached. The nodes above the tasks merge their
// columns in the fixed left-then-right order, so the answer is bit-identical
// to the serial one. Cell counts are accumulated atomically.
func (s *Scratch) evalParallel(t *foldTree, tasks []int32, workers int, params Params, cells *int) []*pmf.Dist {
	results := resize(s.results, len(tasks))
	for i := range results {
		results[i] = columns(results[i], params.K)
	}
	s.results = results
	s.helpers = resize(s.helpers, workers)
	var cursor, counted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range s.helpers {
		go func() {
			defer wg.Done()
			ws := GetScratch()
			s.helpers[w] = ws
			ws.grid.Arena = &ws.arena
			ws.reserve(int(t.nodes[0].need), params.K)
			local := 0
			for i := cursor.Add(1) - 1; i < int64(len(tasks)); i = cursor.Add(1) - 1 {
				cols := ws.eval(t, tasks[i], 0, params, nil, &local)
				for j, d := range cols {
					if d != nil {
						ws.lent++
					}
					results[i][j] = d
					cols[j] = nil
				}
			}
			ws.cur = nil
			counted.Add(int64(local))
		}()
	}
	wg.Wait()
	*cells += int(counted.Load())
	return s.eval(t, 0, 0, params, results, cells)
}

// release returns the helper Scratches of a fanned-out query to the pool
// once nothing points into their arenas, each with as many recycled
// distributions as its tasks' columns brought over.
func (s *Scratch) release() {
	for i, ws := range s.helpers {
		ws.arena.Reset()
		for ; ws.lent > 0 && len(s.free) > 0; ws.lent-- {
			ws.putDist(s.getDist())
		}
		ws.lent = 0
		PutScratch(ws)
		s.helpers[i] = nil
	}
	s.helpers = s.helpers[:0]
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
			s.skipOutranks = func(float64) float64 { return s.outranksSkip }
		}
		s.cur = r
		adjust = s.skipTrue
		if r.outranks {
			// Every line's boundary lies below every member, so the
			// boundary-aware factor is skipTrue(−∞) for all lines: computed
			// once, and not at all when it equals the skip factor the
			// combiner applies by default (always so for one branch).
			s.outranksSkip = r.skipTrue(math.Inf(-1))
			adjust = s.skipOutranks
			if s.outranksSkip == r.skipFactor {
				adjust = nil
			}
		}
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

// fold merges the columns right into left, left's lines first among equal
// scores, and recycles right's; right is left empty.
func (s *Scratch) fold(left, right []*pmf.Dist) {
	for j := 1; j < len(left); j++ {
		switch a, b := left[j], right[j]; {
		case empty(b):
			s.putDist(b)
		case empty(a):
			s.putDist(a)
			left[j] = b
		default:
			left[j] = pmf.MergeInto(s.getDist(), a, b)
			s.putDist(a)
			s.putDist(b)
		}
		right[j] = nil
	}
}

func empty(d *pmf.Dist) bool { return d == nil || d.IsEmpty() }
