package core

import (
	"sync"

	"probtopk/internal/pmf"
)

// maxFreeDists is the number of recycled distributions a Scratch retains
// between queries when the query at hand needs fewer, so a one-off huge query
// cannot pin its working set in the pool: the next query trims it.
const maxFreeDists = 64

// Scratch is the reusable per-query working state of the main dynamic
// program: the fused combine/coalesce buffers, the closest-pair coalescing
// buffers, and a free list of recycled intermediate distributions. A zero
// Scratch is ready to use; a Scratch must not be used concurrently.
//
// Steady-state query serving obtains Scratches from a process-wide sync.Pool
// via GetScratch/PutScratch, which makes repeated queries allocate near-zero:
// the DP's intermediate distributions, grid cells and heap storage all come
// from earlier queries.
type Scratch struct {
	grid pmf.GridCombiner
	co   pmf.Coalescer
	free []*pmf.Dist
	// keep bounds free: the distributions the query at hand can hold live at
	// once (see reserve), and never fewer than maxFreeDists. lent counts the
	// distributions a helper Scratch handed to the query it helps.
	keep int
	lent int
	exit *pmf.Dist
	// arena backs every vector node the DP allocates for one query
	// (grid.Arena points at it while a query runs). DistributionScratch
	// detaches the surviving vectors from the result and resets the arena
	// before returning, so the hundreds of thousands of intermediate nodes
	// per query never reach the garbage collector.
	arena pmf.VectorArena

	// Reused buffers of the fold tree: its plan, the column sets of the
	// evaluation levels, the fan-out tasks, their columns and the helper
	// Scratches computing them, and the exit row being applied with its one
	// branch.
	tree       foldTree
	levels     [][]*pmf.Dist
	tasks      []int32
	results    [][]*pmf.Dist
	helpers    []*Scratch
	exitRow    row
	exitBranch [1]pmf.TakeBranch

	// cur is the row being applied; skipTrue is its boundary-aware skip
	// factor and skipOutranks the one factor outranksSkip of a row that
	// outranks every boundary, both bound once per Scratch so that applying
	// a row allocates no closure.
	cur          *row
	skipTrue     func(bound float64) float64
	skipOutranks func(bound float64) float64
	outranksSkip float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a Scratch from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the process-wide pool.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// reserve sizes the free list for a query holding up to sets live column
// sets of k+1 distributions (plus one in flight per set), dropping what an
// earlier, larger query left beyond that.
func (s *Scratch) reserve(sets, k int) {
	s.keep = max(maxFreeDists, (sets+1)*(k+1))
	if len(s.free) > s.keep {
		clear(s.free[s.keep:])
		s.free = s.free[:s.keep]
	}
}

// getDist pops a recycled distribution, or returns nil when none is free
// (the combiner then allocates a fresh one).
func (s *Scratch) getDist() *pmf.Dist {
	if n := len(s.free); n > 0 {
		d := s.free[n-1]
		s.free = s.free[:n-1]
		return d
	}
	return nil
}

// putDist recycles a distribution whose contents are no longer reachable.
func (s *Scratch) putDist(d *pmf.Dist) {
	if d == nil || len(s.free) >= s.keep {
		return
	}
	d.Reset()
	s.free = append(s.free, d)
}

// exitPoint returns the shared single-line distribution {(0, 1)} used as the
// take source of enabled exit rows. It is read-only for the DP, so one
// instance per Scratch suffices.
func (s *Scratch) exitPoint() *pmf.Dist {
	if s.exit == nil {
		s.exit = pmf.PointVec(0, 1, nil, 1)
	}
	return s.exit
}

// columns returns buf resized to the k+1 columns of a DP and emptied.
func columns(buf []*pmf.Dist, k int) []*pmf.Dist {
	if cap(buf) < k+1 {
		return make([]*pmf.Dist, k+1)
	}
	buf = buf[:k+1]
	clear(buf)
	return buf
}
