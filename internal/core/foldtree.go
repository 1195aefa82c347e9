package core

import (
	"math"

	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// foldTree plans one query's dynamic program: a binary tree over the units
// of the scan prefix in rank order, whose every node carries the rows shared
// by all the units below it. A unit's leaf holds its exit rows and the rows
// only it uses; the rows on its leaf-to-root path are exactly the unit's
// other rows. Evaluating the tree bottom-up (eval) applies each row once for
// all the units that use it.
//
// All its slices are reused from query to query through the Scratch that
// holds the tree.
type foldTree struct {
	p     *uncertain.Prepared
	units []uncertain.Unit
	nodes []foldNode
	// rows are the group-row versions (see build) some unit uses; their
	// branches alias branches, which holds every group's members below the
	// scan depth, group by group.
	rows     []row
	branches []pmf.TakeBranch
	runs     []foldRun
	// at lists the rows of every node, node by node: node i applies
	// rows[at[j]] for j in [nodes[i].from, nodes[i].to), in that order.
	at []int32
	// Build-only buffers: the unit holding each position, the leaf of each
	// unit, the runs crossing each unit boundary, and the (node, row)
	// placements in the order they were made.
	unitAt []int32
	leaf   []int32
	cost   []int32
	place  []foldPlace
}

// foldRun is a run of consecutive units [lo, hi) that take the same row.
type foldRun struct{ lo, hi, row int32 }

// foldPlace places a row at a tree node.
type foldPlace struct{ node, row int32 }

// foldNode is one node of a foldTree.
type foldNode struct {
	// lo and hi delimit the units [lo, hi) below the node.
	lo, hi int32
	parent int32
	// left is the left child, left+1 the right one, and -1 marks a leaf.
	left int32
	// from and to delimit the node's rows in foldTree.at.
	from, to int32
	// above counts the rows on the node's strict ancestors: the rows each
	// unit below still has to run once the node's own rows are done.
	above int32
	// need is the number of column sets live at once while evaluating the
	// subtree when the child that needs more goes first.
	need int32
	// height is the most rows on a path from a unit's first exit row up to
	// and including this node's rows.
	height int32
	// task is the index of the fan-out task evaluating this subtree, or -1.
	task int32
	// work estimates the cells of the subtree.
	work int
}

// build plans the units of the scan prefix [0, n).
//
// Rows as versions. Take a unit starting at s. A group g gives it a row when
// g's first member is above s and g is not the unit's own group (a non-lead
// tuple's group, whose higher-ranked mates must simply not appear); the row
// is g's members above s. So g's row takes one version per count c of
// members above s, and as units are in rank order, version c is used by one
// run of consecutive units: those starting strictly between g's c-th and
// (c+1)-th members (the unit at the (c+1)-th member is g's own), the last
// version below n running to the end.
//
// Sharing. A unit of the run whose tie group starts at or before the c-th
// member ties with it: the version's boundary-aware skip factor
// (row.skipTrue) then depends on where each of the unit's vectors ends, so
// the unit keeps the version for itself, at its leaf. These units form a
// prefix of the run. Every other unit shares the version: all its members
// strictly outrank each of those units' exit rows, so the skip factor is one
// number for all their vectors, and electing a line's representative vector
// when their columns merge before the row picks the vector each unit's own
// DP would have picked after it. Rows other than exit rows are independent
// group factors, so in exact arithmetic their order is free.
//
// Tree. Each run is placed at the maximal tree nodes inside it, so each
// unit's leaf-to-root path carries exactly its rows. A node splits where the
// fewest runs cross it, ties going to the middle: when every run is a suffix
// no run is split, one row application per version; when runs interleave
// (groups of mass 1 spread over the ranks) it is nearly balanced.
func (t *foldTree) build(p *uncertain.Prepared, units []uncertain.Unit, n, k int) {
	m := int32(len(units))
	t.p, t.units = p, units
	t.unitAt = resize(t.unitAt, n)
	for i, u := range units {
		for q := u.Start; q < u.End; q++ {
			t.unitAt[q] = int32(i)
		}
	}

	// The versions and their runs, groups deepest first. Every position
	// below n belongs to a group whose first member is below n, so branches
	// holds exactly n entries and never moves under the rows aliasing it.
	if cap(t.branches) < n {
		t.branches = make([]pmf.TakeBranch, 0, n)
	}
	t.branches, t.rows, t.runs = t.branches[:0], t.rows[:0], t.runs[:0]
	for f := n - 1; f >= 0; f-- {
		if !p.Tuples[f].Lead {
			continue
		}
		members := p.GroupMembers(p.Tuples[f].Group)
		off := len(t.branches)
		mass := 0.0
		for c, q := range members {
			if q >= n {
				break
			}
			tp := p.Tuples[q]
			t.branches = append(t.branches, pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: q})
			mass += tp.Prob
			lo, hi := t.unitAt[q]+1, m
			if c+1 < len(members) && members[c+1] < n {
				hi = t.unitAt[members[c+1]]
			}
			if lo >= hi {
				continue
			}
			end := len(t.branches)
			version := row{skipFactor: max(0, 1-mass), branches: t.branches[off:end:end]}
			if start, _ := p.TieGroup(units[lo].Start); start <= q {
				r := int32(len(t.rows))
				t.rows = append(t.rows, version)
				for ; lo < hi; lo++ {
					if start, _ := p.TieGroup(units[lo].Start); start > q {
						break
					}
					t.runs = append(t.runs, foldRun{lo, lo + 1, r})
				}
			}
			if lo < hi {
				version.outranks = true
				t.runs = append(t.runs, foldRun{lo, hi, int32(len(t.rows))})
				t.rows = append(t.rows, version)
			}
		}
	}

	// cost[x] counts the runs crossing the boundary between units x−1 and x.
	// A run covering a whole node crosses every boundary inside it, so the
	// fewest crossings inside a node are where the fewest of the node's
	// partial runs cross.
	t.cost = resize(t.cost, int(m)+1)
	clear(t.cost)
	for _, r := range t.runs {
		if r.hi-r.lo >= 2 {
			t.cost[r.lo+1]++
			t.cost[r.hi]--
		}
	}
	for x := int32(1); x <= m; x++ {
		t.cost[x] += t.cost[x-1]
	}

	// The tree, breadth first: a node's children follow it, side by side.
	t.leaf = resize(t.leaf, int(m))
	t.nodes = append(t.nodes[:0], foldNode{lo: 0, hi: m, parent: -1, task: -1})
	for i := int32(0); i < int32(len(t.nodes)); i++ {
		lo, hi := t.nodes[i].lo, t.nodes[i].hi
		if hi-lo == 1 {
			t.nodes[i].left = -1
			t.leaf[lo] = i
			continue
		}
		x := t.split(lo, hi)
		t.nodes[i].left = int32(len(t.nodes))
		t.nodes = append(t.nodes, foldNode{lo: lo, hi: x, parent: i, task: -1}, foldNode{lo: x, hi: hi, parent: i, task: -1})
	}

	// Each run goes to the maximal nodes inside it: from the leaf of its
	// first uncovered unit, climb while the parent stays inside the run.
	t.place = t.place[:0]
	for _, r := range t.runs {
		for u := r.lo; u < r.hi; {
			nd := t.leaf[u]
			for par := t.nodes[nd].parent; par >= 0 && t.nodes[par].lo >= r.lo && t.nodes[par].hi <= r.hi; par = t.nodes[par].parent {
				nd = par
			}
			t.place = append(t.place, foldPlace{nd, r.row})
			t.nodes[nd].to++
			u = t.nodes[nd].hi
		}
	}
	// Lay the placements out node by node, keeping their order: deepest
	// group first.
	var from int32
	for i := range t.nodes {
		nd := &t.nodes[i]
		nd.from, nd.to, from = from, from, from+nd.to
	}
	t.at = resize(t.at, len(t.place))
	for _, pl := range t.place {
		nd := &t.nodes[pl.node]
		t.at[nd.to] = pl.row
		nd.to++
	}

	for i := 1; i < len(t.nodes); i++ {
		nd := &t.nodes[i]
		par := &t.nodes[nd.parent]
		nd.above = par.above + par.to - par.from
	}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		nd := &t.nodes[i]
		var below int32
		nd.work = 0
		if nd.left < 0 {
			nd.need = 1
			u := units[nd.lo]
			rows := int32(u.End-u.Start) + nd.to - nd.from
			for b := int32(1); b <= int32(u.End-u.Start); b++ {
				nd.work += cellsAt(b, rows-b+nd.above, k)
			}
			below = int32(u.End - u.Start)
		} else {
			l, r := &t.nodes[nd.left], &t.nodes[nd.left+1]
			nd.need = max(l.need, r.need)
			if l.need == r.need {
				nd.need++
			}
			nd.work = l.work + r.work
			below = max(l.height, r.height)
		}
		rows := nd.to - nd.from
		for i := int32(1); i <= rows; i++ {
			nd.work += cellsAt(below+i, rows-i+nd.above, k)
		}
		nd.height = below + rows
	}
}

// split returns where node [lo, hi) divides: the boundary inside it that the
// fewest runs cross, the one nearest the middle among equals.
func (t *foldTree) split(lo, hi int32) int32 {
	best, bestCost, bestOff := lo+1, int32(math.MaxInt32), int32(math.MaxInt32)
	for x := lo + 1; x < hi; x++ {
		off := 2*x - lo - hi
		if off < 0 {
			off = -off
		}
		if c := t.cost[x]; c < bestCost || c == bestCost && off < bestOff {
			best, bestCost, bestOff = x, c, off
		}
	}
	return best
}

// cellsAt estimates the cells of the b-th row from the bottom of a unit's
// DP with above rows still to run: it fills at most min(b, k) columns, and
// columns below k − above are dropped unrun.
func cellsAt(b, above int32, k int) int {
	return max(0, min(int(b), k)-max(1, k-int(above))+1)
}

// resize returns buf with length n, reusing its storage when large enough;
// the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
