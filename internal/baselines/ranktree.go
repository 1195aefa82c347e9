package baselines

import (
	"slices"
	"sync"

	"probtopk/internal/uncertain"
)

// rankTree computes the category-2 primitive for every prepared position i
// at once: the distribution of the number of tuples ranked above i, outside
// i's ME group, that appear — truncated at k, with the tail of k or more in
// the last entry.
//
// Each group g contributes one Bernoulli factor per position: the chance
// that one of its members ranked above the position appears. With g's
// members at m_0 < m_1 < … in rank order, that chance is the mass of g's
// first c members on the open range (m_{c−1}, m_c) between its c-th and
// (c+1)-th members, the last range running to the end of the table: one
// version of the factor per range. A member position lies outside every
// range of its own group, so the rule that a tuple's own group is skipped
// holds by construction, and nothing is divided by 1 − mass, so groups of
// mass 1 stay stable.
//
// The tree is a segment tree over the positions in heap order (node 1 is
// the root, node v's children are 2v and 2v+1, leaf i is node size+i).
// Every range is placed at its O(log n) canonical nodes, so a position's
// factors are exactly those on its leaf-to-root path. A depth-first walk
// carries the truncated count vector down, applying each node's factors
// once for all the leaves below it: at most 2·n·⌈log₂ n⌉ factor
// applications of O(k) each, against n²/2 for recomputing every position
// from scratch.
//
// All slices are reused from call to call through treePool.
type rankTree struct {
	n, k int
	// size is the number of leaves: the smallest power of two ≥ n.
	size int
	// Node v's factors are mass[off[v]:off[v+1]].
	off  []int32
	mass []float64
	// buf holds one count vector of k+1 entries per tree level, plus the
	// root's input {1} at the front.
	buf []float64
	// applied counts the factor applications of the last walk.
	applied int
}

var treePool = sync.Pool{New: func() any { return new(rankTree) }}

// rankCounts calls leaf for every position i of p in rank order with the
// truncated count distribution of i (see rankTree): counts[c] is the
// probability that exactly c higher-ranked tuples outside i's group appear
// for c < k, counts[k] that k or more do. Entries past len(counts) are
// zero. counts is only valid during the call.
func rankCounts(p *uncertain.Prepared, k int, leaf func(i int, counts []float64)) {
	t := treePool.Get().(*rankTree)
	t.build(p, k)
	t.walk(1, 0, 0, t.buf[:1], leaf)
	treePool.Put(t)
}

// build places the factor versions of every group of p at their canonical
// nodes, counting them per node first so that one slice holds them all.
func (t *rankTree) build(p *uncertain.Prepared, k int) {
	n := p.Len()
	size, levels := 1, 1
	for size < n {
		size <<= 1
		levels++
	}
	t.n, t.k, t.size, t.applied = n, k, size, 0
	t.off = slices.Grow(t.off[:0], 2*size+1)[:2*size+1]
	clear(t.off)
	t.buf = slices.Grow(t.buf[:0], 1+levels*(k+1))[:1+levels*(k+1)]
	t.buf[0] = 1
	for pass := 0; pass < 2; pass++ {
		for f := 0; f < n; f++ {
			if !p.Tuples[f].Lead {
				continue
			}
			members := p.GroupMembers(p.Tuples[f].Group)
			mass := 0.0
			for c, q := range members {
				mass += p.Tuples[q].Prob
				hi := n
				if c+1 < len(members) {
					hi = members[c+1]
				}
				t.place(q+1, hi, mass, pass == 1)
			}
		}
		if pass == 0 {
			// off[v] becomes the end of node v's factors, which is node
			// v+1's start; filling decrements it back to node v's start.
			for v := 1; v < len(t.off); v++ {
				t.off[v] += t.off[v-1]
			}
			total := int(t.off[len(t.off)-1])
			t.mass = slices.Grow(t.mass[:0], total)[:total]
		}
	}
}

// place puts the factor mass on the canonical nodes of positions [lo, hi):
// it counts them when fill is false and stores them when it is true.
func (t *rankTree) place(lo, hi int, mass float64, fill bool) {
	for l, r := lo+t.size, hi+t.size; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			t.put(l, mass, fill)
			l++
		}
		if r&1 == 1 {
			r--
			t.put(r, mass, fill)
		}
	}
}

func (t *rankTree) put(v int, mass float64, fill bool) {
	if !fill {
		t.off[v]++
		return
	}
	t.off[v]--
	t.mass[t.off[v]] = mass
}

// walk applies node v's factors to the count vector src of its parent and
// descends to its children, down to the leaves. v covers the positions
// from lo on; depth is its level below the root. A node with no factors
// passes src on unchanged; otherwise its vector goes to the buffer of its
// level, which no node between it and its leaves writes.
func (t *rankTree) walk(v, lo, depth int, src []float64, leaf func(int, []float64)) {
	if lo >= t.n {
		return
	}
	if f := t.mass[t.off[v]:t.off[v+1]]; len(f) > 0 {
		k := t.k
		dst := t.buf[1+depth*(k+1) : 1+(depth+1)*(k+1)]
		top := copy(dst, src) - 1
		// Only the non-zero prefix dst[:top+1] moves; dst[k] saturates.
		for _, m := range f {
			hi := min(top, k-1)
			if top < k {
				top++
				dst[top] = 0
			}
			for c := hi; c >= 0; c-- {
				moved := dst[c] * m
				dst[c] -= moved
				dst[c+1] += moved
			}
		}
		t.applied += len(f)
		src = dst[:top+1]
	}
	if v >= t.size {
		leaf(lo, src)
		return
	}
	half := t.size >> (depth + 1)
	t.walk(2*v, lo, depth+1, src, leaf)
	t.walk(2*v+1, lo+half, depth+1, src, leaf)
}
