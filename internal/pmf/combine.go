package pmf

import "sort"

// TakeBranch describes one "take" alternative of the paper's distribution
// merging step (2): shift a source distribution by Shift (the tuple's score),
// scale by Factor (the tuple's probability), and prepend Tuple to every
// recorded vector. Rule tuples contribute one branch per constituent tuple
// (§3.3.1, second attempt, kept for the working algorithm of §3.3.2).
type TakeBranch struct {
	Shift  float64
	Factor float64
	Tuple  int
}

// Combine implements the distribution merging process of §3.2 in one pass:
//
//	(1) every line (v, p) of skip becomes (v, p·skipFactor);
//	(2) for every branch b, every line (v, p) of take becomes
//	    (v + b.Shift, p·b.Factor) with b.Tuple prepended to its vector;
//	(3) the results are unioned, lines with equal scores combined by adding
//	    probabilities and keeping the higher-probability vector.
//
// skip or take may be nil/empty (treated as no-mass distributions, i.e. the
// blocked "(0,0)" exit points of §3.3.2). trackVectors controls whether
// representative vectors are maintained. The inputs are not modified.
//
// skipTrue, when non-nil, supplies the boundary-aware skip factor used for
// VecProb: given a line's VecBound (the score of its vector's last member),
// it returns the probability that the skipped row contributes no tuple
// *ranked strictly above that score*. Tuples tied with the boundary need not
// be absent for the vector to remain a top-k vector, so this keeps VecProb
// equal to the exact vector probability under ties (with or without ME
// groups). When skipTrue is nil, VecProb scales by skipFactor, which yields
// the paper's path-probability semantics instead.
//
// The output is built by an (#branches+1)-way merge of already-sorted
// sources, so the cost is O(L·(B+1)) for L lines and B branches.
func Combine(skip *Dist, skipFactor float64, take *Dist, branches []TakeBranch, trackVectors bool, skipTrue func(bound float64) float64) *Dist {
	return CombineInto(nil, skip, skipFactor, take, branches, trackVectors, skipTrue)
}

// CombineInto is Combine reusing dst's line storage when dst is non-nil.
// dst must not be one of the inputs. The dynamic program calls this once per
// cell, so recycling the previous generation's distributions removes the
// dominant allocation cost.
func CombineInto(dst *Dist, skip *Dist, skipFactor float64, take *Dist, branches []TakeBranch, trackVectors bool, skipTrue func(bound float64) float64) *Dist {
	return combineInto(dst, skip, skipFactor, take, branches, trackVectors, skipTrue, nil)
}

// mergeSrc is one already-sorted input stream of the N-way merge: a view of a
// source distribution's arrays plus the shift/scale of its branch.
type mergeSrc struct {
	scores  []float64
	probs   []float64
	vecs    []*Vector
	vprobs  []float64
	vbounds []float64
	pos     int
	shift   float64
	factor  float64
	tuple   int // -1 for the skip source
	hasVec  bool
}

// asSrc views d through branch (shift, factor, tuple).
func (d *Dist) asSrc(shift, factor float64, tuple int) mergeSrc {
	s := mergeSrc{
		scores: d.scores, probs: d.probs,
		shift: shift, factor: factor, tuple: tuple, hasVec: d.hasVec,
	}
	if d.hasVec {
		s.vecs, s.vprobs, s.vbounds = d.vecs, d.vprobs, d.vbounds
	}
	return s
}

// combineInto is the exact (non-coalescing) merge kernel. Vector nodes are
// allocated from ar when non-nil, from the heap otherwise.
func combineInto(dst *Dist, skip *Dist, skipFactor float64, take *Dist, branches []TakeBranch, trackVectors bool, skipTrue func(bound float64) float64, ar *VectorArena) *Dist {
	var buf [8]mergeSrc
	srcs := buf[:0]
	if skip != nil && len(skip.scores) > 0 && skipFactor > 0 {
		srcs = append(srcs, skip.asSrc(0, skipFactor, -1))
	}
	if take != nil && len(take.scores) > 0 {
		for _, b := range branches {
			if b.Factor > 0 {
				srcs = append(srcs, take.asSrc(b.Shift, b.Factor, b.Tuple))
			}
		}
	}
	out := dst
	if out == nil {
		out = New()
	}
	out.reset(trackVectors)
	if len(srcs) == 0 {
		return out
	}
	total := 0
	for i := range srcs {
		total += len(srcs[i].scores)
	}
	out.ensureCap(total)
	// Shifting by a constant preserves score order, so each source is sorted;
	// repeatedly pull the source with the smallest current score. The number
	// of sources is small (1 + group size), so a linear min scan is fine.
	for {
		best := -1
		var bestScore float64
		for i := range srcs {
			s := &srcs[i]
			if s.pos >= len(s.scores) {
				continue
			}
			sc := s.scores[s.pos] + s.shift
			if best == -1 || sc < bestScore {
				best, bestScore = i, sc
			}
		}
		if best == -1 {
			break
		}
		s := &srcs[best]
		p := s.pos
		s.pos++
		prob := s.probs[p] * s.factor
		if !trackVectors {
			out.appendLine(bestScore, prob)
			continue
		}
		var vec *Vector
		var vp, vb float64
		if s.tuple >= 0 {
			// Take: the tuple's own probability is the exact factor for the
			// vector probability too. A take onto an empty vector is the
			// vector's last (deepest) member and fixes the boundary.
			var inVec *Vector
			var inVP float64
			if s.hasVec {
				inVec, inVP, vb = s.vecs[p], s.vprobs[p], s.vbounds[p]
			}
			vec = ar.Prepend(inVec, s.tuple)
			vp = inVP * s.factor
			if inVec == nil {
				vb = s.shift
			}
		} else {
			if s.hasVec {
				vec, vp, vb = s.vecs[p], s.vprobs[p], s.vbounds[p]
			}
			if skipTrue != nil {
				vp *= skipTrue(vb)
			} else {
				vp *= s.factor
			}
		}
		out.appendLineVec(bestScore, prob, vec, vp, vb)
	}
	return out
}

// Merge unions two distributions (both scaled by 1), combining equal scores.
// Used to merge per-unit final distributions in the ME-handling algorithm.
func Merge(a, b *Dist) *Dist {
	if a == nil || len(a.scores) == 0 {
		if b == nil {
			return New()
		}
		return b.Clone()
	}
	if b == nil || len(b.scores) == 0 {
		return a.Clone()
	}
	return MergeInto(nil, a, b)
}

// MergeInto is Merge of two non-nil distributions into dst's line storage
// (a fresh distribution when dst is nil). dst must be neither a nor b. Lines
// closer than Eps combine as in Merge: probabilities add and the more
// probable representative vector stays.
func MergeInto(dst, a, b *Dist) *Dist {
	out := dst
	if out == nil {
		out = New()
	}
	out.reset(a.hasVec || b.hasVec)
	out.ensureCap(len(a.scores) + len(b.scores))
	i, j := 0, 0
	for i < len(a.scores) || j < len(b.scores) {
		src, x := b, j
		if j >= len(b.scores) || (i < len(a.scores) && a.scores[i] <= b.scores[j]) {
			src, x = a, i
			i++
		} else {
			j++
		}
		if !out.hasVec {
			out.appendLine(src.scores[x], src.probs[x])
			continue
		}
		var vec *Vector
		var vp, vb float64
		if src.hasVec {
			vec, vp, vb = src.vecs[x], src.vprobs[x], src.vbounds[x]
		}
		out.appendLineVec(src.scores[x], src.probs[x], vec, vp, vb)
	}
	return out
}

// MergeAll merges a set of distributions pairwise (tournament order, to keep
// intermediate sizes balanced).
func MergeAll(ds []*Dist) *Dist {
	switch len(ds) {
	case 0:
		return New()
	case 1:
		return ds[0].Clone()
	}
	work := append([]*Dist(nil), ds...)
	for len(work) > 1 {
		merged := work[:0]
		for i := 0; i < len(work); i += 2 {
			if i+1 < len(work) {
				merged = append(merged, Merge(work[i], work[i+1]))
			} else {
				merged = append(merged, work[i])
			}
		}
		work = merged
	}
	return work[0]
}

// Shift returns a copy of d with every score moved by delta.
func (d *Dist) Shift(delta float64) *Dist {
	c := d.Clone()
	for i := range c.scores {
		c.scores[i] += delta
	}
	return c
}

// Scale returns a copy of d with every probability multiplied by f.
func (d *Dist) Scale(f float64) *Dist {
	if f == 0 {
		return New()
	}
	c := d.Clone()
	for i := range c.probs {
		c.probs[i] *= f
	}
	for i := range c.vprobs {
		c.vprobs[i] *= f
	}
	return c
}

// distSorter co-sorts all parallel arrays by score.
type distSorter struct{ d *Dist }

func (s distSorter) Len() int           { return len(s.d.scores) }
func (s distSorter) Less(i, j int) bool { return s.d.scores[i] < s.d.scores[j] }
func (s distSorter) Swap(i, j int) {
	d := s.d
	d.scores[i], d.scores[j] = d.scores[j], d.scores[i]
	d.probs[i], d.probs[j] = d.probs[j], d.probs[i]
	if d.hasVec {
		d.vecs[i], d.vecs[j] = d.vecs[j], d.vecs[i]
		d.vprobs[i], d.vprobs[j] = d.vprobs[j], d.vprobs[i]
		d.vbounds[i], d.vbounds[j] = d.vbounds[j], d.vbounds[i]
	}
}

// sortByScore re-sorts lines after an operation that may break order.
func (d *Dist) sortByScore() {
	if sort.Float64sAreSorted(d.scores) {
		return
	}
	sort.Stable(distSorter{d})
}
