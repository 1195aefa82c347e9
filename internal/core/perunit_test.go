package core

import (
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// perUnitDistribution is the main algorithm without any sharing: one
// complete bottom-up DP per unit over every row above the unit, the per-unit
// answers merged in unit order. It is the reference of
// TestSweepMatchesPerUnit and is never used outside tests.
func perUnitDistribution(p *uncertain.Prepared, params Params) (*Result, error) {
	if err := params.validate(p); err != nil {
		return nil, err
	}
	s := new(Scratch)
	n := ScanDepth(p, params.K, params.Threshold)
	res := &Result{ScanDepth: n}
	units := p.UnitsPrefix(n)
	res.Units = len(units)
	s.grid.Arena = &s.arena
	var dists []*pmf.Dist
	for _, u := range units {
		if d := perUnitDP(perUnitRows(p, u), params, s, &res.Cells); !d.IsEmpty() {
			dists = append(dists, d)
		}
	}
	res.Dist = pmf.MergeAll(dists)
	s.co.Coalesce(res.Dist, params.MaxLines, params.CoalesceMode)
	if params.TrackVectors {
		res.Dist.NormalizeVectors()
	}
	res.Dist.DetachVectors()
	return res, nil
}

// perUnitRows constructs the DP rows for one unit.
//
// For a lead-tuple region [a, b): the rows are the compressed groups of
// positions [0, a) followed by the region's tuples, each an enabled exit
// point. For a non-lead tuple q: the rows are the compressed groups of
// positions [0, q) with q's own group removed, followed by the single row q,
// the only enabled exit point.
func perUnitRows(p *uncertain.Prepared, u uncertain.Unit) []row {
	var rows []row
	var skipGroup = -1
	if u.Kind == uncertain.UnitNonLead {
		skipGroup = p.Tuples[u.Start].Group
	}
	seen := make(map[int]bool)
	for pos := 0; pos < u.Start; pos++ {
		g := p.Tuples[pos].Group
		if g == skipGroup || seen[g] {
			continue
		}
		seen[g] = true
		var r row
		mass := 0.0
		for _, m := range p.GroupMembers(g) {
			if m >= u.Start {
				break
			}
			tp := p.Tuples[m]
			r.branches = append(r.branches, pmf.TakeBranch{Shift: tp.Score, Factor: tp.Prob, Tuple: m})
			mass += tp.Prob
		}
		if r.skipFactor = 1 - mass; r.skipFactor < 0 {
			r.skipFactor = 0
		}
		rows = append(rows, r)
	}
	for pos := u.Start; pos < u.End; pos++ {
		tp := p.Tuples[pos]
		rows = append(rows, row{
			skipFactor: 1 - tp.Prob,
			branches:   []pmf.TakeBranch{{Shift: tp.Score, Factor: tp.Prob, Tuple: pos}},
			exit:       true,
		})
	}
	return rows
}

// perUnitDP executes one bottom-up dynamic program over rows, computing
// every column at every row. The answer is dists[k] after the top row.
func perUnitDP(rows []row, params Params, s *Scratch, cells *int) *pmf.Dist {
	k := params.K
	dists := make([]*pmf.Dist, k+1)
	next := make([]*pmf.Dist, k+1)
	exitPoint := s.exitPoint()
	var cur *row
	var adjust func(float64) float64
	if params.TrackVectors {
		adjust = func(bound float64) float64 { return cur.skipTrue(bound) }
	}
	for i := len(rows) - 1; i >= 0; i-- {
		cur = &rows[i]
		r := cur
		for j := k; j >= 1; j-- {
			var take *pmf.Dist
			if j == 1 {
				if r.exit {
					take = exitPoint
				}
			} else {
				take = dists[j-1]
			}
			next[j] = s.grid.Combine(nil, dists[j], r.skipFactor, take, r.branches,
				params.MaxLines, params.CoalesceMode, params.TrackVectors, adjust)
			*cells++
		}
		for j := 1; j <= k; j++ {
			dists[j], next[j] = next[j], nil
		}
	}
	if dists[k] == nil {
		return pmf.New()
	}
	return dists[k]
}
