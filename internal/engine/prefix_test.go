package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probtopk/internal/core"
	"probtopk/internal/pmf"
	"probtopk/internal/typical"
	"probtopk/internal/uncertain"
)

// prefixTable draws a table for the prefix-vs-full differential: scores
// from a small palette, so tie groups are long and straddle any cut;
// independent tuples with probabilities up to 1; and ME groups whose
// members spread over the whole score range, half of them with mass
// exactly 1. Insertion order is shuffled.
func prefixTable(r *rand.Rand, n int) []uncertain.Tuple {
	var out []uncertain.Tuple
	probs := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 1}
	groups := [][]float64{
		{0.5, 0.5}, {0.25, 0.25, 0.5}, {0.25, 0.25, 0.25, 0.25}, // mass 1
		{0.3, 0.2}, {0.1, 0.4, 0.2}, {0.05, 0.05, 0.05},
	}
	for len(out) < n {
		if r.Intn(3) == 0 {
			g := fmt.Sprintf("g%d", len(out))
			for j, p := range groups[r.Intn(len(groups))] {
				out = append(out, uncertain.Tuple{ID: fmt.Sprintf("%s.%d", g, j), Score: float64(r.Intn(40)), Prob: p, Group: g})
			}
			continue
		}
		out = append(out, uncertain.Tuple{ID: fmt.Sprintf("t%d", len(out)), Score: float64(r.Intn(40)), Prob: probs[r.Intn(len(probs))]})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// viewSnapshot freezes tuples as a snapshot carrying a fresh, never
// materialized index view, as the server publishes after an append.
func viewSnapshot(t *testing.T, tuples []uncertain.Tuple) *uncertain.Snapshot {
	t.Helper()
	idx, err := uncertain.NewIndexOf(tuples)
	if err != nil {
		t.Fatal(err)
	}
	s := uncertain.NewSnapshot(tuples)
	s.SetIndexView(idx.Freeze())
	return s
}

// sameAnswer checks a result computed over prep against one computed over
// the whole form full: work counters, lines and vectors (as tuple ids) must
// be bit-identical.
func sameAnswer(t *testing.T, label string, prep, full *uncertain.Prepared, got, want *core.Result) {
	t.Helper()
	if got.ScanDepth != want.ScanDepth || got.Units != want.Units || got.Cells != want.Cells {
		t.Fatalf("%s: depth/units/cells %d/%d/%d, want %d/%d/%d", label,
			got.ScanDepth, got.Units, got.Cells, want.ScanDepth, want.Units, want.Cells)
	}
	sameDist(t, label, got.Dist, want.Dist)
	sameLines(t, label, prep, full, got.Dist.Lines(), want.Dist.Lines())
}

func sameLines(t *testing.T, label string, prep, full *uncertain.Prepared, got, want []pmf.Line) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Score != w.Score || g.Prob != w.Prob || g.VecProb != w.VecProb ||
			fmt.Sprint(prep.IDs(g.Vec.Slice())) != fmt.Sprint(full.IDs(w.Vec.Slice())) {
			t.Fatalf("%s: line %d = %+v %v, want %+v %v", label, i,
				g, prep.IDs(g.Vec.Slice()), w, full.IDs(w.Vec.Slice()))
		}
	}
}

// TestPrepareScanMatchesFullForm is the prefix-vs-full differential: single,
// batch and typical main-algorithm queries answered from PrepareScan's rank
// prefix must equal the answers over the whole prepared form bit for bit,
// on tables whose tie groups and ME groups straddle the prefix end.
func TestPrepareScanMatchesFullForm(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	e := New()
	s := core.GetScratch()
	defer core.PutScratch(s)
	var queries, strict, tieCut, groupCut int
	var maxK int
	query := func() Query {
		q := Query{K: 1 + r.Intn(maxK), Threshold: math.Exp(math.Log(1e-6) + r.Float64()*(math.Log(0.5)-math.Log(1e-6)))}
		if r.Intn(20) == 0 {
			q.Threshold = 0 // exact: always the whole form
		}
		return q
	}
	for trial := 0; trial < 40; trial++ {
		tuples := prefixTable(r, 30+r.Intn(300))
		full, err := uncertain.NewSnapshot(tuples).Prepare()
		if err != nil {
			t.Fatal(err)
		}
		base := core.Params{TrackVectors: true, MaxLines: []int{0, 50, 200}[r.Intn(3)]}
		maxK = 8
		if base.MaxLines == 0 {
			maxK = 3 // uncapped distributions grow fast with k
		}
		for rep := 0; rep < 3; rep++ {
			// Single query, and the typical answers drawn from it.
			q := query()
			prep, err := e.PrepareScan(viewSnapshot(t, tuples), []Query{q})
			if err != nil {
				t.Fatal(err)
			}
			queries++
			if d := prep.Len(); d < full.Len() {
				strict++
				if start, end := full.TieGroup(d - 1); end-start > 1 {
					tieCut++
				}
				if straddles(full, d) {
					groupCut++
				}
			}
			params := base
			params.K, params.Threshold = q.K, q.Threshold
			label := fmt.Sprintf("trial %d k=%d ptau=%g lines=%d", trial, q.K, q.Threshold, base.MaxLines)
			got, err := core.DistributionScratch(prep, params, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.DistributionScratch(full, params, s)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, label, prep, full, got, want)
			if want.Dist.Len() > 0 {
				c := 1 + r.Intn(4)
				gt, err := typical.Select(got.Dist, c)
				if err != nil {
					t.Fatal(err)
				}
				wt, err := typical.Select(want.Dist, c)
				if err != nil {
					t.Fatal(err)
				}
				if gt.Cost != wt.Cost {
					t.Fatalf("%s: typical c=%d cost %v, want %v", label, c, gt.Cost, wt.Cost)
				}
				sameLines(t, label+" typical", prep, full, gt.Lines, wt.Lines)
			}

			// A batch, prepared for its members' largest bound.
			qs := make([]Query, 1+r.Intn(4))
			for i := range qs {
				qs[i] = query()
			}
			prep, err = e.PrepareScan(viewSnapshot(t, tuples), qs)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := e.BatchPrepared(prep, base, qs, 2)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := e.BatchPrepared(full, base, qs, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				sameAnswer(t, fmt.Sprintf("%s batch member %d", label, i), prep, full, gotB[i], wantB[i])
			}
		}
	}
	t.Logf("%d single queries: %d from a strict prefix, %d cutting after a multi-tuple tie group, %d inside an ME group",
		queries, strict, tieCut, groupCut)
	if strict < queries/2 || tieCut == 0 || groupCut == 0 {
		t.Fatalf("differential too weak: %d of %d strict prefixes, %d tie cuts, %d group cuts", strict, queries, tieCut, groupCut)
	}
}

// straddles reports whether some ME group has members on both sides of
// rank d in p.
func straddles(p *uncertain.Prepared, d int) bool {
	for i := 0; i < d; i++ {
		if m := p.GroupMembers(p.Tuples[i].Group); m[len(m)-1] >= d {
			return true
		}
	}
	return false
}

// TestPrepareScanFallsBack pins the cases that must keep the whole form,
// and with it every error: a view holding an overfull group (as a sliding
// window's can), an exact query, and a snapshot without a view.
func TestPrepareScanFallsBack(t *testing.T) {
	// The overfull group's second member sits at the bottom rank, below
	// any prefix a threshold could pick.
	tuples := []uncertain.Tuple{{ID: "top", Score: 100, Prob: 0.7, Group: "g"}}
	for i := 0; i < 50; i++ {
		tuples = append(tuples, uncertain.Tuple{ID: fmt.Sprintf("t%d", i), Score: float64(50 - i), Prob: 1})
	}
	tuples = append(tuples, uncertain.Tuple{ID: "bottom", Score: -1, Prob: 0.6, Group: "g"})
	idx, err := uncertain.NewIndexOf(tuples) // Insert defers group-mass checks
	if err != nil {
		t.Fatal(err)
	}
	snap := uncertain.NewSnapshot(tuples)
	snap.SetIndexView(idx.Freeze())
	_, want := snap.Prepare()
	if want == nil {
		t.Fatal("overfull group validated")
	}
	if _, err := New().PrepareScan(snap, []Query{{K: 1, Threshold: 0.01}}); err == nil || err.Error() != want.Error() {
		t.Fatalf("overfull view: err %v, want %v", err, want)
	}

	tuples[len(tuples)-1].Prob = 0.3
	for _, tc := range []struct {
		name string
		snap *uncertain.Snapshot
		q    Query
	}{
		{"exact", viewSnapshot(t, tuples), Query{K: 1}},
		{"no view", uncertain.NewSnapshot(tuples), Query{K: 1, Threshold: 0.01}},
	} {
		prep, err := New().PrepareScan(tc.snap, []Query{tc.q})
		if err != nil || prep.Len() != len(tuples) {
			t.Fatalf("%s: got %v (err %v), want the whole form", tc.name, prep, err)
		}
	}
	if prep, _ := New().PrepareScan(viewSnapshot(t, tuples), []Query{{K: 1, Threshold: 0.01}}); prep.Len() >= len(tuples) {
		t.Fatalf("valid view: got %v, want a strict prefix", prep)
	}
}
