package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probtopk/internal/pmf"
	"probtopk/internal/synth"
	"probtopk/internal/uncertain"
)

var sweepCases = flag.Int("sweep.n", 400, "number of random tables TestSweepMatchesPerUnit checks")

// sweepTable builds a random table over six distinct scores (heavy ties),
// with ME groups of two to four members, half of them of mass exactly 1 and
// the rest of mass in [0.9, 0.99), and some tuples of probability 1.
func sweepTable(r *rand.Rand) *uncertain.Table {
	pool := []float64{0.1, 0.3, 0.7, 1.1, 2, 2.5, 3.3, 5, 8.2, 13}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	scores := pool[:6]
	tab := uncertain.NewTable()
	n := 1 + r.Intn(22)
	for len(tab.Tuples()) < n {
		id := fmt.Sprintf("t%d", len(tab.Tuples()))
		switch x := r.Float64(); {
		case x < 0.35:
			size := 2 + r.Intn(3)
			probs := make([]float64, size)
			left := 1.0
			if r.Intn(2) == 0 {
				left = 0.9 + 0.09*r.Float64()
			}
			for i := range probs {
				if i == size-1 {
					probs[i] = left
					break
				}
				probs[i] = left * (0.15 + 0.5*r.Float64())
				left -= probs[i]
			}
			g := fmt.Sprintf("g%d", len(tab.Tuples()))
			for i, pr := range probs {
				tab.Add(uncertain.Tuple{ID: fmt.Sprintf("%s.%d", id, i), Score: scores[r.Intn(6)], Prob: pr, Group: g})
			}
		case x < 0.45:
			tab.Add(uncertain.Tuple{ID: id, Score: scores[r.Intn(6)], Prob: 1})
		default:
			tab.Add(uncertain.Tuple{ID: id, Score: scores[r.Intn(6)], Prob: 0.05 + 0.9*r.Float64()})
		}
	}
	return tab
}

// cartelSweepTable builds a random CarTel-shaped table: 3–8 segments, each
// one ME group of 2–5 members of mass 1, with scores from a pool of five so
// that ties cross groups. Every group spreads over the ranks, so the units'
// rows form many interleaving versions and the fold tree is deep.
func cartelSweepTable(r *rand.Rand) *uncertain.Table {
	pool := []float64{0.5, 1, 1.5, 2.5, 4}
	tab := uncertain.NewTable()
	for seg := 3 + r.Intn(6); seg > 0; seg-- {
		size := 2 + r.Intn(4)
		left := 1.0
		for i := 0; i < size; i++ {
			pr := left
			if i < size-1 {
				pr = left * (0.15 + 0.5*r.Float64())
			}
			left -= pr
			tab.Add(uncertain.Tuple{ID: fmt.Sprintf("s%d.%d", seg, i), Score: pool[r.Intn(len(pool))], Prob: pr, Group: fmt.Sprintf("s%d", seg)})
		}
	}
	return tab
}

// TestSweepMatchesPerUnit is the differential test of the fold tree against
// the per-unit reference (perUnitDistribution), which runs every row above
// every unit, on two families of random tables: sweepTable's, and the
// CarTel-shaped tables of cartelSweepTable at k ≤ 3.
//
//   - Exact (no line cap): the same lines, within 1e-12 in score,
//     probability and representative-vector probability — so the tree
//     elects a vector as probable as the reference's for every line.
//   - Capped at 50 and 200 lines: the same total mass within 1e-12, and
//     every line's VecProb equal to VectorProb of its vector.
//   - Everywhere: the same scan depth and unit count, no more cells than the
//     reference, and a parallel run bit-identical to the serial one.
//
// -sweep.n sets the number of random tables of each family.
func TestSweepMatchesPerUnit(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	rc := rand.New(rand.NewSource(19))
	checked := 0
	for c := -1; c < *sweepCases; c++ {
		tab := sweepTable(r)
		k := 1 + r.Intn(5)
		threshold := []float64{0, 0.01, 0.2}[r.Intn(3)]
		if c < 0 {
			// Case -1: ME groups whose members tie with later tuples. Sharing
			// a version with a unit whose tie group starts at or before the
			// version's last member applies a row whose skip factor depends
			// on the vector's boundary to merged columns, and the tree then
			// elects a less probable vector for the score-13.6 line at k=4.
			tab, k, threshold = tiedGroupTable(), 4, 0
		}
		cartel := cartelSweepTable(rc)
		if err := cartel.Validate(); err != nil {
			t.Fatalf("cartel case %d: %v", c, err)
		}
		checkSweep(t, fmt.Sprintf("cartel case %d", c), prep(t, cartel), 1+rc.Intn(3), []float64{0, 0.01, 0.2}[rc.Intn(3)])
		if tab.Validate() != nil {
			continue
		}
		checkSweep(t, fmt.Sprintf("case %d", c), prep(t, tab), k, threshold)
		checked++
	}
	if checked < *sweepCases/2 {
		t.Fatalf("only %d of %d random tables were valid", checked, *sweepCases)
	}
}

// checkSweep runs TestSweepMatchesPerUnit's checks on one table.
func checkSweep(t *testing.T, label string, p *uncertain.Prepared, k int, threshold float64) {
	t.Helper()
	for _, maxLines := range []int{0, 50, 200} {
		params := Params{K: k, Threshold: threshold, MaxLines: maxLines, TrackVectors: true, Parallelism: 1}
		name := fmt.Sprintf("%s (n=%d k=%d threshold=%v lines=%d)", label, p.Len(), k, threshold, maxLines)
		want, err := perUnitDistribution(p, params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Distribution(p, params)
		if err != nil {
			t.Fatal(err)
		}
		if got.ScanDepth != want.ScanDepth || got.Units != want.Units {
			t.Fatalf("%s: scan depth %d, units %d; reference %d, %d", name, got.ScanDepth, got.Units, want.ScanDepth, want.Units)
		}
		if got.Cells > want.Cells {
			t.Fatalf("%s: %d cells, reference %d", name, got.Cells, want.Cells)
		}
		if maxLines == 0 {
			sameLines(t, name, got.Dist, want.Dist)
		} else {
			if gm, wm := got.Dist.TotalMass(), want.Dist.TotalMass(); math.Abs(gm-wm) > 1e-12 {
				t.Fatalf("%s: total mass %v, reference %v", name, gm, wm)
			}
			for _, l := range got.Dist.Lines() {
				if vp := VectorProb(p, l.Vec.Slice()); l.Vec.Len() != k || math.Abs(vp-l.VecProb) > 1e-12 {
					t.Fatalf("%s: line %v vector %v has VecProb %v, VectorProb %v", name, l.Score, l.Vec.Slice(), l.VecProb, vp)
				}
			}
		}
		params.Parallelism = 3
		par, err := Distribution(p, params)
		if err != nil {
			t.Fatal(err)
		}
		if par.Cells != got.Cells || !slices.EqualFunc(par.Dist.Lines(), got.Dist.Lines(), identicalLine) {
			t.Fatalf("%s: parallel run differs from serial (%d vs %d cells)", name, par.Cells, got.Cells)
		}
	}
}

// tiedGroupTable is a table on which keeping tied versions private decides
// the representative vectors.
func tiedGroupTable() *uncertain.Table {
	tab := uncertain.NewTable()
	for _, tp := range []uncertain.Tuple{
		{ID: "a", Score: 5, Prob: 1},
		{ID: "b1", Score: 13, Prob: 0.29, Group: "b"},
		{ID: "b2", Score: 2, Prob: 0.69, Group: "b"},
		{ID: "c", Score: 0.1, Prob: 0.79},
		{ID: "d", Score: 5, Prob: 0.86},
		{ID: "e", Score: 0.1, Prob: 0.57},
		{ID: "f1", Score: 0.1, Prob: 0.23, Group: "f"},
		{ID: "f2", Score: 0.1, Prob: 0.76, Group: "f"},
		{ID: "g1", Score: 5, Prob: 0.57, Group: "g"},
		{ID: "g2", Score: 2, Prob: 0.22, Group: "g"},
		{ID: "g3", Score: 5, Prob: 0.21, Group: "g"},
		{ID: "h1", Score: 3.3, Prob: 0.34, Group: "h"},
		{ID: "h2", Score: 0.1, Prob: 0.31, Group: "h"},
		{ID: "h3", Score: 5, Prob: 0.28, Group: "h"},
		{ID: "i", Score: 0.1, Prob: 1},
		{ID: "j1", Score: 3.3, Prob: 0.31, Group: "j"},
		{ID: "j2", Score: 5, Prob: 0.69, Group: "j"},
		{ID: "k", Score: 0.3, Prob: 0.69},
		{ID: "l", Score: 5, Prob: 0.37},
		{ID: "m", Score: 0.1, Prob: 0.94},
		{ID: "n", Score: 0.1, Prob: 0.39},
	} {
		tab.Add(tp)
	}
	return tab
}

// sameLines asserts two exact distributions have the same lines within
// 1e-12 in score, probability and VecProb.
func sameLines(t *testing.T, name string, got, want *pmf.Dist) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d lines, reference %d\n got: %v\nwant: %v", name, got.Len(), want.Len(), got.Lines(), want.Lines())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Line(i), want.Line(i)
		if math.Abs(g.Score-w.Score) > 1e-12 || math.Abs(g.Prob-w.Prob) > 1e-12 || math.Abs(g.VecProb-w.VecProb) > 1e-12 {
			t.Fatalf("%s: line %d is (%v, %v, VecProb %v, %v), reference (%v, %v, VecProb %v, %v)",
				name, i, g.Score, g.Prob, g.VecProb, g.Vec.Slice(), w.Score, w.Prob, w.VecProb, w.Vec.Slice())
		}
	}
}

func identicalLine(a, b pmf.Line) bool {
	return a.Score == b.Score && a.Prob == b.Prob && a.VecProb == b.VecProb && a.VecBound == b.VecBound &&
		slices.Equal(a.Vec.Slice(), b.Vec.Slice())
}

// TestFoldTreeCells guards the sharing with counts. On the CarTel-style table
// of BenchmarkCartelGroups, whose groups of mass 1 interleave over the ranks,
// the fold tree makes at most a quarter of the per-unit reference's Combine
// calls (2,793 of 18,084); sharing only the rows above each unit's first
// straddling group made 71%. On BenchmarkColdK10's table it makes at most the
// 804 calls that sharing made.
func TestFoldTreeCells(t *testing.T) {
	p := prep(t, cartelGroups(40, 7))
	params := Params{K: 6, Threshold: 0.001, MaxLines: 200, TrackVectors: true}
	got, err := Distribution(p, params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := perUnitDistribution(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if 4*got.Cells > want.Cells {
		t.Errorf("CarTel-style table: %d cells, more than a quarter of the reference's %d", got.Cells, want.Cells)
	}

	tab, err := synth.Generate(synth.Config{Seed: 1}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	params.K = 10
	if got, err = Distribution(prep(t, tab), params); err != nil {
		t.Fatal(err)
	}
	if got.Cells > 804 {
		t.Errorf("synthetic table at k=10: %d cells, want at most 804", got.Cells)
	}
}
