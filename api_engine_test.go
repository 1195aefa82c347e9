package probtopk_test

import (
	"math"
	"strings"
	"testing"

	"probtopk"
	"probtopk/internal/fixtures"
)

// sameLines asserts two public distributions are bit-identical.
func sameLines(t *testing.T, label string, got, want *probtopk.Distribution) {
	t.Helper()
	gl, wl := got.Lines(), want.Lines()
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", label, len(gl), len(wl))
	}
	for i := range wl {
		if gl[i].Score != wl[i].Score || gl[i].Prob != wl[i].Prob || gl[i].VectorProb != wl[i].VectorProb {
			t.Fatalf("%s: line %d = %+v, want %+v", label, i, gl[i], wl[i])
		}
		if strings.Join(gl[i].Vector, ",") != strings.Join(wl[i].Vector, ",") {
			t.Fatalf("%s: line %d vector %v, want %v", label, i, gl[i].Vector, wl[i].Vector)
		}
	}
}

// deepTable is built so the 0.001 default threshold actually prunes: with
// 40 high-probability tuples the Theorem-2 bound for (k=2, pτ=0.001) stops
// the scan around depth 21, while an exact query must scan all 40.
func deepTable() *probtopk.Table {
	tab := probtopk.NewTable()
	for i := 0; i < 40; i++ {
		tab.AddIndependent("t", float64(100-i), 0.9)
	}
	return tab
}

// TestThresholdSentinel pins the Options.Threshold sentinel behavior:
// the zero value (and nil options) means the 0.001 paper default — NOT
// "threshold zero" — and an exact computation requires a negative value
// (Exact()). This is a regression fence around the documented sentinel.
func TestThresholdSentinel(t *testing.T) {
	tab := deepTable()

	zero := mustDist(t, tab, 2, &probtopk.Options{})
	nilOpts := mustDist(t, tab, 2, nil)
	explicitDefault := mustDist(t, tab, 2, &probtopk.Options{Threshold: 0.001})
	exact := mustDist(t, tab, 2, probtopk.Exact())
	negative := mustDist(t, tab, 2, &probtopk.Options{Threshold: -1, MaxLines: -1})

	// Zero value and nil both resolve to the explicit 0.001 default.
	sameLines(t, "zero options vs explicit 0.001", zero, explicitDefault)
	sameLines(t, "nil options vs explicit 0.001", nilOpts, explicitDefault)
	if zero.ScanDepth != explicitDefault.ScanDepth {
		t.Fatalf("zero-Options scan depth %d != explicit default %d",
			zero.ScanDepth, explicitDefault.ScanDepth)
	}
	// Any negative threshold (with the line cap lifted) is the exact path.
	sameLines(t, "negative threshold vs Exact()", negative, exact)

	// The default threshold genuinely prunes this table, so the zero value
	// is observably NOT an exact-threshold-zero request.
	if exact.ScanDepth != tab.Len() {
		t.Fatalf("exact scan depth = %d, want the full table %d", exact.ScanDepth, tab.Len())
	}
	if zero.ScanDepth >= exact.ScanDepth {
		t.Fatalf("default threshold did not prune: scan depth %d vs exact %d",
			zero.ScanDepth, exact.ScanDepth)
	}
}

// TestStreamAlgorithmHonored: Stream.TopKDistribution must honor
// Options.Algorithm — the exact baselines agree with the main DP on the
// window contents, and an unknown algorithm errors.
func TestStreamAlgorithmHonored(t *testing.T) {
	s, err := probtopk.NewStream(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range fixtures.Soldier().Tuples() {
		if _, err := s.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	exact := probtopk.Exact()
	main, err := s.TopKDistribution(2, exact)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []probtopk.Algorithm{
		probtopk.AlgorithmStateExpansion, probtopk.AlgorithmKCombo,
	} {
		opts := *exact
		opts.Algorithm = alg
		got, err := s.TopKDistribution(2, &opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got.Len() != main.Len() {
			t.Fatalf("%v: %d lines, want %d", alg, got.Len(), main.Len())
		}
		for i, gl := range got.Lines() {
			wl := main.Lines()[i]
			if math.Abs(gl.Score-wl.Score) > 1e-9 || math.Abs(gl.Prob-wl.Prob) > 1e-9 {
				t.Fatalf("%v line %d: %+v vs main %+v", alg, i, gl, wl)
			}
		}
	}
	bad := &probtopk.Options{Algorithm: probtopk.Algorithm(42)}
	if _, err := s.TopKDistribution(2, bad); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm on a stream: err = %v, want unknown-algorithm error", err)
	}
}

// TestEngineCachedMatchesUncached: queries over a table's memoized
// snapshot return results bit-identical to a fresh, unprepared snapshot of
// the same tuples on every repeat, and the repeats share one prepared form.
func TestEngineCachedMatchesUncached(t *testing.T) {
	e := probtopk.NewEngine()
	tab := fixtures.Soldier()
	for i := 0; i < 5; i++ {
		a, err := e.TopKDistribution(tab, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.TopKDistributionSnapshot(probtopk.NewSnapshot(tab.Tuples()), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameLines(t, "memoized vs fresh snapshot", a, b)
	}
	p1, err := tab.Snapshot().Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := tab.Snapshot().Prepare(); p2 != p1 {
		t.Fatal("an unchanged table's snapshot prepared twice")
	}

	// Mutation mints a fresh snapshot: the result reflects the new contents.
	tab.AddIndependent("XL", 1000, 1)
	d, err := e.TopKDistribution(tab, 1, probtopk.Exact())
	if err != nil {
		t.Fatal(err)
	}
	if d.Max() != 1000 {
		t.Fatalf("after mutation max = %v, want the new tuple's 1000", d.Max())
	}
}

// TestEngineBatch: the public batch API matches per-query results, applies
// per-query thresholds with the documented sentinel, and supports fan-out.
func TestEngineBatch(t *testing.T) {
	e := probtopk.NewEngine()
	tab := fixtures.Soldier()
	queries := []probtopk.BatchQuery{
		{K: 1}, {K: 2}, {K: 2, Threshold: -1}, {K: 3, Threshold: 0.01},
	}
	for _, par := range []int{0, 3} {
		opts := &probtopk.Options{Parallelism: par}
		dists, err := e.TopKDistributionBatch(tab, queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(dists) != len(queries) {
			t.Fatalf("%d results for %d queries", len(dists), len(queries))
		}
		for i, q := range queries {
			want := mustDist(t, tab, q.K, &probtopk.Options{Threshold: q.Threshold})
			sameLines(t, "batch query", dists[i], want)
			if dists[i].K != q.K {
				t.Fatalf("query %d: K = %d, want %d", i, dists[i].K, q.K)
			}
		}
	}
	if _, err := e.TopKDistributionBatch(nil, queries, nil); err == nil {
		t.Fatal("nil table batch should error")
	}
	bad := &probtopk.Options{Algorithm: probtopk.AlgorithmKCombo}
	if _, err := e.TopKDistributionBatch(tab, queries, bad); err == nil {
		t.Fatal("non-main algorithm batch should error")
	}
}

// TestEngineCTypical: the engine's one-call c-Typical form matches the
// package-level one.
func TestEngineCTypical(t *testing.T) {
	e := probtopk.NewEngine()
	tab := fixtures.Soldier()
	got, err := e.CTypicalTopK(tab, 2, 3, probtopk.Exact())
	if err != nil {
		t.Fatal(err)
	}
	want, err := probtopk.CTypicalTopK(tab, 2, 3, probtopk.Exact())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d typical lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score || got[i].Prob != want[i].Prob {
			t.Fatalf("typical %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
