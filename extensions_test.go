package probtopk_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probtopk"
	"probtopk/internal/fixtures"
)

func TestVectorEditDistance(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{[]string{"T1", "T2"}, []string{"T2", "T1"}, 0},
		{[]string{"T1", "T2"}, []string{"T1", "T3"}, 1},
		{[]string{"T1", "T2"}, []string{"T3", "T4"}, 2},
		{[]string{"T1"}, nil, 1},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := probtopk.VectorEditDistance(c.a, c.b); got != c.want {
			t.Fatalf("VectorEditDistance(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestTypicalSpreadSoldier: the paper's 3-Typical-Top2 vectors (T2,T6),
// (T7,T6), (T7,T3) have pairwise edit distances 1, 2, 1.
func TestTypicalSpreadSoldier(t *testing.T) {
	lines, err := probtopk.CTypicalTopK(fixtures.Soldier(), 2, 3, probtopk.Exact())
	if err != nil {
		t.Fatal(err)
	}
	mean, max := probtopk.TypicalSpread(lines)
	if max != 2 {
		t.Fatalf("max = %d, want 2", max)
	}
	if math.Abs(mean-4.0/3.0) > 1e-12 {
		t.Fatalf("mean = %v, want 4/3", mean)
	}
	if m, x := probtopk.TypicalSpread(lines[:1]); m != 0 || x != 0 {
		t.Fatal("single vector should have zero spread")
	}
}

func TestExpectedRankTopK(t *testing.T) {
	got, err := probtopk.ExpectedRankTopK(fixtures.Soldier(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Rank < got[i-1].Rank {
			t.Fatal("not sorted by expected rank")
		}
	}
	// T5 (certain, expected rank 1.9) must be among the top 3: every other
	// tuple is absent with probability ≥ 0.5, inflating its expected rank.
	found := false
	for _, tp := range got {
		if tp.ID == "T5" {
			found = true
			if math.Abs(tp.Rank-1.9) > 1e-12 {
				t.Fatalf("E[rank T5] = %v, want 1.9", tp.Rank)
			}
		}
	}
	if !found {
		t.Fatalf("T5 missing from expected-rank top-3: %+v", got)
	}
	if _, err := probtopk.ExpectedRankTopK(fixtures.Soldier(), 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := probtopk.ExpectedRankTopK(nil, 2); err == nil {
		t.Fatal("nil table should error")
	}
}

func TestStreamPublicAPI(t *testing.T) {
	s, err := probtopk.NewStream(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probtopk.NewStream(0); err == nil {
		t.Fatal("capacity 0 should error")
	}
	for _, tp := range fixtures.Soldier().Tuples() {
		if _, err := s.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 7 || s.Capacity() != 7 {
		t.Fatalf("len=%d cap=%d", s.Len(), s.Capacity())
	}
	dist, err := s.TopKDistribution(2, probtopk.Exact())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.Mean()-fixtures.SoldierExpectedScore) > 1e-9 {
		t.Fatalf("windowed mean = %v", dist.Mean())
	}
	u, ok := dist.UTopK()
	if !ok || u.Vector[0] != "T2" || u.Vector[1] != "T6" {
		t.Fatalf("windowed U-Topk = %+v", u)
	}
	// Push one more reading for soldier2: T7 (oldest... T1) slides out.
	ev, err := s.Push(probtopk.Tuple{ID: "T8", Score: 10, Prob: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.ID != "T1" {
		t.Fatalf("evicted = %+v, want T1", ev)
	}
	if got := s.Tuples(); got[0].ID != "T7" {
		t.Fatalf("rank-ordered window head = %+v", got[0])
	}
	// Normalize option flows through.
	norm, err := s.TopKDistribution(2, &probtopk.Options{Threshold: -1, MaxLines: -1, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm.TotalMass()-1) > 1e-12 {
		t.Fatalf("normalized mass = %v", norm.TotalMass())
	}
}

// TestStreamMatchesBatchRandom: windowed queries equal batch queries over
// the same contents under default (approximate) options too.
func TestStreamMatchesBatchRandom(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	s, err := probtopk.NewStream(12)
	if err != nil {
		t.Fatal(err)
	}
	var recent []probtopk.Tuple
	for step := 0; step < 40; step++ {
		tp := probtopk.Tuple{ID: "t", Score: r.Float64() * 100, Prob: 0.1 + 0.8*r.Float64()}
		if _, err := s.Push(tp); err != nil {
			t.Fatal(err)
		}
		recent = append(recent, tp)
		if len(recent) > 12 {
			recent = recent[1:]
		}
		if step%7 != 6 {
			continue
		}
		batchTable := probtopk.NewTable()
		for _, bt := range recent {
			batchTable.Add(bt)
		}
		windowed, err := s.TopKDistribution(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := probtopk.TopKDistribution(batchTable, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(windowed.Mean()-batch.Mean()) > 1e-9 {
			t.Fatalf("step %d: windowed mean %v vs batch %v", step, windowed.Mean(), batch.Mean())
		}
		if math.Abs(windowed.TotalMass()-batch.TotalMass()) > 1e-9 {
			t.Fatalf("step %d: mass mismatch", step)
		}
	}
}

// TestParallelOptionPublic: Parallelism produces bit-identical results
// through the public API, at the default options (pruning and coalescing
// under fan-out) and for an exact query. The exact query runs on a table
// whose exact answer fits in memory: the uncapped k=5 answer over the
// 60-tuple table has millions of lines.
func TestParallelOptionPublic(t *testing.T) {
	table := func(n int) *probtopk.Table {
		tab := probtopk.NewTable()
		r := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			g := ""
			prob := 0.1 + 0.4*r.Float64()
			if i%2 == 0 {
				g = string(rune('a' + i/6)) // groups of ≤ 3 members
				prob = 0.05 + 0.25*r.Float64()
			}
			tab.Add(probtopk.Tuple{ID: fmt.Sprintf("t%d", i), Score: r.Float64() * 100, Prob: prob, Group: g})
		}
		return tab
	}
	for _, c := range []struct {
		name string
		n, k int
		opts probtopk.Options
	}{
		{"default", 60, 5, probtopk.Options{}},
		{"exact", 24, 4, probtopk.Options{Threshold: -1, MaxLines: -1}},
	} {
		tab := table(c.n)
		serial, err := probtopk.TopKDistribution(tab, c.k, &c.opts)
		if err != nil {
			t.Fatal(err)
		}
		par := c.opts
		par.Parallelism = 8
		fanned, err := probtopk.TopKDistribution(tab, c.k, &par)
		if err != nil {
			t.Fatal(err)
		}
		sameLines(t, c.name+": parallel vs serial", fanned, serial)
	}
}
