package baselines

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"probtopk/internal/synth"
	"probtopk/internal/uncertain"
)

var baselineCases = flag.Int("baselines.n", 2000, "number of random tables of each family the rank-tree and U-Topk differentials check")

// rankTable builds a random table of minN–maxN tuples over a pool of six
// scores (heavy ties). A share of the tuples form ME groups of two to four
// members, half of them of mass exactly 1 and the rest of mass in
// [0.9, 0.99); a share certain of the rest have probability 1, and a share
// pooled draw their probability from a small pool, so that probabilities
// tie exactly.
func rankTable(r *rand.Rand, minN, maxN int, certain, pooled float64) *uncertain.Table {
	scores := []float64{0.1, 0.7, 2, 3.3, 5, 13}
	probs := []float64{0.125, 0.25, 0.5, 0.75}
	tab := uncertain.NewTable()
	n := minN + r.Intn(maxN-minN+1)
	for len(tab.Tuples()) < n {
		id := fmt.Sprintf("t%d", len(tab.Tuples()))
		switch x := r.Float64(); {
		case x < 0.35:
			size := 2 + r.Intn(3)
			left := 1.0
			if r.Intn(2) == 0 {
				left = 0.9 + 0.09*r.Float64()
			}
			for i := 0; i < size; i++ {
				pr := left
				if i < size-1 {
					pr = left * (0.15 + 0.5*r.Float64())
				}
				left -= pr
				tab.Add(uncertain.Tuple{ID: fmt.Sprintf("%s.%d", id, i), Score: scores[r.Intn(len(scores))], Prob: pr, Group: id})
			}
		case x < 0.35+certain:
			tab.Add(uncertain.Tuple{ID: id, Score: scores[r.Intn(len(scores))], Prob: 1})
		case x < 0.35+certain+pooled:
			tab.Add(uncertain.Tuple{ID: id, Score: scores[r.Intn(len(scores))], Prob: probs[r.Intn(len(probs))]})
		default:
			tab.Add(uncertain.Tuple{ID: id, Score: scores[r.Intn(len(scores))], Prob: 0.05 + 0.9*r.Float64()})
		}
	}
	return tab
}

// cartelTable builds a random CarTel-shaped table: the given number of road
// segments, each one ME group of two to maxSize members of mass exactly 1,
// with scores from a pool of five so that ties cross groups. Every group
// spreads over the ranks, so most positions lie inside several of its
// factor ranges.
func cartelTable(r *rand.Rand, segments, maxSize int) *uncertain.Table {
	pool := []float64{0.5, 1, 1.5, 2.5, 4}
	tab := uncertain.NewTable()
	for seg := 0; seg < segments; seg++ {
		size := 2 + r.Intn(maxSize-1)
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

// rankFamilies are the table families of the rank-tree differentials, each
// drawing tables of at most maxN tuples (CarTel-shaped tables: at most
// about maxN).
func rankFamilies(maxN int) []struct {
	name string
	gen  func(*rand.Rand) *uncertain.Table
} {
	return []struct {
		name string
		gen  func(*rand.Rand) *uncertain.Table
	}{
		{"tied/ME", func(r *rand.Rand) *uncertain.Table { return rankTable(r, 2, maxN, 0.05, 0.15) }},
		{"certain", func(r *rand.Rand) *uncertain.Table { return rankTable(r, 2, maxN, 0.4, 0.1) }},
		{"cartel", func(r *rand.Rand) *uncertain.Table { return cartelTable(r, 1+r.Intn(max(1, maxN/4)), 5) }},
	}
}

// TestRankTreeMatchesReference is the differential test of the rank tree
// against higherRankCounts, which rebuilds every position's count
// distribution from scratch: on -baselines.n random tables of each family
// (2–61 tuples) at every k from 1 to 6, every position's truncated counts
// agree within 1e-12.
func TestRankTreeMatchesReference(t *testing.T) {
	cases := 0
	for fi, fam := range rankFamilies(61) {
		r := rand.New(rand.NewSource(int64(70 + fi)))
		for c := 0; c < *baselineCases; c++ {
			tab := fam.gen(r)
			if err := tab.Validate(); err != nil {
				t.Fatalf("%s case %d: %v", fam.name, c, err)
			}
			p := prep(t, tab)
			for k := 1; k <= 6; k++ {
				rankCounts(p, k, func(i int, counts []float64) {
					want := higherRankCounts(p, i, p.Tuples[i].Group, k)
					for j, w := range want {
						var got float64
						if j < len(counts) {
							got = counts[j]
						}
						if math.Abs(got-w) > 1e-12 {
							t.Fatalf("%s case %d (n=%d k=%d) position %d: counts %v, reference %v", fam.name, c, p.Len(), k, i, counts, want)
						}
					}
				})
				cases++
			}
		}
	}
	t.Logf("%d (table, k) cases", cases)
}

// TestRankProbsMatchOracle checks RankProbs and InTopkProbs against
// world enumeration (oracleRankProbs) on -baselines.n random tables of
// each family small enough to enumerate (at most 12 tuples), within 1e-12.
func TestRankProbsMatchOracle(t *testing.T) {
	for fi, fam := range rankFamilies(12) {
		r := rand.New(rand.NewSource(int64(80 + fi)))
		for c := 0; c < *baselineCases; c++ {
			p := prep(t, fam.gen(r))
			k := 1 + r.Intn(5)
			want := oracleRankProbs(t, p, k)
			ranks, err := RankProbs(p, k)
			if err != nil {
				t.Fatal(err)
			}
			inTopk, err := InTopkProbs(p, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				var sum float64
				for rr := 0; rr < k; rr++ {
					sum += want[i][rr]
					if math.Abs(ranks[i][rr]-want[i][rr]) > 1e-12 {
						t.Fatalf("%s case %d (n=%d k=%d): Pr(position %d at rank %d) = %v, oracle %v", fam.name, c, p.Len(), k, i, rr+1, ranks[i][rr], want[i][rr])
					}
				}
				if math.Abs(inTopk[i]-sum) > 1e-12 {
					t.Fatalf("%s case %d (n=%d k=%d): in-top-k of position %d = %v, oracle %v", fam.name, c, p.Len(), k, i, inTopk[i], sum)
				}
			}
		}
	}
}

// synthPrepared is the synthetic workload of the given size and seed.
func synthPrepared(tb testing.TB, n int, seed int64) *uncertain.Prepared {
	tb.Helper()
	tab, err := synth.Generate(synth.Config{N: n, Seed: seed}.WithDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := uncertain.Prepare(tab)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestRankTreeFactorBound guards the tree's cost by counting work, not
// time: on a 25,000-tuple synthetic table it applies at most 2·n·⌈log₂ n⌉
// factors, where recomputing every position from scratch applies about
// n²/2.
func TestRankTreeFactorBound(t *testing.T) {
	p := synthPrepared(t, 25000, 1)
	n := p.Len()
	var tr rankTree
	tr.build(p, 10)
	leaves := 0
	tr.walk(1, 0, 0, tr.buf[:1], func(int, []float64) { leaves++ })
	if leaves != n {
		t.Fatalf("walk visited %d leaves, want %d", leaves, n)
	}
	bound := 2 * n * bits.Len(uint(n-1))
	if tr.applied > bound {
		t.Fatalf("%d factor applications on %d tuples, bound %d", tr.applied, n, bound)
	}
	t.Logf("%d factor applications on %d tuples (bound %d, from scratch about %d)", tr.applied, n, bound, n*n/2)
}

// TestInTopkProbsAllocs: a call allocates the same number of objects on
// 25,000 tuples as on 200 — the answer and a constant few, with the tree's
// storage reused through the pool. The pool may drop the tree (at a
// collection, and at random under the race detector), and the call after a
// drop allocates a fresh one, so each size counts the fewest objects that
// any of ten calls allocated.
func TestInTopkProbsAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		p := synthPrepared(t, n, 1)
		fewest := math.Inf(1)
		for range 10 {
			fewest = min(fewest, testing.AllocsPerRun(1, func() {
				if _, err := InTopkProbs(p, 10); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return fewest
	}
	small, large := allocs(200), allocs(25000)
	if large > small {
		t.Fatalf("InTopkProbs allocates %v objects per call at n=25,000, %v at n=200", large, small)
	}
}

// BenchmarkInTopkProbs is the category-2 primitive on synthetic tables.
// Only the tree runs here: the from-scratch reference takes seconds at
// 25,000 tuples.
func BenchmarkInTopkProbs(b *testing.B) {
	for _, n := range []int{200, 2000, 25000} {
		p := synthPrepared(b, n, 1)
		for _, k := range []int{10, 50} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := InTopkProbs(p, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
