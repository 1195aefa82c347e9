package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"probtopk/internal/core"
	"probtopk/internal/uncertain"
	"probtopk/internal/worlds"
)

// configurationMass is the probability of vec's configuration (Theorem 3):
// vec's tuples appear and no other tuple ranked above vec's lowest-ranked
// one does. The main algorithm builds exactly the vectors whose
// configuration has positive probability.
func configurationMass(p *uncertain.Prepared, vec []int) float64 {
	deepest := 0
	touched := make(map[int]bool, len(vec))
	m := 1.0
	for _, pos := range vec {
		deepest = max(deepest, pos)
		touched[p.Tuples[pos].Group] = true
		m *= p.Tuples[pos].Prob
	}
	for g := 0; g < p.NumGroups(); g++ {
		if !touched[g] {
			m *= max(0, 1-p.PrefixMass(g, deepest))
		}
	}
	return m
}

// TestUTopkOneLine is the differential test of the claim on
// pmf.Dist.MaxVecProbLine: merging lines never loses the most probable
// vector, so a run capped at 1, 2 or 5 lines finds the U-Topk vector. On
// -baselines.n random tables of each family — heavy score ties, exactly
// tied probabilities, ME groups of mass up to 1, tuples of probability 1,
// and CarTel-shaped tables whose groups all have mass 1 — at k from 1 to 4,
// every capped run's most probable vector has the probability world
// enumeration (worlds.ExactVectorProbs) gives the most probable vector
// among those whose configuration has positive probability, within 1e-12,
// and its tracked probability is its own exact probability.
//
// The restriction is the main algorithm's, not the cap's: a vector whose
// every configuration has probability 0 — a group of mass 1 whose members
// above the vector tie with its lowest score — is a top-k vector in worlds
// the distribution credits to a tied vector, and no line carries it, capped
// or exact. The test counts the tables where such a vector is the U-Topk
// answer and logs them.
func TestUTopkOneLine(t *testing.T) {
	families := []struct {
		name string
		gen  func(*rand.Rand) *uncertain.Table
	}{
		{"tied/ME", func(r *rand.Rand) *uncertain.Table { return rankTable(r, 2, 10, 0.05, 0.3) }},
		{"certain", func(r *rand.Rand) *uncertain.Table { return rankTable(r, 2, 10, 0.3, 0.3) }},
		{"cartel", func(r *rand.Rand) *uncertain.Table { return cartelTable(r, 2+r.Intn(3), 4) }},
	}
	tables, hidden := 0, 0
	for fi, fam := range families {
		r := rand.New(rand.NewSource(int64(90 + fi)))
		for c := 0; c < *baselineCases; c++ {
			p := prep(t, fam.gen(r))
			k := 1 + r.Intn(4)
			probs, err := worlds.ExactVectorProbs(p, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, all := 0.0, 0.0
			for key, pr := range probs {
				all = max(all, pr)
				if vec := parseKey(t, key); configurationMass(p, vec) > 0 {
					want = max(want, pr)
				}
			}
			if all > want+1e-12 {
				hidden++
			}
			tables++
			for _, maxLines := range []int{1, 2, 5} {
				name := fmt.Sprintf("%s case %d (n=%d k=%d lines=%d)", fam.name, c, p.Len(), k, maxLines)
				res, err := core.Distribution(p, core.Params{K: k, MaxLines: maxLines, TrackVectors: true})
				if err != nil {
					t.Fatal(err)
				}
				line, ok := res.Dist.MaxVecProbLine()
				if !ok {
					if want > 0 {
						t.Fatalf("%s: no vector, oracle %v", name, want)
					}
					continue
				}
				vec := line.Vec.Slice()
				if got := core.VectorProb(p, vec); math.Abs(got-line.VecProb) > 1e-12 {
					t.Fatalf("%s: vector %v tracked at %v, its probability is %v", name, vec, line.VecProb, got)
				}
				if math.Abs(line.VecProb-want) > 1e-12 {
					t.Fatalf("%s: U-Topk probability %v, oracle %v", name, line.VecProb, want)
				}
			}
		}
	}
	t.Logf("%d tables; on %d the most probable vector has no configuration of positive probability", tables, hidden)
}

// parseKey parses a worlds.VecKey back into prepared positions.
func parseKey(t *testing.T, key string) []int {
	t.Helper()
	var vec []int
	for _, part := range strings.Split(key, ",") {
		pos, err := strconv.Atoi(part)
		if err != nil {
			t.Fatalf("vector key %q: %v", key, err)
		}
		vec = append(vec, pos)
	}
	return vec
}

// BenchmarkUTopk is the one-line U-Topk run on synthetic tables.
func BenchmarkUTopk(b *testing.B) {
	for _, n := range []int{200, 2000} {
		p := synthPrepared(b, n, 1)
		for _, k := range []int{2, 10} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := UTopk(p, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
