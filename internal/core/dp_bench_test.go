package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probtopk/internal/synth"
	"probtopk/internal/uncertain"
)

// BenchmarkColdK10 is the dynamic program in isolation — the serving
// figure's cold k=10 point minus HTTP and JSON — on the synthetic Seed-1
// workload. The SoA+arena kernels hold a cold query at a few thousand
// allocations, and a regression here shows up long before the serving gate
// trips.
func BenchmarkColdK10(b *testing.B) {
	tab, err := synth.Generate(synth.Config{Seed: 1}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	p, err := uncertain.Prepare(tab)
	if err != nil {
		b.Fatal(err)
	}
	params := Params{K: 10, Threshold: 0.001, MaxLines: 200, TrackVectors: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distribution(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// cartelGroups is a CarTel-style congestion table: each of the given road
// segments bins 40 delay samples into 2–5 tuples that form one ME group of
// mass 1, so every group's members spread over the rank order and few DP
// rows are shared between units.
func cartelGroups(segments int, seed int64) *uncertain.Table {
	r := rand.New(rand.NewSource(seed))
	tab := uncertain.NewTable()
	limits := []float64{30, 40, 50, 60, 80}
	for s := 0; s < segments; s++ {
		length := 100 + 1900*r.Float64()
		limit := limits[r.Intn(len(limits))]
		congestion := r.Float64()
		free := length / (limit / 3.6)
		samples := make([]float64, 40)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range samples {
			f := 1 + 0.3*r.Float64()
			switch u := r.Float64(); {
			case u < 0.3*congestion:
				f = 3 + 5*r.Float64()
			case u < congestion:
				f = 1.5 + 1.5*r.Float64()
			}
			samples[i] = free * f
			lo, hi = math.Min(lo, samples[i]), math.Max(hi, samples[i])
		}
		bins := 2 + s%4
		sums := make([]float64, bins)
		counts := make([]int, bins)
		for _, v := range samples {
			b := min(bins-1, int(float64(bins)*(v-lo)/(hi-lo+1e-9)))
			sums[b] += v
			counts[b]++
		}
		for b := range bins {
			if counts[b] > 0 {
				tab.Add(uncertain.Tuple{
					ID:    fmt.Sprintf("s%d-b%d", s, b),
					Score: limit / (length / (sums[b] / float64(counts[b]))),
					Prob:  float64(counts[b]) / float64(len(samples)),
					Group: fmt.Sprintf("s%d", s),
				})
			}
		}
	}
	return tab
}

// BenchmarkCartelGroups is the dynamic program on a 40-segment CarTel-style
// table (about 140 tuples), whose groups of mass 1 interleave over the ranks:
// the rows the units share form runs that no single chain of units covers.
func BenchmarkCartelGroups(b *testing.B) {
	p, err := uncertain.Prepare(cartelGroups(40, 7))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 4, 6, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			params := Params{K: k, Threshold: 0.001, MaxLines: 200, TrackVectors: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Distribution(p, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalGroups is the dynamic program on a 25,000-tuple table of the
// §5.4 make-up (scores on a 0.5 grid, 35% of the tuples in ME groups of 2–3
// members 1–8 positions apart), the shape of the tables the write-then-read
// traffic appends to: the Theorem-2 prefix holds a few dozen tuples, and
// most rows the units share are suffixes of the rank order.
func BenchmarkLocalGroups(b *testing.B) {
	tab, err := synth.Generate(synth.Config{N: 25000, TieQuantum: 0.5, MEPortion: 0.35, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := uncertain.Prepare(tab)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			params := Params{K: k, Threshold: 0.001, MaxLines: 200, TrackVectors: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Distribution(p, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCartelFanOut is an 80-segment CarTel-style table at k=10 run
// serially and fanned out over two workers. The fanned-out query hands
// columns between the helper Scratches and the main one; its bytes per
// query show whether their recycled distributions keep their storage.
func BenchmarkCartelFanOut(b *testing.B) {
	p, err := uncertain.Prepare(cartelGroups(80, 7))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			params := Params{K: 10, Threshold: 0.001, MaxLines: 200, TrackVectors: true, Parallelism: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Distribution(p, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
