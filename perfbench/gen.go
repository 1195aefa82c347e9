package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"probtopk/perfbench/check"
)

// newRNG returns the generator of one input stream of a run. Every input
// the benchmark sends derives from (seed, stream), so a seed fixes the
// inputs; the stream separates tables, hot sets and each connection's
// request sequence.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// synthTable generates n tuples of the paper's §5.4 make-up: scores drawn
// from N(100, 60²) and probabilities from N(0.5, 0.2²) clamped into
// [0.02, 1], independently; scores rounded to multiples of 0.5, which
// makes ties; and mutually exclusive groups of 2–3 members 1–8 positions
// apart in score order. Upload order is shuffled.
//
// The groups follow a fixed pattern over the score order, repeating every
// 20 positions: one group of three at offsets 0, 3, 7 and two groups of two
// at offsets 10, 16 and 13, 19 (35% of the tuples grouped). The dynamic
// program runs once per non-leading group member inside the scan, so its
// cost follows where those members fall; a fixed pattern keeps that the
// same from seed to seed while scores, probabilities and ties vary.
func synthTable(r *rand.Rand, prefix string, n int) []check.Tuple {
	tuples := make([]check.Tuple, n)
	for i := range tuples {
		score := math.Round((100+60*r.NormFloat64())*2) / 2
		prob := math.Min(1, math.Max(0.02, 0.5+0.2*r.NormFloat64()))
		tuples[i] = check.Tuple{ID: fmt.Sprintf("%s-%d", prefix, i), Score: score, Prob: prob}
	}
	sort.SliceStable(tuples, func(a, b int) bool { return tuples[a].Score > tuples[b].Score })
	groups := 0
	for block := 0; block+20 <= n; block += 20 {
		for _, offsets := range [][]int{{0, 3, 7}, {10, 16}, {13, 19}} {
			name := fmt.Sprintf("%s-g%d", prefix, groups)
			groups++
			var sum float64
			for _, o := range offsets {
				tuples[block+o].Group = name
				sum += tuples[block+o].Prob
			}
			if sum > 0.98 {
				for _, o := range offsets {
					tuples[block+o].Prob *= 0.98 / sum
				}
			}
		}
	}
	r.Shuffle(n, func(a, b int) { tuples[a], tuples[b] = tuples[b], tuples[a] })
	return tuples
}

// cartelTable generates a CarTel-style congestion table (§5.1): each road
// segment has 40 delay measurements from a free-flow / congested / jammed
// mixture, binned into 2, 3, 4 or 5 bins (in turn, segment by segment);
// each non-empty bin is one tuple whose score is the paper's congestion
// score speed_limit / (length / delay) at the bin's mean delay and whose
// probability is the bin's relative frequency. A segment's bins form one
// exclusive group of total probability 1.
func cartelTable(r *rand.Rand, prefix string, segments int) []check.Tuple {
	var tuples []check.Tuple
	limits := []float64{30, 40, 50, 60, 80}
	for s := 0; s < segments; s++ {
		length := 100 + 1900*r.Float64()
		limit := limits[r.IntN(len(limits))]
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
			if counts[b] == 0 {
				continue
			}
			delay := sums[b] / float64(counts[b])
			tuples = append(tuples, check.Tuple{
				ID:    fmt.Sprintf("%s-s%d-b%d", prefix, s, b),
				Score: limit / (length / delay),
				Prob:  float64(counts[b]) / float64(len(samples)),
				Group: fmt.Sprintf("%s-s%d", prefix, s),
			})
		}
	}
	return tuples
}

// tinyTable generates a dozen tuples with small integer scores (many ties)
// and three exclusive groups, small enough to enumerate every possible
// world.
func tinyTable(r *rand.Rand) []check.Tuple {
	tuples := make([]check.Tuple, 12)
	for i := range tuples {
		tuples[i] = check.Tuple{
			ID:    fmt.Sprintf("tiny-%d", i),
			Score: float64(1 + r.IntN(9)),
			Prob:  float64(2+r.IntN(17)) * 0.05,
		}
	}
	for g, members := range [][]int{{0, 1, 2}, {3, 4}, {5, 6}} {
		var sum float64
		for _, m := range members {
			tuples[m].Group = fmt.Sprintf("tiny-g%d", g)
			sum += tuples[m].Prob
		}
		if sum > 0.95 {
			for _, m := range members {
				tuples[m].Prob = math.Round(tuples[m].Prob*0.95/sum*1000) / 1000
			}
		}
	}
	return tuples
}

// freshTuples generates a small append batch for an ingest writer: 1–3
// tuples of the §5.4 make-up with ids unique to (writer, batch), the first
// two sharing a new exclusive group three times in ten.
func freshTuples(r *rand.Rand, writer, batch int) []check.Tuple {
	out := make([]check.Tuple, 1+r.IntN(3))
	for i := range out {
		out[i] = check.Tuple{
			ID:    fmt.Sprintf("w%d-%d-%d", writer, batch, i),
			Score: math.Round((100+60*r.NormFloat64())*2) / 2,
			Prob:  math.Min(1, math.Max(0.02, 0.5+0.2*r.NormFloat64())),
		}
	}
	if len(out) >= 2 && r.Float64() < 0.3 {
		group := fmt.Sprintf("w%d-%d-g", writer, batch)
		scale := math.Min(1, 0.95/(out[0].Prob+out[1].Prob))
		for i := range 2 {
			out[i].Group = group
			out[i].Prob *= scale
		}
	}
	return out
}
