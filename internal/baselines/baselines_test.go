package baselines

import (
	"math"
	"math/rand"
	"testing"

	"probtopk/internal/fixtures"
	"probtopk/internal/uncertain"
	"probtopk/internal/worlds"
)

func prep(t *testing.T, tab *uncertain.Table) *uncertain.Prepared {
	t.Helper()
	p, err := uncertain.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracleRankProbs computes Pr(position i at rank r) by world enumeration,
// ranking tuples inside a world by prepared position (the deterministic
// (score, prob) order).
func oracleRankProbs(t *testing.T, p *uncertain.Prepared, k int) [][]float64 {
	t.Helper()
	out := make([][]float64, p.Len())
	for i := range out {
		out[i] = make([]float64, k)
	}
	worlds.Enumerate(p, func(w worlds.World) bool {
		for r, pos := range w.Present {
			if r >= k {
				break
			}
			out[pos][r] += w.Prob
		}
		return true
	})
	return out
}

func TestSoldierUTopk(t *testing.T) {
	p := prep(t, fixtures.Soldier())
	vec, prob, err := UTopk(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := p.IDs(vec)
	if len(ids) != 2 || ids[0] != "T2" || ids[1] != "T6" {
		t.Fatalf("U-Top2 = %v, want [T2 T6]", ids)
	}
	if math.Abs(prob-fixtures.SoldierUTopkProb) > 1e-12 {
		t.Fatalf("prob = %v, want %v", prob, fixtures.SoldierUTopkProb)
	}
}

func TestUTopkAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		tab := uncertain.NewTable()
		n := 3 + r.Intn(8)
		for i := 0; i < n; i++ {
			g := ""
			if r.Intn(2) == 0 {
				g = string(rune('a' + r.Intn(3)))
			}
			tab.Add(uncertain.Tuple{ID: "t", Score: float64(r.Intn(20)) + r.Float64(),
				Prob: 0.05 + 0.28*r.Float64(), Group: g})
		}
		if tab.Validate() != nil {
			continue
		}
		p := prep(t, tab)
		k := 1 + r.Intn(3)
		wantVec, wantProb, err := worlds.UTopkOracle(p, k, 1_000_000)
		if err != nil || wantVec == nil {
			continue
		}
		_, prob, err := UTopk(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(prob-wantProb) > 1e-9 {
			t.Fatalf("trial %d: U-Topk prob %v, oracle %v", trial, prob, wantProb)
		}
	}
}

func TestUTopkNoVector(t *testing.T) {
	p := prep(t, fixtures.Soldier())
	if _, _, err := UTopk(p, 50); err == nil {
		t.Fatal("expected error when no top-k vector exists")
	}
}

func TestRankProbsAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		tab := uncertain.NewTable()
		n := 3 + r.Intn(8)
		for i := 0; i < n; i++ {
			g := ""
			if r.Intn(3) == 0 {
				g = string(rune('a' + r.Intn(2)))
			}
			score := float64(r.Intn(6)) // frequent ties
			tab.Add(uncertain.Tuple{ID: "t", Score: score, Prob: 0.05 + 0.4*r.Float64(), Group: g})
		}
		if tab.Validate() != nil {
			continue
		}
		p := prep(t, tab)
		k := 1 + r.Intn(4)
		want := oracleRankProbs(t, p, k)
		got, err := RankProbs(p, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for rr := 0; rr < k; rr++ {
				if math.Abs(got[i][rr]-want[i][rr]) > 1e-9 {
					t.Fatalf("trial %d: Pr(pos %d at rank %d) = %v, oracle %v",
						trial, i, rr+1, got[i][rr], want[i][rr])
				}
			}
		}
		// InTopkProbs is the row sum of rank probabilities.
		inTopk, err := InTopkProbs(p, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			var sum float64
			for rr := 0; rr < k; rr++ {
				sum += want[i][rr]
			}
			if math.Abs(inTopk[i]-sum) > 1e-9 {
				t.Fatalf("trial %d: InTopk(pos %d) = %v, oracle %v", trial, i, inTopk[i], sum)
			}
		}
	}
}

func TestSoldierUKRanks(t *testing.T) {
	p := prep(t, fixtures.Soldier())
	answers, err := UKRanks(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %+v", answers)
	}
	// Rank 1: Pr(T7 first) = 0.3; Pr(T3 first) = (1-0.3)·0.4 = 0.28;
	// Pr(T4 first) = (1-.3)(1-.4)·.3 = 0.126; Pr(T2) = (1-.3)(1-.4)·... T2 is
	// in T7/T4's group: Pr = 0.4·(1-0.4) = 0.24. So rank 1 is T7.
	if id := p.Tuples[answers[0].Position].ID; id != "T7" {
		t.Fatalf("rank 1 = %s, want T7", id)
	}
	if math.Abs(answers[0].Prob-0.3) > 1e-12 {
		t.Fatalf("rank 1 prob = %v, want 0.3", answers[0].Prob)
	}
	for _, a := range answers {
		if a.Position < 0 || a.Prob <= 0 {
			t.Fatalf("degenerate answer %+v", a)
		}
	}
}

// TestUKRanksDuplicateTuple reproduces the §1 observation that U-kRanks can
// return the same tuple at multiple ranks: a dominant high-probability tuple
// wins both rank 1 and rank 2 against a sea of low-probability tuples.
func TestUKRanksDuplicateTuple(t *testing.T) {
	tab := uncertain.NewTable()
	tab.AddIndependent("big", 100, 0.9)
	for i := 0; i < 12; i++ {
		tab.AddIndependent("small", float64(90-i), 0.1)
	}
	p := prep(t, tab)
	answers, err := UKRanks(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tuples[answers[0].Position].ID != "big" {
		t.Fatal("rank 1 should be the dominant tuple")
	}
	if answers[0].Position == answers[1].Position {
		return // duplicate observed, as the paper describes
	}
	// With these numbers rank 2's winner is a small tuple only if some small
	// tuple beats Pr(big at rank 2) = 0; big never ranks 2nd (nothing above
	// it), so rank 2 differs here — make the scenario sharper instead.
	// Rank 1: big wins with 0.95·(1−0.4) = 0.57 > 0.4 (above).
	// Rank 2: big wins with 0.95·0.4 = 0.38 (above can never rank 2nd).
	tab2 := uncertain.NewTable()
	tab2.AddIndependent("above", 200, 0.4)
	tab2.AddIndependent("big", 100, 0.95)
	for i := 0; i < 12; i++ {
		tab2.AddIndependent("small", float64(90-i), 0.08)
	}
	p2 := prep(t, tab2)
	answers, err = UKRanks(p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Tuples[answers[0].Position].ID != "big" || p2.Tuples[answers[1].Position].ID != "big" {
		t.Fatalf("expected 'big' to win both ranks, got %s / %s",
			p2.Tuples[answers[0].Position].ID, p2.Tuples[answers[1].Position].ID)
	}
}

func TestPTk(t *testing.T) {
	p := prep(t, fixtures.Soldier())
	probs, err := InTopkProbs(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PTk(p, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range got {
		if probs[pos] < 0.3 {
			t.Fatalf("position %d has prob %v < threshold", pos, probs[pos])
		}
	}
	for i, pr := range probs {
		if pr >= 0.3 {
			found := false
			for _, pos := range got {
				if pos == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("position %d (prob %v) missing from PT-k", i, pr)
			}
		}
	}
	if _, err := PTk(p, 2, 0); err == nil {
		t.Fatal("threshold 0 should error")
	}
	if _, err := PTk(p, 2, 1.5); err == nil {
		t.Fatal("threshold > 1 should error")
	}
}

func TestGlobalTopk(t *testing.T) {
	p := prep(t, fixtures.Soldier())
	got, err := GlobalTopk(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d positions", len(got))
	}
	probs, _ := InTopkProbs(p, 3)
	// Result must be the 3 highest in-top-k probabilities, descending.
	for i := 1; i < len(got); i++ {
		if probs[got[i]] > probs[got[i-1]]+1e-12 {
			t.Fatal("Global-Topk not sorted by probability")
		}
	}
	for i, pr := range probs {
		inAnswer := false
		for _, pos := range got {
			if pos == i {
				inAnswer = true
			}
		}
		if !inAnswer {
			for _, pos := range got {
				if probs[pos] < pr-1e-12 {
					t.Fatalf("excluded position %d (%v) beats included %d (%v)", i, pr, pos, probs[pos])
				}
			}
		}
	}
	if _, err := GlobalTopk(p, 100); err == nil {
		t.Fatal("k > n should error")
	}
}

func TestKValidation(t *testing.T) {
	p := prep(t, fixtures.Soldier())
	if _, err := InTopkProbs(p, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := RankProbs(p, -1); err == nil {
		t.Fatal("negative k should error")
	}
	if _, err := UKRanks(p, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

// mapHigherRankCounts is higherRankCounts as it was written before it read
// the prepared per-group prefix masses: it summed each group's members above
// i into a map, in rank order.
func mapHigherRankCounts(p *uncertain.Prepared, i, skipGroup, maxCount int) []float64 {
	var masses []float64
	seen := make(map[int]float64)
	order := make([]int, 0, i)
	for pos := 0; pos < i; pos++ {
		g := p.Tuples[pos].Group
		if g == skipGroup {
			continue
		}
		if _, ok := seen[g]; !ok {
			order = append(order, g)
		}
		seen[g] += p.Tuples[pos].Prob
	}
	for _, g := range order {
		masses = append(masses, seen[g])
	}
	counts := make([]float64, maxCount+1)
	counts[0] = 1
	for _, m := range masses {
		for c := maxCount; c >= 0; c-- {
			moved := counts[c] * m
			counts[c] -= moved
			if c < maxCount {
				counts[c+1] += moved
			} else {
				counts[c] += moved
			}
		}
	}
	return counts
}

// TestHigherRankCountsBitIdentical: reading the prefix masses gives the
// map-based counts bit for bit, on random tables with heavy ties and ME
// groups, for every position and the skip groups InTopkProbs and RankProbs
// use (the tuple's own group) as well as none.
func TestHigherRankCountsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		tab := uncertain.NewTable()
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			group := ""
			if r.Float64() < 0.6 {
				group = string(rune('a' + r.Intn(6)))
			}
			tab.Add(uncertain.Tuple{ID: "t", Score: float64(r.Intn(5)), Prob: 0.01 + 0.15*r.Float64(), Group: group})
		}
		if tab.Validate() != nil {
			continue
		}
		p := prep(t, tab)
		k := 1 + r.Intn(6)
		for i := 0; i < p.Len(); i++ {
			for _, skip := range []int{p.Tuples[i].Group, -1} {
				got, want := higherRankCounts(p, i, skip, k), mapHigherRankCounts(p, i, skip, k)
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("trial %d position %d skip %d: counts %v, map-based %v", trial, i, skip, got, want)
					}
				}
			}
		}
	}
}
