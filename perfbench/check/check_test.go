package check

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// soldier is the table of the paper's Example 1 (Figure 1): T2, T4, T7
// belong to soldier 2 and T3, T6 to soldier 3; T1 and T5 are independent.
func soldier() *Table {
	return NewTable([]Tuple{
		{ID: "T1", Score: 49, Prob: 0.4},
		{ID: "T2", Score: 60, Prob: 0.4, Group: "soldier2"},
		{ID: "T3", Score: 110, Prob: 0.4, Group: "soldier3"},
		{ID: "T4", Score: 80, Prob: 0.3, Group: "soldier2"},
		{ID: "T5", Score: 56, Prob: 1.0},
		{ID: "T6", Score: 58, Prob: 0.5, Group: "soldier3"},
		{ID: "T7", Score: 125, Prob: 0.3, Group: "soldier2"},
	})
}

// soldierTop2 is the paper's top-2 score distribution of the soldier
// table (Figure 3), one vector per score.
func soldierTop2() Dist {
	lines := []struct {
		score, prob float64
		vec         []string
	}{
		{116, 0.04, []string{"T2", "T5"}},
		{118, 0.20, []string{"T2", "T6"}},
		{136, 0.03, []string{"T4", "T5"}},
		{138, 0.15, []string{"T4", "T6"}},
		{170, 0.16, []string{"T3", "T2"}},
		{181, 0.03, []string{"T7", "T5"}},
		{183, 0.15, []string{"T7", "T6"}},
		{190, 0.12, []string{"T3", "T4"}},
		{235, 0.12, []string{"T7", "T3"}},
	}
	d := Dist{K: 2}
	for _, l := range lines {
		d.Lines = append(d.Lines, Line{Score: l.score, Prob: l.prob, Vector: l.vec, VectorProb: l.prob})
		d.TotalMass += l.prob
	}
	return d
}

func soldierTypical3() Typical {
	d := soldierTop2()
	typ := Typical{K: 2, C: 3, Cost: 6.6}
	for _, i := range []int{1, 6, 8} { // scores 118, 183, 235
		typ.Lines = append(typ.Lines, d.Lines[i])
	}
	return typ
}

func TestSoldierDistributionAccepted(t *testing.T) {
	tab, d := soldier(), soldierTop2()
	exact := tab.ExactDist(2)
	if len(exact) != len(d.Lines) {
		t.Fatalf("enumeration gives %d scores, the paper %d", len(exact), len(d.Lines))
	}
	for _, l := range d.Lines {
		if !near(exact[l.Score], l.Prob) {
			t.Errorf("score %v: enumeration %v, paper %v", l.Score, exact[l.Score], l.Prob)
		}
	}
	if err := CheckExact(tab, d, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := CheckDist(tab, d, 2, 200); err != nil {
		t.Fatal(err)
	}
	if p := tab.AtLeastK(2); !near(p, 1) {
		t.Fatalf("Pr(2 co-exist) = %v; T5 is certain and a second tuple always appears", p)
	}
}

func TestSoldierTypicalAccepted(t *testing.T) {
	if err := CheckTypical(soldierTop2(), soldierTypical3(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestWrongVectorProbRejected(t *testing.T) {
	d := soldierTop2()
	d.Lines[4].VectorProb = 0.15
	d.Lines[4].Prob = 0.15
	d.TotalMass -= 0.01
	if err := CheckDist(soldier(), d, 2, 0); err == nil || !strings.Contains(err.Error(), "formula") {
		t.Fatalf("wrong vectorProb accepted: %v", err)
	}
}

func TestMassAboveOneRejected(t *testing.T) {
	d := soldierTop2()
	d.Lines[0].Prob += 0.5
	d.TotalMass += 0.5
	if err := CheckDist(soldier(), d, 2, 0); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("mass %v accepted: %v", d.TotalMass, err)
	}
}

func TestMisorderedOrCappedLinesRejected(t *testing.T) {
	d := soldierTop2()
	d.Lines[2], d.Lines[3] = d.Lines[3], d.Lines[2]
	if err := CheckDist(soldier(), d, 2, 0); err == nil {
		t.Fatal("descending lines accepted")
	}
	if err := CheckDist(soldier(), soldierTop2(), 2, 5); err == nil {
		t.Fatal("9 lines accepted under a cap of 5")
	}
}

func TestMEViolationRejected(t *testing.T) {
	d := soldierTop2()
	d.Lines[8].Vector = []string{"T7", "T4"}
	if err := CheckDist(soldier(), d, 2, 0); err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Fatalf("vector breaking an ME rule accepted: %v", err)
	}
}

func TestTypicalCostMismatchRejected(t *testing.T) {
	typ := soldierTypical3()
	typ.Cost = 6.7
	if err := CheckTypical(soldierTop2(), typ, 3); err == nil {
		t.Fatal("typical cost 6.7 accepted; the paper's 3-typical cost is 6.6")
	}
	typ = soldierTypical3()
	typ.Lines[1] = soldierTop2().Lines[4] // 170 instead of 183
	typ.Cost = TypicalCost(soldierTop2(), []float64{118, 170, 235})
	if err := CheckTypical(soldierTop2(), typ, 3); err != nil {
		t.Fatalf("a consistent but suboptimal answer should pass the quantile bound: %v", err)
	}
}

func TestTypicalWorseThanQuantilesRejected(t *testing.T) {
	d := soldierTop2()
	typ := Typical{K: 2, C: 3, Lines: []Line{d.Lines[0], d.Lines[1], d.Lines[2]}}
	typ.Cost = TypicalCost(d, []float64{116, 118, 136})
	if err := CheckTypical(d, typ, 3); err == nil || !strings.Contains(err.Error(), "quantiles") {
		t.Fatalf("typical set far from the mass accepted: %v", err)
	}
}

// inTopK enumerates the soldier worlds: Pr(tuple present with fewer than k
// present tuples scoring higher).
func inTopK(tab *Table, k int) Baseline {
	b := Baseline{Semantic: "intopk", K: k}
	probs := make([]float64, tab.Len())
	members := make([][]int, len(tab.gmass))
	for i, g := range tab.groupOf {
		members[g] = append(members[g], i)
	}
	var present []int
	var walk func(g int, p float64)
	walk = func(g int, p float64) {
		if g == len(members) {
			sorted := append([]int(nil), present...)
			sort.Slice(sorted, func(a, b int) bool { return tab.tuples[sorted[a]].Score > tab.tuples[sorted[b]].Score })
			for r, i := range sorted {
				if r < k {
					probs[i] += p
				}
			}
			return
		}
		if rest := 1 - tab.gmass[g]; rest > 1e-12 {
			walk(g+1, p*rest)
		}
		for _, i := range members[g] {
			present = append(present, i)
			walk(g+1, p*tab.tuples[i].Prob)
			present = present[:len(present)-1]
		}
	}
	walk(0, 1)
	for i, tp := range tab.tuples {
		b.Tuples = append(b.Tuples, TupleProb{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, InTopK: probs[i]})
	}
	return b
}

func TestBaselinesAgree(t *testing.T) {
	tab := soldier()
	in := inTopK(tab, 2)
	if err := CheckInTopK(tab, in, 2); err != nil {
		t.Fatal(err)
	}
	var ptk, glob Baseline
	for _, r := range in.Tuples {
		if r.InTopK >= 0.3 {
			ptk.Tuples = append(ptk.Tuples, r)
		}
	}
	sorted := append([]TupleProb(nil), in.Tuples...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].InTopK > sorted[b].InTopK })
	glob.Tuples = sorted[:2]
	if err := CheckPTk(in, ptk, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := CheckGlobalTopK(in, glob, 2); err != nil {
		t.Fatal(err)
	}
	glob.Tuples = sorted[1:3]
	if err := CheckGlobalTopK(in, glob, 2); err == nil {
		t.Fatal("global top-2 without the most probable tuple accepted")
	}
	in.Tuples[0].InTopK += 0.01
	if err := CheckInTopK(tab, in, 2); err == nil {
		t.Fatal("in-top-k probabilities off by 0.01 accepted")
	}
}

func TestUTopKExhaustive(t *testing.T) {
	d := soldierTop2()
	u := Baseline{Semantic: "utopk", K: 2, Line: &d.Lines[1]} // <T2, T6>, 0.2
	if err := CheckUTopK(soldier(), u, 2, true); err != nil {
		t.Fatal(err)
	}
	u.Line = &d.Lines[4] // <T3, T2>, 0.16: not the most probable
	if err := CheckUTopK(soldier(), u, 2, true); err == nil {
		t.Fatal("less probable vector accepted as U-Top2")
	}
}

func TestTupleMissingAfterRestartRejected(t *testing.T) {
	ledger := soldier().Tuples()
	var csv strings.Builder
	csv.WriteString("id,score,prob,group\n")
	for _, tp := range ledger[:len(ledger)-1] {
		fmt.Fprintf(&csv, "%s,%v,%v,%s\n", tp.ID, tp.Score, tp.Prob, tp.Group)
	}
	got, err := ParseCSV([]byte(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := SameTuples(ledger[:len(ledger)-1], got); err != nil {
		t.Fatalf("identical tuples rejected: %v", err)
	}
	if err := SameTuples(ledger, got); err == nil {
		t.Fatal("download missing T7 accepted")
	}
}

func TestExpectedMinK(t *testing.T) {
	tab := NewTable([]Tuple{{ID: "a", Score: 1, Prob: 0.5}, {ID: "b", Score: 2, Prob: 0.5}})
	// |W| is 0, 1, 2 with probabilities ¼, ½, ¼.
	if e := tab.ExpectedMinK(1); math.Abs(e-0.75) > 1e-15 {
		t.Fatalf("E[min(1,|W|)] = %v, want 0.75", e)
	}
	if e := tab.ExpectedMinK(2); math.Abs(e-1) > 1e-15 {
		t.Fatalf("E[min(2,|W|)] = %v, want 1", e)
	}
}
