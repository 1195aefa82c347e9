package uncertain

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func soldier() *Table {
	t := NewTable()
	t.AddIndependent("T1", 49, 0.4)
	t.AddExclusive("T2", "soldier2", 60, 0.4)
	t.AddExclusive("T3", "soldier3", 110, 0.4)
	t.AddExclusive("T4", "soldier2", 80, 0.3)
	t.AddIndependent("T5", 56, 1.0)
	t.AddExclusive("T6", "soldier3", 58, 0.5)
	t.AddExclusive("T7", "soldier2", 125, 0.3)
	return t
}

func TestValidate(t *testing.T) {
	if err := soldier().Validate(); err != nil {
		t.Fatalf("soldier table should validate: %v", err)
	}
	cases := []struct {
		name string
		tab  *Table
		want string
	}{
		{"zero prob", NewTable().AddIndependent("a", 1, 0), "probability"},
		{"negative prob", NewTable().AddIndependent("a", 1, -0.5), "probability"},
		{"prob above one", NewTable().AddIndependent("a", 1, 1.5), "probability"},
		{"nan score", NewTable().AddIndependent("a", math.NaN(), 0.5), "score"},
		{"inf score", NewTable().AddIndependent("a", math.Inf(1), 0.5), "score"},
		{"group overflow", NewTable().
			AddExclusive("a", "g", 1, 0.7).
			AddExclusive("b", "g", 2, 0.6), "total probability"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.tab.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestPrepareSortOrder(t *testing.T) {
	p, err := Prepare(soldier())
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"T7", "T3", "T4", "T2", "T6", "T5", "T1"}
	for i, want := range wantIDs {
		if p.Tuples[i].ID != want {
			t.Fatalf("position %d = %s, want %s", i, p.Tuples[i].ID, want)
		}
	}
}

func TestPrepareSortTieBreakByProb(t *testing.T) {
	tab := NewTable().
		AddIndependent("low", 8, 0.1).
		AddIndependent("hi", 8, 0.9).
		AddIndependent("mid", 8, 0.5)
	p, err := Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hi", "mid", "low"}
	for i, w := range want {
		if p.Tuples[i].ID != w {
			t.Fatalf("tie order wrong at %d: got %s want %s", i, p.Tuples[i].ID, w)
		}
	}
	s, e := p.TieGroup(1)
	if s != 0 || e != 3 {
		t.Fatalf("tie group = [%d,%d), want [0,3)", s, e)
	}
	if !p.HasTies() {
		t.Fatal("HasTies should be true")
	}
}

func TestPrepareEmpty(t *testing.T) {
	if _, err := Prepare(NewTable()); err != ErrEmptyTable {
		t.Fatalf("err = %v, want ErrEmptyTable", err)
	}
}

func TestGroups(t *testing.T) {
	p, err := Prepare(soldier())
	if err != nil {
		t.Fatal(err)
	}
	// Sorted order: T7 T3 T4 T2 T6 T5 T1.
	// soldier2 = {T7@0, T4@2, T2@3}; soldier3 = {T3@1, T6@4}.
	g2 := p.Tuples[0].Group
	if got := p.GroupMembers(g2); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("soldier2 members = %v", got)
	}
	if p.GroupSize(0) != 3 || p.GroupSize(1) != 2 || p.GroupSize(5) != 1 {
		t.Fatal("group sizes wrong")
	}
	if p.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", p.NumGroups())
	}
	// Leads: T7 (first of soldier2), T3 (first of soldier3), T5, T1.
	wantLead := map[string]bool{"T7": true, "T3": true, "T5": true, "T1": true}
	for _, tp := range p.Tuples {
		if tp.Lead != wantLead[tp.ID] {
			t.Fatalf("lead flag of %s = %v", tp.ID, tp.Lead)
		}
	}
	if m := p.MExclusiveCount(p.Len()); m != 5 {
		t.Fatalf("MExclusiveCount = %d, want 5", m)
	}
	if m := p.MExclusiveCount(2); m != 2 {
		t.Fatalf("MExclusiveCount(2) = %d, want 2", m)
	}
}

func TestPrefixMass(t *testing.T) {
	p, err := Prepare(soldier())
	if err != nil {
		t.Fatal(err)
	}
	g2 := p.Tuples[0].Group // soldier2: T7@0 (0.3), T4@2 (0.3), T2@3 (0.4)
	if got := p.PrefixMass(g2, 0); got != 0 {
		t.Fatalf("PrefixMass(0) = %v", got)
	}
	if got := p.PrefixMass(g2, 1); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("PrefixMass(1) = %v", got)
	}
	if got := p.PrefixMass(g2, 3); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("PrefixMass(3) = %v", got)
	}
	if got := p.PrefixMass(g2, 7); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("PrefixMass(7) = %v", got)
	}
	// At a member's own position the member is not yet counted.
	if got := p.PrefixMass(g2, 2); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("PrefixMass(2) = %v", got)
	}
}

func TestUnits(t *testing.T) {
	p, err := Prepare(soldier())
	if err != nil {
		t.Fatal(err)
	}
	// Sorted: T7(lead) T3(lead) T4(nonlead) T2(nonlead) T6(nonlead) T5(lead) T1(lead).
	units := p.Units(p.Len())
	want := []Unit{
		{UnitLeadRegion, 0, 2},
		{UnitNonLead, 2, 3},
		{UnitNonLead, 3, 4},
		{UnitNonLead, 4, 5},
		{UnitLeadRegion, 5, 7},
	}
	if len(units) != len(want) {
		t.Fatalf("units = %+v", units)
	}
	for i, u := range want {
		if units[i] != u {
			t.Fatalf("unit %d = %+v, want %+v", i, units[i], u)
		}
	}
	// Truncation mid-region.
	units = p.Units(1)
	if len(units) != 1 || units[0] != (Unit{UnitLeadRegion, 0, 1}) {
		t.Fatalf("truncated units = %+v", units)
	}
}

func TestUnitsAllIndependent(t *testing.T) {
	tab := NewTable().AddIndependent("a", 3, 0.5).AddIndependent("b", 2, 0.5).AddIndependent("c", 1, 0.5)
	p, err := Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	units := p.Units(3)
	if len(units) != 1 || units[0] != (Unit{UnitLeadRegion, 0, 3}) {
		t.Fatalf("units = %+v, want single region", units)
	}
}

func TestIDsAndTotalScore(t *testing.T) {
	p, err := Prepare(soldier())
	if err != nil {
		t.Fatal(err)
	}
	ids := p.IDs([]int{0, 1})
	if ids[0] != "T7" || ids[1] != "T3" {
		t.Fatalf("IDs = %v", ids)
	}
	if s := p.TotalScore([]int{0, 1}); s != 235 {
		t.Fatalf("TotalScore = %v, want 235", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := soldier()
	b := a.Clone()
	b.AddIndependent("extra", 1, 0.5)
	if a.Len() == b.Len() {
		t.Fatal("clone shares backing storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := soldier().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 7 {
		t.Fatalf("len = %d", got.Len())
	}
	for i := 0; i < 7; i++ {
		a, b := soldier().Tuple(i), got.Tuple(i)
		if a != b {
			t.Fatalf("tuple %d: %+v != %+v", i, a, b)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header,here,x\n",
		"id,score,prob,group\nT1,notanumber,0.5,\n",
		"id,score,prob,group\nT1,1,notanumber,\n",
		"id,score,prob,group\nT1,1,2.0,\n",             // invalid prob
		"id,score,prob,group\nT1,1,0.5,\nT1,2,0.4,\n",  // duplicate id
		"id,score,prob,group\na,1,0.6,g\nb,2,0.6,g\n",  // group mass > 1
		"id,score,prob,group\na,NaN,0.5,\n",            // non-finite score
		"id,score,prob,group\na,1,0.5,\nb,2,0.5\n",     // short row
		"id,score,prob,group\na,1,0.5,\nb,2,0.5,x,y\n", // long row
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// Property: Prepare emits a permutation in non-increasing (score, prob)
// order, group memberships partition positions, and tie groups cover the
// table contiguously.
func TestPrepareProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable()
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			g := ""
			if r.Intn(3) == 0 {
				g = string(rune('a' + r.Intn(4)))
			}
			tab.Add(Tuple{
				ID:    "t",
				Score: float64(r.Intn(10)),
				Prob:  0.01 + 0.2*r.Float64(),
				Group: g,
			})
		}
		if tab.Validate() != nil {
			return true // group mass overflow: acceptable rejection
		}
		p, err := Prepare(tab)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for i, tp := range p.Tuples {
			if seen[tp.Orig] {
				return false
			}
			seen[tp.Orig] = true
			if i > 0 {
				prev := p.Tuples[i-1]
				if prev.Score < tp.Score {
					return false
				}
				if prev.Score == tp.Score && prev.Prob < tp.Prob {
					return false
				}
			}
		}
		covered := 0
		for g := 0; g < p.NumGroups(); g++ {
			ms := p.GroupMembers(g)
			covered += len(ms)
			for j := 1; j < len(ms); j++ {
				if ms[j] <= ms[j-1] {
					return false
				}
			}
			if len(ms) > 0 && !p.Tuples[ms[0]].Lead {
				return false
			}
		}
		if covered != n {
			return false
		}
		// Units cover [0, n) exactly once.
		pos := 0
		for _, u := range p.Units(n) {
			if u.Start != pos || u.End <= u.Start {
				return false
			}
			pos = u.End
		}
		return pos == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
