package uncertain

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestExtendSharesStorageSafely: a successor built by Extend holds the
// predecessor's tuples plus the batch without disturbing the predecessor,
// its snapshots, or an earlier successor — whether the storage is extended
// in place or copied.
func TestExtendSharesStorageSafely(t *testing.T) {
	base := NewTable()
	for i := 0; i < 5; i++ {
		base.AddIndependent(fmt.Sprintf("b%d", i), float64(i), 0.5)
	}
	snap := base.Snapshot()
	first := base.Extend([]Tuple{{ID: "x", Score: 9, Prob: 0.5}})
	second := base.Extend([]Tuple{{ID: "y", Score: 8, Prob: 0.5}, {ID: "z", Score: 7, Prob: 0.5}})
	base.AddIndependent("w", 6, 0.5)
	for name, tc := range map[string]struct {
		tab  *Table
		last []string
	}{
		"first":  {first, []string{"x"}},
		"second": {second, []string{"y", "z"}},
		"base":   {base, []string{"w"}},
	} {
		if tc.tab.Len() != 5+len(tc.last) {
			t.Fatalf("%s: %d tuples", name, tc.tab.Len())
		}
		for i, id := range tc.last {
			if got := tc.tab.Tuple(5 + i).ID; got != id {
				t.Fatalf("%s: tuple %d is %q, want %q", name, 5+i, got, id)
			}
		}
	}
	if snap.Len() != 5 || snap.Tuple(4).ID != "b4" {
		t.Fatalf("predecessor snapshot changed: %v", snap.Tuples())
	}
	if first.Version() != 6 || second.Version() != 7 {
		t.Fatalf("versions: first %d second %d base %d", first.Version(), second.Version(), base.Version())
	}
	// A chain of successors, as a served table's appends build it.
	tip := first
	for i := 0; i < 100; i++ {
		tip = tip.Extend([]Tuple{{ID: fmt.Sprintf("c%d", i), Score: 1, Prob: 0.1}})
	}
	if tip.Len() != 106 || tip.Tuple(6).ID != "c0" || tip.Tuple(105).ID != "c99" || first.Len() != 6 {
		t.Fatalf("chain: tip %d tuples, first %d", tip.Len(), first.Len())
	}
}

// TestLedgerMatchesValidate is the ledger's differential: checking a batch
// against the ledger gives the verdict that validating the extended table
// from scratch gives (the same message, except which of several overfull
// groups is named), and after Commit the ledger's ids and group sums equal
// a fresh ledger's bit for bit.
func TestLedgerMatchesValidate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	probs := []float64{0.1, 0.2, 0.3, 0.05, 0.7, 1, 0, 1.5}
	draw := func(id int) Tuple {
		tp := Tuple{ID: fmt.Sprintf("t%d", r.Intn(4*id+1)), Score: float64(r.Intn(9)), Prob: probs[r.Intn(6)]}
		if r.Intn(40) == 0 {
			tp.Prob = probs[6+r.Intn(2)] // invalid
		}
		if r.Intn(2) == 0 {
			tp.Group = fmt.Sprintf("g%d", r.Intn(6))
		}
		return tp
	}
	tab := NewTable()
	led, err := NewLedger(tab)
	if err != nil {
		t.Fatal(err)
	}
	var accepted, rejected int
	for step := 0; step < 3000; step++ {
		batch := make([]Tuple, 1+r.Intn(4))
		for i := range batch {
			batch[i] = draw(tab.Len() + step)
		}
		next := tab.Extend(batch)
		_, want := NewLedger(next)
		got := led.Check(batch)
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d: ledger says %v, whole table says %v", step, got, want)
		}
		if got != nil {
			rejected++
			if strings.Contains(want.Error(), "ME group") {
				if !strings.Contains(got.Error(), "ME group") {
					t.Fatalf("step %d: ledger says %v, whole table says %v", step, got, want)
				}
			} else if got.Error() != want.Error() {
				t.Fatalf("step %d: ledger says %v, whole table says %v", step, got, want)
			}
			continue
		}
		accepted++
		led.Commit(batch)
		tab = next
		fresh, err := NewLedger(tab)
		if err != nil {
			t.Fatal(err)
		}
		if led.n != fresh.n || len(led.ids) != len(fresh.ids) || len(led.sums) != len(fresh.sums) {
			t.Fatalf("step %d: ledger %d/%d/%d, fresh %d/%d/%d", step,
				led.n, len(led.ids), len(led.sums), fresh.n, len(fresh.ids), len(fresh.sums))
		}
		for g, s := range fresh.sums {
			if led.sums[g] != s {
				t.Fatalf("step %d: group %q running sum %v, fresh %v", step, g, led.sums[g], s)
			}
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("too one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestConcurrentExtendAndPrefix races the two pieces of shared state this
// package hands to concurrent readers: successors of one table built by
// Extend from several goroutines at once (only one may extend the storage
// in place), and prefixes of one frozen view requested with different
// bounds at once (the memo may only grow). Run it under -race.
func TestConcurrentExtendAndPrefix(t *testing.T) {
	base := NewTable()
	for i := 0; i < 200; i++ {
		base.Add(Tuple{ID: fmt.Sprintf("b%d", i), Score: float64(i % 17), Prob: 0.5})
	}
	ix, err := NewIndexOf(base.Tuples())
	if err != nil {
		t.Fatal(err)
	}
	v := ix.Freeze()
	const workers = 8
	succ := make([]*Table, workers)
	prefixes := make([]*Prepared, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			succ[w] = base.Extend([]Tuple{{ID: fmt.Sprintf("w%d", w), Score: 1, Prob: 0.5}})
			prefixes[w] = v.MaterializePrefix(float64(4 + 4*w))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if succ[w].Len() != 201 || succ[w].Tuple(200).ID != fmt.Sprintf("w%d", w) || succ[w].Tuple(199).ID != "b199" {
			t.Fatalf("successor %d: %d tuples, last %q", w, succ[w].Len(), succ[w].Tuple(succ[w].Len()-1).ID)
		}
		p := prefixes[w]
		if p == nil || p.PrefixProbability(p.Len()-1) < float64(4+4*w)+1 {
			t.Fatalf("worker %d: prefix %v too short for its bound", w, p)
		}
	}
	if longest := v.prefix.Load(); longest.Len() < prefixes[workers-1].Len() {
		t.Fatalf("memo shrank to %d ranks", longest.Len())
	}
}
