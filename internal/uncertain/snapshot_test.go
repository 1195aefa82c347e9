package uncertain

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// contentsSig fingerprints tuple contents for identity-collision checks.
func contentsSig(tuples []Tuple) string {
	var b strings.Builder
	for _, tp := range tuples {
		fmt.Fprintf(&b, "%s|%v|%v|%s;", tp.ID, tp.Score, tp.Prob, tp.Group)
	}
	return b.String()
}

// TestSnapshotCopyOnWrite pins the copy-on-write contract: an unchanged
// table hands out the very same snapshot; a mutation mints a fresh one with
// a larger ID; and an old snapshot keeps serving exactly the contents it
// froze, untouched by later appends.
func TestSnapshotCopyOnWrite(t *testing.T) {
	tab := NewTable()
	tab.AddIndependent("a", 10, 0.5)
	s1 := tab.Snapshot()
	if s2 := tab.Snapshot(); s2 != s1 {
		t.Fatal("unchanged table minted a new snapshot")
	}
	if s1.ID() == 0 {
		t.Fatal("snapshot ID 0 — must never be a valid identity")
	}
	tab.AddIndependent("b", 20, 0.7)
	s3 := tab.Snapshot()
	if s3 == s1 || s3.ID() == s1.ID() {
		t.Fatal("mutation did not mint a new snapshot identity")
	}
	if s3.ID() <= s1.ID() {
		t.Fatalf("snapshot IDs not monotonic: %d then %d", s1.ID(), s3.ID())
	}
	// The old snapshot is frozen: length and contents are from its moment.
	if s1.Len() != 1 || s1.Tuple(0).ID != "a" {
		t.Fatalf("old snapshot mutated: %+v", s1.Tuples())
	}
	if s3.Len() != 2 || s3.Tuple(1).ID != "b" {
		t.Fatalf("new snapshot wrong: %+v", s3.Tuples())
	}
	// Both prepare to their own contents.
	p1, err := s1.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	p3, err := s3.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Len() != 1 || p3.Len() != 2 {
		t.Fatalf("prepared lengths %d, %d", p1.Len(), p3.Len())
	}
}

// TestCloneSnapshotDistinctIdentity covers the exact trap the old
// (pointer, version) cache key and Version()-counts-only-Adds semantics got
// wrong: a clone shares its origin's Version, and a recreated table built
// by the same number of Adds shares it too — yet their snapshots must carry
// distinct identities so no cache can ever cross-serve them.
func TestCloneSnapshotDistinctIdentity(t *testing.T) {
	tab := NewTable()
	tab.AddIndependent("a", 10, 0.5)
	tab.AddIndependent("b", 20, 0.7)
	orig := tab.Snapshot()

	clone := tab.Clone()
	if clone.Version() != tab.Version() {
		t.Fatalf("precondition: clone version %d != %d", clone.Version(), tab.Version())
	}
	cs := clone.Snapshot()
	if cs.ID() == orig.ID() {
		t.Fatal("clone snapshot shares its origin's identity")
	}

	// Delete/recreate: a fresh table with the same number of Adds (same
	// Version) and even the same contents gets fresh identities.
	again := NewTable()
	again.AddIndependent("a", 10, 0.5)
	again.AddIndependent("b", 20, 0.7)
	if again.Version() != tab.Version() {
		t.Fatalf("precondition: recreate version %d != %d", again.Version(), tab.Version())
	}
	as := again.Snapshot()
	if as.ID() == orig.ID() || as.ID() == cs.ID() {
		t.Fatal("recreated table reused a snapshot identity")
	}

	// Diverge the clone; the origin's snapshot must be unaffected and the
	// clone's next snapshot distinct again.
	clone.AddIndependent("c", 99, 0.9)
	cs2 := clone.Snapshot()
	if cs2.ID() == cs.ID() || cs2.Len() != 3 {
		t.Fatalf("diverged clone snapshot wrong: id %d len %d", cs2.ID(), cs2.Len())
	}
	if orig.Len() != 2 || cs.Len() != 2 {
		t.Fatal("divergence leaked into frozen snapshots")
	}
}

// TestSnapshotIdentityNeverCollides is the property test for the identity
// scheme: across randomized interleavings of mutation, Clone, and
// replace/delete-recreate (fresh tables landing in reused slots — the
// moral equivalent of pointer reuse), no snapshot identity is ever observed
// with two different contents, and repeated snapshots of an unchanged
// table are the identical object.
func TestSnapshotIdentityNeverCollides(t *testing.T) {
	r := rand.New(rand.NewSource(1309))
	seen := make(map[uint64]string) // snapshot ID → contents signature
	last := make(map[*Table]*Snapshot)
	tables := []*Table{NewTable()}

	record := func(tab *Table) {
		s := tab.Snapshot()
		sig := contentsSig(s.Tuples())
		if prev, ok := seen[s.ID()]; ok {
			if prev != sig {
				t.Fatalf("snapshot ID %d observed with two contents:\n%s\nvs\n%s", s.ID(), prev, sig)
			}
		} else {
			seen[s.ID()] = sig
		}
		if prevSnap, ok := last[tab]; ok && prevSnap.ID() == s.ID() && prevSnap != s {
			t.Fatalf("same ID %d from distinct snapshot objects", s.ID())
		}
		last[tab] = s
	}

	randTable := func(n int) *Table {
		fresh := NewTable()
		for i := 0; i < n; i++ {
			fresh.AddIndependent(fmt.Sprintf("r%d", r.Intn(50)), float64(r.Intn(100)), 0.1+0.8*r.Float64())
		}
		return fresh
	}

	for step := 0; step < 5000; step++ {
		switch r.Intn(6) {
		case 0: // mutate
			tab := tables[r.Intn(len(tables))]
			tab.AddIndependent(fmt.Sprintf("t%d", step), float64(r.Intn(100)), 0.5)
		case 1: // clone (same Version as origin)
			tables = append(tables, tables[r.Intn(len(tables))].Clone())
		case 2: // replace a slot: recreate with the same Add count as some
			// existing table, so Versions collide while contents differ
			donor := tables[r.Intn(len(tables))]
			tables[r.Intn(len(tables))] = randTable(donor.Len())
		default: // snapshot and check
			record(tables[r.Intn(len(tables))])
		}
		if len(tables) > 16 {
			tables = tables[len(tables)-16:]
		}
	}
	if len(seen) < 500 {
		t.Fatalf("property test exercised only %d distinct snapshots", len(seen))
	}
}

// TestSnapshotReadsConcurrentWithMutation drives the exact pattern the
// serving layer relies on: the owner keeps appending and re-snapshotting
// while other goroutines prepare and read earlier snapshots. Run under
// -race (CI does), this validates that the copy-on-write aliasing really
// shares no mutable memory.
func TestSnapshotReadsConcurrentWithMutation(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 50; i++ {
		tab.AddIndependent(fmt.Sprintf("seed%d", i), float64(i), 0.5)
	}
	var wg sync.WaitGroup
	for step := 0; step < 200; step++ {
		s := tab.Snapshot()
		wantLen := tab.Len()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.Len() != wantLen {
				t.Errorf("snapshot len %d, want %d", s.Len(), wantLen)
				return
			}
			prep, err := s.Prepare()
			if err != nil {
				t.Error(err)
				return
			}
			if prep.Len() != wantLen {
				t.Errorf("prepared len %d, want %d", prep.Len(), wantLen)
			}
		}()
		// Mutate while the reader is (probably) mid-prepare.
		tab.AddIndependent(fmt.Sprintf("t%d", step), float64(step%97), 0.5)
	}
	wg.Wait()
}

// TestSnapshotTableRoundTrip: materialising a snapshot back into a table
// yields equal contents with a fresh identity.
func TestSnapshotTableRoundTrip(t *testing.T) {
	tab := NewTable()
	tab.AddExclusive("a", "g", 10, 0.5)
	tab.AddExclusive("b", "g", 9, 0.4)
	tab.AddIndependent("c", 8, 0.9)
	s := tab.Snapshot()
	back := s.Table()
	if contentsSig(back.Tuples()) != contentsSig(tab.Tuples()) {
		t.Fatalf("round trip changed contents:\n%v\nvs\n%v", back.Tuples(), tab.Tuples())
	}
	if back.Snapshot().ID() == s.ID() {
		t.Fatal("materialised table reused the snapshot's identity")
	}
	// NewSnapshot copies: mutating the source slice later must not leak in.
	src := tab.Tuples()
	ns := NewSnapshot(src)
	src[0].ID = "mutated"
	if ns.Tuple(0).ID != "a" {
		t.Fatal("NewSnapshot aliased its input")
	}
}

// TestSnapshotPrepareOnce: Prepare is memoized per snapshot. Many
// goroutines get one *Prepared, whether the snapshot sorts its contents or
// materializes them from an attached index view, and a view-backed
// snapshot counts one view prepare however often it is prepared. Run under
// -race.
func TestSnapshotPrepareOnce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tuples := make([]Tuple, 40)
	for i := range tuples {
		tuples[i] = Tuple{ID: fmt.Sprintf("t%d", i), Score: float64(r.Intn(20)), Prob: 0.1 + 0.8*r.Float64()}
	}
	ix, err := NewIndexOf(tuples)
	if err != nil {
		t.Fatal(err)
	}
	viewed := NewSnapshot(tuples)
	viewed.SetIndexView(ix.Freeze())
	for _, c := range []struct {
		name  string
		s     *Snapshot
		views uint64
	}{
		{"sorted", NewSnapshot(tuples), 0},
		{"view", viewed, 1},
	} {
		before := IndexTotals().ViewPrepares
		got := make([]*Prepared, 16)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := c.s.Prepare()
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = p
			}()
		}
		wg.Wait()
		for g, p := range got {
			if p == nil || p != got[0] {
				t.Fatalf("%s: goroutine %d got %p, goroutine 0 got %p", c.name, g, p, got[0])
			}
		}
		if got[0].Len() != len(tuples) {
			t.Fatalf("%s: prepared %d tuples, want %d", c.name, got[0].Len(), len(tuples))
		}
		if d := IndexTotals().ViewPrepares - before; d != c.views {
			t.Fatalf("%s: %d view prepares, want %d", c.name, d, c.views)
		}
	}
	fromView, err := viewed.IndexView().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := viewed.Prepare(); p != fromView {
		t.Fatal("a view-backed snapshot must share the view's Prepared")
	}
}

// TestSnapshotPrepareViewRejects: when the attached view cannot materialize
// the contents (an overfull ME group, which an Index admits until query
// time, like the sliding window built on it), Prepare falls back to the
// sort path, so it reports the error a snapshot without a view reports.
// The view sums the group in rank order and the sort path in insertion
// order, so here the two error texts differ.
func TestSnapshotPrepareViewRejects(t *testing.T) {
	tuples := []Tuple{
		{ID: "a", Score: 1, Prob: 0.7, Group: "g"},
		{ID: "b", Score: 3, Prob: 0.2, Group: "g"},
		{ID: "c", Score: 2, Prob: 0.2, Group: "g"},
	}
	ix, err := NewIndexOf(tuples)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshot(tuples)
	s.SetIndexView(ix.Freeze())
	_, want := NewSnapshot(tuples).Prepare()
	if _, err := s.IndexView().Materialize(); err == nil || want == nil || err.Error() == want.Error() {
		t.Fatalf("precondition: the view and the sort path must reject the overfull group with different texts: %v, %v", err, want)
	}
	p, got := s.Prepare()
	if got == nil || p != nil || got.Error() != want.Error() {
		t.Fatalf("Prepare = %v, %v; want the sort path's error %v", p, got, want)
	}
	if _, again := s.Prepare(); again != got {
		t.Fatalf("the error is not memoized: %v then %v", got, again)
	}
}
