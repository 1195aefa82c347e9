package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"probtopk/internal/core"
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

func randomTable(r *rand.Rand, n int, groupFrac float64) *uncertain.Table {
	tab := uncertain.NewTable()
	mass := make(map[string]float64)
	for i := 0; i < n; i++ {
		prob := 0.05 + 0.25*r.Float64()
		group := ""
		if r.Float64() < groupFrac {
			g := fmt.Sprintf("g%d", r.Intn(3))
			if mass[g]+prob <= 1 {
				group = g
				mass[g] += prob
			}
		}
		tab.Add(uncertain.Tuple{
			ID:    fmt.Sprintf("t%d", i),
			Score: math.Floor(100 * r.Float64()),
			Prob:  prob,
			Group: group,
		})
	}
	return tab
}

func sameDist(t *testing.T, label string, got, want *pmf.Dist) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d lines, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Line(i), want.Line(i)
		if g.Score != w.Score || g.Prob != w.Prob || g.VecProb != w.VecProb {
			t.Fatalf("%s: line %d = %+v, want %+v", label, i, g, w)
		}
		gs, ws := g.Vec.Slice(), w.Vec.Slice()
		if len(gs) != len(ws) {
			t.Fatalf("%s: line %d vector %v, want %v", label, i, gs, ws)
		}
		for j := range gs {
			if gs[j] != ws[j] {
				t.Fatalf("%s: line %d vector %v, want %v", label, i, gs, ws)
			}
		}
	}
}

// distribution answers one main-algorithm query over t's current snapshot,
// as the public API does.
func distribution(e *Engine, t *uncertain.Table, params core.Params) (*core.Result, error) {
	prep, err := e.PrepareSnapshot(t.Snapshot())
	if err != nil {
		return nil, err
	}
	return e.DistributionPrepared(prep, params)
}

// batch answers queries against t's current snapshot, as the public API does.
func batch(e *Engine, t *uncertain.Table, base core.Params, queries []Query, workers int) ([]*core.Result, error) {
	prep, err := e.PrepareSnapshot(t.Snapshot())
	if err != nil {
		return nil, err
	}
	return e.BatchPrepared(prep, base, queries, workers)
}

// TestCacheHitMiss: repeated preparation of an unchanged table returns the
// snapshot's memoized Prepared; a mutation mints a snapshot with its own.
func TestCacheHitMiss(t *testing.T) {
	e := New()
	tab := randomTable(rand.New(rand.NewSource(1)), 20, 0.3)

	p1, err := e.PrepareSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.PrepareSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second preparation of an unchanged table did not reuse the memo")
	}

	tab.AddIndependent("fresh", 55, 0.5)
	p3, err := e.PrepareSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("preparation after mutation returned the stale Prepared")
	}
	if p3.Len() != tab.Len() {
		t.Fatalf("stale preparation: %d tuples, table has %d", p3.Len(), tab.Len())
	}
}

// TestPooledScratchBitIdentical: query results through the engine's pooled
// (and warmed, recycled) scratch are bit-identical to a fresh zero Scratch
// on every trial — the pooling is purely an allocation optimisation.
func TestPooledScratchBitIdentical(t *testing.T) {
	e := New()
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		tab := randomTable(r, 10+r.Intn(20), 0.4)
		if tab.Validate() != nil {
			continue
		}
		params := core.Params{
			K: 1 + r.Intn(4), Threshold: 0.001, MaxLines: 50, TrackVectors: true,
		}
		got, err := distribution(e, tab, params)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := uncertain.Prepare(tab)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.DistributionScratch(prep, params, new(core.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, fmt.Sprintf("trial %d", trial), got.Dist, want.Dist)
	}
}

// TestBatchMatchesIndividual: batch execution (serial and fanned out) gives
// exactly the per-query results.
func TestBatchMatchesIndividual(t *testing.T) {
	e := New()
	tab := randomTable(rand.New(rand.NewSource(5)), 40, 0.3)
	queries := []Query{
		{K: 1, Threshold: 0.001}, {K: 2, Threshold: 0.001}, {K: 3, Threshold: 0},
		{K: 2, Threshold: 0.05}, {K: 5, Threshold: 0.001}, {K: 4, Threshold: 0.01},
	}
	base := core.Params{MaxLines: 100, TrackVectors: true}
	for _, workers := range []int{1, 4} {
		results, err := batch(e, tab, base, queries, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(queries) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(results), len(queries))
		}
		for i, q := range queries {
			params := base
			params.K = q.K
			params.Threshold = q.Threshold
			want, err := distribution(e, tab, params)
			if err != nil {
				t.Fatal(err)
			}
			sameDist(t, fmt.Sprintf("workers=%d query %d", workers, i), results[i].Dist, want.Dist)
			if results[i].ScanDepth != want.ScanDepth {
				t.Fatalf("workers=%d query %d: scan depth %d, want %d",
					workers, i, results[i].ScanDepth, want.ScanDepth)
			}
		}
	}
}

// TestBatchError: an invalid query aborts the batch in both execution modes.
func TestBatchError(t *testing.T) {
	e := New()
	tab := randomTable(rand.New(rand.NewSource(6)), 10, 0)
	queries := []Query{{K: 2, Threshold: 0.001}, {K: 0, Threshold: 0.001}}
	for _, workers := range []int{1, 2} {
		if _, err := batch(e, tab, core.Params{TrackVectors: true}, queries, workers); err == nil {
			t.Fatalf("workers=%d: k=0 should error", workers)
		}
	}
}

// TestConcurrentQueries: many goroutines querying one engine and table get
// identical answers (run with -race to exercise the snapshot memo and the
// scratch pool).
func TestConcurrentQueries(t *testing.T) {
	e := New()
	tab := randomTable(rand.New(rand.NewSource(7)), 30, 0.3)
	params := core.Params{K: 3, Threshold: 0.001, MaxLines: 60, TrackVectors: true}
	want, err := distribution(e, tab, params)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := distribution(e, tab, params)
				if err != nil {
					errc <- err
					return
				}
				if res.Dist.Len() != want.Dist.Len() || res.Dist.TotalMass() != want.Dist.TotalMass() {
					errc <- fmt.Errorf("concurrent result diverged: %v vs %v", res.Dist, want.Dist)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestQueryLatencyCounters(t *testing.T) {
	e := New()
	tab := randomTable(rand.New(rand.NewSource(3)), 30, 0.3)
	if _, err := distribution(e, tab, core.Params{K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := batch(e, tab, core.Params{}, []Query{{K: 1}, {K: 2}, {K: 3}}, 2); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Queries != 4 {
		t.Fatalf("Queries = %d, want 4", s.Queries)
	}
	if s.QueryNanos == 0 {
		t.Fatal("QueryNanos = 0, want > 0")
	}
}

// TestCacheNoCrossServeAcrossCloneAndRecreate regression-tests the
// per-snapshot memo against the scenarios a (pointer, version) key could
// get wrong: a clone shares its origin's Version, and a recreated table
// built by the same number of Adds shares it too — each must get its own
// preparation.
func TestCacheNoCrossServeAcrossCloneAndRecreate(t *testing.T) {
	e := New()
	tab := uncertain.NewTable()
	tab.AddIndependent("a", 10, 0.5)
	tab.AddIndependent("b", 5, 0.5)
	p1, err := e.PrepareSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	clone := tab.Clone()
	clone.AddIndependent("c", 99, 0.5)
	pc, err := e.PrepareSnapshot(clone.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if pc == p1 || pc.Len() != 3 {
		t.Fatalf("clone served its origin's preparation: %v", pc)
	}
	// The origin still gets its own preparation.
	back, err := e.PrepareSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if back != p1 {
		t.Fatal("origin's preparation was clobbered by the clone")
	}

	// Recreate: same Add count and Version as tab, different contents.
	again := uncertain.NewTable()
	again.AddIndependent("a", 77, 0.5)
	again.AddIndependent("b", 5, 0.5)
	if again.Version() != tab.Version() {
		t.Fatalf("precondition: versions differ (%d vs %d)", again.Version(), tab.Version())
	}
	pa, err := e.PrepareSnapshot(again.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if pa == p1 || pa.Tuples[0].Score != 77 {
		t.Fatalf("recreated table served stale contents: %+v", pa.Tuples[0])
	}
}

// TestPrepareSnapshotConcurrentWithMutation: queries over earlier snapshots
// run (and memoize) correctly while the table keeps mutating — the
// lock-free read guarantee at the engine layer. Run with -race.
func TestPrepareSnapshotConcurrentWithMutation(t *testing.T) {
	e := New()
	tab := randomTable(rand.New(rand.NewSource(9)), 40, 0.3)
	var wg sync.WaitGroup
	for step := 0; step < 60; step++ {
		s := tab.Snapshot()
		wantLen := tab.Len()
		wg.Add(1)
		go func() {
			defer wg.Done()
			prep, err := e.PrepareSnapshot(s)
			if err != nil {
				t.Error(err)
				return
			}
			if prep.Len() != wantLen {
				t.Errorf("prepared %d tuples, want %d", prep.Len(), wantLen)
				return
			}
			if _, err := e.DistributionPrepared(prep, core.Params{K: 2, Threshold: 0.001}); err != nil {
				t.Error(err)
			}
		}()
		tab.AddIndependent(fmt.Sprintf("new%d", step), float64(step%50), 0.4)
	}
	wg.Wait()

	// A late preparation of an old snapshot must not shadow the current
	// state: after everything drains, preparing the current snapshot
	// returns the current contents.
	prep, err := e.PrepareSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if prep.Len() != tab.Len() {
		t.Fatalf("current preparation has %d tuples, want %d", prep.Len(), tab.Len())
	}
}

// TestInvalidateNilTable: Invalidate, kept as a no-op for the benchmark
// harness, is safe on a nil table.
func TestInvalidateNilTable(t *testing.T) {
	New().Invalidate(nil) // must not panic
}

// TestInvalidateAfterDeleteRecreate covers the delete-recreate lifecycle
// the durable registry performs on recovery: a re-created table with
// identical contents gets a FRESH identity (recovery re-mints identities on
// every boot) and its own preparation, the dead table's snapshot keeps
// serving its own to in-flight readers, and Invalidate — a no-op now that
// preparations live on their snapshots — disturbs neither.
func TestInvalidateAfterDeleteRecreate(t *testing.T) {
	e := New()
	old := randomTable(rand.New(rand.NewSource(20)), 12, 0.5)
	oldSnap := old.Snapshot()
	oldPrep, err := e.PrepareSnapshot(oldSnap)
	if err != nil {
		t.Fatal(err)
	}
	e.Invalidate(old)
	fresh := uncertain.NewTable()
	for _, tp := range old.Tuples() {
		fresh.Add(tp)
	}
	freshSnap := fresh.Snapshot()
	if freshSnap.ID() == oldSnap.ID() {
		t.Fatalf("recreate reused identity: %d", freshSnap.ID())
	}
	freshPrep, err := e.PrepareSnapshot(freshSnap)
	if err != nil {
		t.Fatal(err)
	}
	if freshPrep == oldPrep {
		t.Fatal("recreated table served the dead table's preparation")
	}
	e.Invalidate(old)
	e.Invalidate(fresh)
	if p, err := e.PrepareSnapshot(freshSnap); err != nil || p != freshPrep {
		t.Fatalf("the live table's preparation changed: %p vs %p (%v)", p, freshPrep, err)
	}
	if p, err := e.PrepareSnapshot(oldSnap); err != nil || p != oldPrep {
		t.Fatalf("the dead table's snapshot lost its preparation: %p vs %p (%v)", p, oldPrep, err)
	}
}
