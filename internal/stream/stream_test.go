package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probtopk/internal/core"
	"probtopk/internal/fixtures"
	"probtopk/internal/pmf"
	"probtopk/internal/typical"
	"probtopk/internal/uncertain"
	"probtopk/internal/worlds"
)

func exactParams() core.Params {
	return core.Params{K: 1, TrackVectors: true} // K overridden by TopK
}

func TestWindowBasics(t *testing.T) {
	if _, err := NewWindow(0); err == nil {
		t.Fatal("capacity 0 should error")
	}
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Capacity() != 3 || w.Len() != 0 {
		t.Fatal("fresh window wrong")
	}
	if _, err := w.Table(); err != ErrEmptyWindow {
		t.Fatalf("err = %v", err)
	}
	for i := 0; i < 3; i++ {
		ev, err := w.Push(uncertain.Tuple{ID: "a", Score: float64(i), Prob: 0.5})
		if err != nil || ev != nil {
			t.Fatalf("push %d: %v %v", i, ev, err)
		}
	}
	ev, err := w.Push(uncertain.Tuple{ID: "new", Score: 9, Prob: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Score != 0 {
		t.Fatalf("evicted = %+v, want the oldest (score 0)", ev)
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
	snap := w.Snapshot()
	if snap[0].Score != 9 || snap[2].Score != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestPushValidation(t *testing.T) {
	w, _ := NewWindow(2)
	if _, err := w.Push(uncertain.Tuple{ID: "bad", Score: 1, Prob: 0}); err == nil {
		t.Fatal("invalid probability should error")
	}
	if _, err := w.Push(uncertain.Tuple{ID: "bad", Score: math.NaN(), Prob: 0.5}); err == nil {
		t.Fatal("NaN score should error")
	}
}

// TestWindowMatchesBatch: a windowed query equals the batch computation over
// the same tuples, verified against the possible-worlds oracle.
func TestWindowMatchesBatch(t *testing.T) {
	w, _ := NewWindow(7)
	for _, tp := range fixtures.Soldier().Tuples() {
		if _, err := w.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	res, err := w.TopK(2, exactParams())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := worlds.ExactDistribution(res.Prepared, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Len() != exact.Len() {
		t.Fatalf("lines = %d vs %d", res.Dist.Len(), exact.Len())
	}
	if math.Abs(res.Dist.Mean()-fixtures.SoldierExpectedScore) > 1e-9 {
		t.Fatalf("mean = %v", res.Dist.Mean())
	}
	if res.WindowLen != 7 {
		t.Fatalf("window len = %d", res.WindowLen)
	}
}

// TestEvictionChangesDistribution: after the top tuple slides out, the
// distribution must reflect only the remaining window.
func TestEvictionChangesDistribution(t *testing.T) {
	w, _ := NewWindow(2)
	w.Push(uncertain.Tuple{ID: "big", Score: 100, Prob: 1})
	w.Push(uncertain.Tuple{ID: "mid", Score: 50, Prob: 1})
	res, err := w.TopK(1, exactParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Mean() != 100 {
		t.Fatalf("mean = %v", res.Dist.Mean())
	}
	w.Push(uncertain.Tuple{ID: "small", Score: 10, Prob: 1}) // evicts "big"
	res, err = w.TopK(1, exactParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Mean() != 50 {
		t.Fatalf("after eviction mean = %v", res.Dist.Mean())
	}
}

// TestGroupMassReleasedOnEviction: an ME group overfull for the window
// becomes valid again once a member is evicted; while both members plus an
// overflow are in the window the query reports the invalid table.
func TestGroupMassReleasedOnEviction(t *testing.T) {
	w, _ := NewWindow(3)
	w.Push(uncertain.Tuple{ID: "g1", Group: "g", Score: 10, Prob: 0.7})
	w.Push(uncertain.Tuple{ID: "g2", Group: "g", Score: 20, Prob: 0.6})
	if _, err := w.TopK(1, exactParams()); err == nil {
		t.Fatal("overfull group should fail the windowed query")
	}
	w.Push(uncertain.Tuple{ID: "x", Score: 5, Prob: 0.5})
	w.Push(uncertain.Tuple{ID: "y", Score: 6, Prob: 0.5}) // evicts g1
	res, err := w.TopK(1, exactParams())
	if err != nil {
		t.Fatal(err)
	}
	// Window: g2 (0.6), x, y — top-1 = 20 with prob 0.6.
	if math.Abs(res.Dist.TailProb(19)-0.6) > 1e-12 {
		t.Fatalf("Pr(top-1 = 20) = %v", res.Dist.TailProb(19))
	}
}

// TestOverfullGroupBelowScanDepthErrors: a thresholded query scans only a
// rank prefix, but an overfull in-window group must fail it even when the
// member that overfills the group ranks far below the scan depth — both on
// the window's own query path and when freezing the window for an engine.
func TestOverfullGroupBelowScanDepthErrors(t *testing.T) {
	w, _ := NewWindow(64)
	w.Push(uncertain.Tuple{ID: "top", Group: "g", Score: 100, Prob: 0.7})
	for i := 0; i < 50; i++ {
		w.Push(uncertain.Tuple{ID: fmt.Sprintf("t%d", i), Score: float64(50 - i), Prob: 1})
	}
	w.Push(uncertain.Tuple{ID: "bottom", Group: "g", Score: -1, Prob: 0.6})
	params := core.Params{TrackVectors: true, Threshold: 0.01, MaxLines: 200}
	if _, err := w.TopK(1, params); err == nil {
		t.Fatal("overfull group below the scan depth passed the windowed query")
	}
	if _, err := w.Freeze(); err == nil {
		t.Fatal("overfull group below the scan depth passed Freeze")
	}
}

// TestSlidingCrossCheck: at every step of a random stream, the windowed
// distribution equals the oracle over the current window contents.
func TestSlidingCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	w, _ := NewWindow(6)
	for step := 0; step < 60; step++ {
		tp := uncertain.Tuple{
			ID:    "t",
			Score: float64(r.Intn(30)),
			Prob:  0.1 + 0.8*r.Float64(),
		}
		if _, err := w.Push(tp); err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(3)
		res, err := w.TopK(k, exactParams())
		if err != nil {
			t.Fatal(err)
		}
		exact, err := worlds.ExactDistribution(res.Prepared, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist.Len() != exact.Len() {
			t.Fatalf("step %d: %d lines vs %d", step, res.Dist.Len(), exact.Len())
		}
		for i := 0; i < exact.Len(); i++ {
			if math.Abs(res.Dist.Line(i).Prob-exact.Line(i).Prob) > 1e-9 {
				t.Fatalf("step %d line %d: %v vs %v", step, i, res.Dist.Line(i), exact.Line(i))
			}
		}
	}
}

// TestIncrementalMatchesFullPrepare: property-style cross-check of the
// window's dynamic-index maintenance (polylog mutations, suffix
// materialization, memoized reuse) against preparing the materialised window
// table from scratch at every step. Distributions and c-Typical-Topk answers
// must be bit-identical, and the prepared structures must agree position by
// position.
func TestIncrementalMatchesFullPrepare(t *testing.T) {
	for _, tc := range []struct {
		name      string
		groupFrac float64
	}{
		{"independent", 0},
		{"mixed-groups", 0.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			w, _ := NewWindow(8)
			for step := 0; step < 120; step++ {
				tp := uncertain.Tuple{
					ID:    "t",
					Score: float64(r.Intn(25)),
					Prob:  0.05 + 0.2*r.Float64(),
				}
				if r.Float64() < tc.groupFrac {
					tp.Group = "g" // bounded probs keep the in-window mass ≤ 1 only sometimes
				}
				if _, err := w.Push(tp); err != nil {
					t.Fatal(err)
				}
				tab, err := w.Table()
				if err != nil {
					// Overfull in-window group: the incremental path must
					// agree that the window is invalid.
					if _, werr := w.Prepared(); werr == nil {
						t.Fatalf("step %d: full prepare failed (%v) but incremental succeeded", step, err)
					}
					continue
				}
				want, err := uncertain.Prepare(tab)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Prepared()
				if err != nil {
					t.Fatalf("step %d: incremental prepare: %v", step, err)
				}
				if got.Len() != want.Len() || got.NumGroups() != want.NumGroups() {
					t.Fatalf("step %d: prepared %v vs %v", step, got, want)
				}
				for i := 0; i < want.Len(); i++ {
					g, v := got.Tuples[i], want.Tuples[i]
					if g.Score != v.Score || g.Prob != v.Prob || g.Lead != v.Lead ||
						g.Group != v.Group {
						t.Fatalf("step %d pos %d: %+v vs %+v", step, i, g, v)
					}
				}
				k := 1 + r.Intn(3)
				res, err := w.TopK(k, exactParams())
				if err != nil {
					t.Fatal(err)
				}
				full, err := core.Distribution(want, core.Params{K: k, TrackVectors: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Dist.Len() != full.Dist.Len() {
					t.Fatalf("step %d: %d lines vs %d", step, res.Dist.Len(), full.Dist.Len())
				}
				for i := 0; i < full.Dist.Len(); i++ {
					a, b := res.Dist.Line(i), full.Dist.Line(i)
					if a.Score != b.Score || a.Prob != b.Prob || a.VecProb != b.VecProb {
						t.Fatalf("step %d line %d: %+v vs %+v", step, i, a, b)
					}
				}
				if res.Dist.Len() >= 2 {
					ta, err := typical.Select(res.Dist, 2)
					if err != nil {
						t.Fatal(err)
					}
					tb, err := typical.Select(full.Dist, 2)
					if err != nil {
						t.Fatal(err)
					}
					if ta.Cost != tb.Cost || len(ta.Scores) != len(tb.Scores) {
						t.Fatalf("step %d: typical answers differ: %+v vs %+v", step, ta, tb)
					}
					for i := range ta.Scores {
						if ta.Scores[i] != tb.Scores[i] {
							t.Fatalf("step %d: typical scores differ: %v vs %v", step, ta.Scores, tb.Scores)
						}
					}
				}
			}
			stats := w.Stats()
			// The dynamic index never needs a from-scratch rebuild after the
			// first successful materialization — not even under ME-group
			// churn, which used to force one.
			if stats.FullRebuilds != 1 {
				t.Fatalf("%d full rebuilds, want only the first (stats %+v)", stats.FullRebuilds, stats)
			}
			if stats.SuffixRebuilds == 0 {
				t.Fatalf("never took the suffix path: %+v", stats)
			}
			if stats.PolylogMutations == 0 {
				t.Fatalf("mutations not counted: %+v", stats)
			}
		})
	}
}

// TestPreparedCachedAcrossQueries: with no pushes in between, repeated
// queries reuse the prepared state outright.
func TestPreparedCachedAcrossQueries(t *testing.T) {
	w, _ := NewWindow(5)
	for i := 0; i < 5; i++ {
		w.Push(uncertain.Tuple{ID: "t", Score: float64(i), Prob: 0.5})
	}
	p1, err := w.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("unchanged window rebuilt its prepared state")
	}
	if s := w.Stats(); s.CachedQueries != 1 {
		t.Fatalf("stats = %+v, want 1 cached query", s)
	}
	w.Push(uncertain.Tuple{ID: "t", Score: 9, Prob: 0.5})
	p3, err := w.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("push did not invalidate the prepared state")
	}
}

func TestSeries(t *testing.T) {
	w, _ := NewWindow(4)
	var stream []uncertain.Tuple
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		stream = append(stream, uncertain.Tuple{
			ID: "t", Score: 10 + r.Float64()*10, Prob: 0.3 + 0.6*r.Float64(),
		})
	}
	var values []float64
	var skipped int
	err := Series(w, stream, 2, exactParams(),
		func(d *pmf.Dist) float64 { return d.Mean() },
		func(step int, v float64, ok bool) {
			if !ok {
				skipped++
				return
			}
			values = append(values, v)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(values)+skipped != 20 {
		t.Fatalf("observed %d + %d skipped", len(values), skipped)
	}
	for _, v := range values {
		if v < 20 || v > 40 {
			t.Fatalf("windowed top-2 mean %v outside plausible range", v)
		}
	}
}

// TestFreezeMemoized: an unchanged window hands out the same snapshot (so
// identity-keyed caches keep hitting); a Push mints a fresh identity, and
// old snapshots stay frozen at their contents.
func TestFreezeMemoized(t *testing.T) {
	w, err := NewWindow(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Push(uncertain.Tuple{ID: fmt.Sprintf("t%d", i), Score: float64(i), Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := w.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("unchanged window minted a new snapshot")
	}
	if _, err := w.Push(uncertain.Tuple{ID: "new", Score: 99, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	s3, err := w.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 || s3.ID() == s1.ID() {
		t.Fatal("push did not mint a fresh snapshot identity")
	}
	if s1.Len() != 4 || s3.Len() != 5 || s3.Tuple(0).ID != "new" {
		t.Fatalf("frozen contents wrong: s1 len %d, s3 %+v", s1.Len(), s3.Tuples()[:1])
	}
}

// TestFreezeCarriesIndexView: Freeze attaches the window's dynamic-index
// view to the published snapshot, so downstream consumers (the engine) can
// materialize the Prepared form from the index — and when the window was
// already queried, they share the window's own memoized Prepared.
func TestFreezeCarriesIndexView(t *testing.T) {
	w, _ := NewWindow(8)
	for i := 0; i < 6; i++ {
		if _, err := w.Push(uncertain.Tuple{ID: fmt.Sprintf("t%d", i), Score: float64(i % 3), Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := w.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	v := snap.IndexView()
	if v == nil {
		t.Fatal("frozen snapshot carries no index view")
	}
	if v.Len() != snap.Len() {
		t.Fatalf("view len %d != snapshot len %d", v.Len(), snap.Len())
	}
	vp, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if vp != prep {
		t.Fatal("materialized-window view should share the window's memoized Prepared")
	}
	// The view and the snapshot describe the same contents even though the
	// owner keeps mutating after the freeze.
	for i := 0; i < 20; i++ {
		if _, err := w.Push(uncertain.Tuple{ID: "later", Score: 99, Prob: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := snap.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != vp.Len() {
		t.Fatalf("view len %d != snapshot prepare len %d", vp.Len(), sp.Len())
	}
	for i := range sp.Tuples {
		a, b := sp.Tuples[i], vp.Tuples[i]
		if a.ID != b.ID || a.Score != b.Score || a.Prob != b.Prob || a.Group != b.Group || a.Lead != b.Lead {
			t.Fatalf("position %d: view %+v vs snapshot %+v", i, b, a)
		}
	}
}
