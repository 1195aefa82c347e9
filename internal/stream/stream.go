// Package stream extends the paper's semantics to the uncertain data-stream
// setting its related work points at (Jin et al., "Sliding-Window Top-k
// Queries on Uncertain Streams", VLDB 2008): a window of the most recent W
// uncertain tuples is maintained, and the top-k score distribution (and
// c-Typical-Topk answers) of the window contents can be queried at any time.
//
// The window maintains its prepared (rank-ordered, §3.4) state in a fully
// dynamic uncertain.Index: each Push inserts the new tuple and deletes the
// evicted one with O(log W) structural work, wherever in the rank order the
// change lands — there is no O(W) memmove and no ME-group full-rebuild
// fallback any more. The flat uncertain.Prepared form the DP consumes is
// materialized lazily at the next query, re-deriving only the rank suffix
// below the lowest position that changed (the index reuses PrepareSorted,
// the batch path, so the result is bit-identical to preparing the window
// contents from scratch). Repeated queries over an unchanged window reuse
// the memoized Prepared outright, so a query costs exactly one run of the
// paper's dynamic program, with pooled scratch.
//
// ME groups are supported with the window-native semantics that a group's
// constraint binds among the members currently inside the window; evicted
// members simply drop out (their probability mass leaves the group), and a
// group whose in-window mass exceeds 1 surfaces as an error at query time,
// healing as members slide out.
package stream

import (
	"errors"
	"fmt"

	"probtopk/internal/core"
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

// Window is a sliding window over an uncertain tuple stream. It is not safe
// for concurrent use.
type Window struct {
	capacity int
	// arrival holds the live tuples in arrival order, each with the
	// sequence number identifying it inside idx. It grows by append until
	// the window fills, then becomes a ring with the oldest tuple at head —
	// eviction must be O(1), not an O(W) shift, or it would dominate the
	// index's O(log W) structural work.
	arrival []entry
	head    int
	// idx maintains the canonical §3.4 rank order dynamically; it owns the
	// memoized Prepared and the rebuild counters.
	idx *uncertain.Index

	// frozen memoizes the snapshot published by Freeze; nil after any Push,
	// so an unchanged window keeps handing out one identity (and one
	// prepared-form memo), mirroring Table.Snapshot's copy-on-write.
	frozen *uncertain.Snapshot
}

type entry struct {
	seq   uint64
	tuple uncertain.Tuple
}

// WindowStats counts the window's dynamic-index maintenance, for
// observability and tests of the incremental machinery. It is a rename of
// the index's own counters into the window's vocabulary.
type WindowStats struct {
	// CachedQueries is the number of queries that reused the memoized
	// Prepared without any rebuild (no pushes since the last query).
	CachedQueries int
	// SuffixRebuilds is the number of materializations that reused the
	// unchanged higher-ranked prefix of the previous Prepared.
	SuffixRebuilds int
	// FullRebuilds is the number of materializations from scratch (only the
	// first successful build — ME churn no longer forces one).
	FullRebuilds int
	// PolylogMutations is the number of index mutations (inserts and
	// evictions), each costing O(log W) structural work.
	PolylogMutations int
}

// NewWindow creates a sliding window holding the most recent capacity
// tuples.
func NewWindow(capacity int) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stream: window capacity must be ≥ 1, got %d", capacity)
	}
	return &Window{capacity: capacity, idx: uncertain.NewIndex()}, nil
}

// Len returns the number of tuples currently in the window.
func (w *Window) Len() int { return len(w.arrival) }

// Capacity returns the window size.
func (w *Window) Capacity() int { return w.capacity }

// Stats returns the prepared-state maintenance counters.
func (w *Window) Stats() WindowStats {
	st := w.idx.Stats()
	return WindowStats{
		CachedQueries:    int(st.MemoHits),
		SuffixRebuilds:   int(st.SuffixMaterializations),
		FullRebuilds:     int(st.FullMaterializations),
		PolylogMutations: int(st.Mutations),
	}
}

// Push appends a tuple to the stream, evicting the oldest tuple when the
// window is full. It returns the evicted tuple, if any. The tuple is
// validated on entry (probability in (0, 1], finite score); group-mass
// validation happens against the *current window contents* at query time,
// since a group's in-window mass changes as members are evicted.
func (w *Window) Push(t uncertain.Tuple) (evicted *uncertain.Tuple, err error) {
	seq, err := w.idx.Insert(t)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if len(w.arrival) == w.capacity {
		old := w.arrival[w.head]
		w.idx.Delete(old.seq)
		w.arrival[w.head] = entry{seq: seq, tuple: t}
		w.head = (w.head + 1) % w.capacity
		evicted = &old.tuple
	} else {
		w.arrival = append(w.arrival, entry{seq: seq, tuple: t})
	}
	w.frozen = nil
	return evicted, nil
}

// at returns the i-th live tuple in arrival order (0 = oldest).
func (w *Window) at(i int) entry { return w.arrival[(w.head+i)%len(w.arrival)] }

// ErrEmptyWindow is returned when a query runs against an empty window.
var ErrEmptyWindow = errors.New("stream: empty window")

// Table materialises the current window contents as an uncertain table in
// arrival order.
func (w *Window) Table() (*uncertain.Table, error) {
	if len(w.arrival) == 0 {
		return nil, ErrEmptyWindow
	}
	t := uncertain.NewTable()
	for i := 0; i < len(w.arrival); i++ {
		t.Add(w.at(i).tuple)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("stream: window contents invalid: %w", err)
	}
	return t, nil
}

// Prepared returns the prepared form of the current window contents,
// materialized from the dynamic index: clean state is returned as-is
// (the same *Prepared pointer, preserving its memoized unit decomposition),
// otherwise only the rank suffix below the lowest changed position is
// re-derived. Group-mass validation runs on every rebuild, so an overfull
// in-window group surfaces here.
func (w *Window) Prepared() (*uncertain.Prepared, error) {
	if len(w.arrival) == 0 {
		return nil, ErrEmptyWindow
	}
	prep, err := w.idx.Materialize()
	if err != nil {
		return nil, fmt.Errorf("stream: window contents invalid: %w", err)
	}
	return prep, nil
}

// Result is one windowed query answer.
type Result struct {
	// Dist is the top-k score distribution of the window contents.
	Dist *pmf.Dist
	// Prepared gives access to the rank-ordered window for translating the
	// distribution's vector positions into tuple IDs.
	Prepared *uncertain.Prepared
	// WindowLen is the number of tuples that were in the window.
	WindowLen int
	// ScanDepth is the number of window tuples the query examined under
	// Theorem 2 (at most WindowLen).
	ScanDepth int
}

// TopK computes the top-k score distribution of the current window with the
// main algorithm under params (K is taken from the argument, overriding
// params.K), reusing the incrementally maintained prepared state and pooled
// DP scratch.
func (w *Window) TopK(k int, params core.Params) (*Result, error) {
	prep, err := w.Prepared()
	if err != nil {
		return nil, err
	}
	params.K = k
	res, err := core.Distribution(prep, params)
	if err != nil {
		return nil, err
	}
	return &Result{Dist: res.Dist, Prepared: prep, WindowLen: len(w.arrival), ScanDepth: res.ScanDepth}, nil
}

// Series runs a query after every arrival of stream and collects a chosen
// statistic of the window's top-k distribution — e.g. its mean or median —
// producing the time series a monitoring application would chart. Windows
// with fewer than k tuples yield NaN-free skips (the statistic is omitted
// and marked by ok=false in the callback).
func Series(window *Window, streamTuples []uncertain.Tuple, k int, params core.Params,
	stat func(*pmf.Dist) float64, observe func(step int, value float64, ok bool)) error {
	for i, t := range streamTuples {
		if _, err := window.Push(t); err != nil {
			return err
		}
		res, err := window.TopK(k, params)
		if err != nil {
			return err
		}
		if res.Dist.IsEmpty() {
			observe(i, 0, false)
			continue
		}
		observe(i, stat(res.Dist), true)
	}
	return nil
}

// Snapshot lists the window contents in rank (score, probability) order,
// useful for debugging and display.
func (w *Window) Snapshot() []uncertain.Tuple { return w.idx.Tuples() }

// Freeze publishes the current window contents as an immutable
// uncertain.Snapshot (in rank order), with the window's frozen IndexView
// attached: the index's tree is persistent, so freezing is O(1) structural
// work plus one walk to list the tuples — no re-preparation — and the
// snapshot's Prepare materializes its Prepared form from the view, once
// (sharing the window's own memo when the window was already materialized).
//
// The window is single-owner, but the returned snapshot is not: it can be
// queried through an Engine from any goroutine while the owner keeps
// pushing. An unchanged window returns the same snapshot on every call (so
// its prepared form is built once); a Push clears the memo and the next
// Freeze mints a fresh identity. The frozen contents
// are validated, so an overfull in-window ME group surfaces here, like at
// query time.
func (w *Window) Freeze() (*uncertain.Snapshot, error) {
	if len(w.arrival) == 0 {
		return nil, ErrEmptyWindow
	}
	if w.frozen != nil {
		return w.frozen, nil
	}
	view := w.idx.Freeze()
	// Snapshot() already builds a private slice; hand it over outright.
	snap := uncertain.OwnSnapshot(w.Snapshot())
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("stream: window contents invalid: %w", err)
	}
	snap.SetIndexView(view)
	w.frozen = snap
	return snap, nil
}
