package uncertain

import (
	"sync"
	"sync/atomic"
)

// snapshotIDs mints process-unique snapshot identities. IDs start at 1 so 0
// is never a valid identity, and they are monotonically increasing, so among
// snapshots of one table a larger ID always means a later state.
var snapshotIDs atomic.Uint64

// Snapshot is an immutable view of a table's contents, frozen at the moment
// Table.Snapshot was called, with a process-unique identity.
//
// Snapshots are the unit of isolation for concurrent serving: once obtained,
// a Snapshot never changes — queries over it need no locks, run against
// exactly the state they started from, and can proceed while the owning
// table keeps mutating. Because identities are minted from a process-wide
// counter and never reused, a Snapshot's ID is a sound cache key: two
// snapshots with the same ID are the same object with the same contents,
// whatever happened to table pointers, versions, clones or name bindings in
// between.
//
// The zero value is not useful; obtain snapshots from Table.Snapshot or
// NewSnapshot.
type Snapshot struct {
	id uint64
	// tuples is frozen: it aliases the owning table's append-only storage
	// with its capacity clamped, so neither side can ever write through it.
	tuples []Tuple
	// view is an advisory accelerator: a frozen IndexView over the same
	// contents, attached once by whoever maintains a dynamic Index for the
	// table (the sliding window, the server's mutate path). Prepare
	// materializes from it — sharing the index's suffix reuse and memoized
	// Prepared — instead of sorting from scratch.
	view atomic.Pointer[IndexView]

	// prepOnce memoizes Prepare: the contents are immutable, so its result,
	// error included, is too.
	prepOnce sync.Once
	prep     *Prepared
	prepErr  error
}

// NewSnapshot freezes a copy of the given tuples (in insertion order) as a
// standalone snapshot with a fresh identity. The input slice is
// copied, so the caller may keep mutating it.
func NewSnapshot(tuples []Tuple) *Snapshot {
	frozen := make([]Tuple, len(tuples))
	copy(frozen, tuples)
	return OwnSnapshot(frozen)
}

// OwnSnapshot freezes tuples as a snapshot WITHOUT copying: the snapshot
// takes ownership, and the caller must never touch the slice again. For
// callers that just built a private slice (the sliding window's Freeze);
// everyone else wants NewSnapshot.
func OwnSnapshot(tuples []Tuple) *Snapshot {
	return &Snapshot{
		id:     snapshotIDs.Add(1),
		tuples: tuples[:len(tuples):len(tuples)],
	}
}

// ID returns the snapshot's process-unique identity. IDs are never reused
// within a process, which makes them sound cache keys: an entry keyed by a
// superseded snapshot's ID is unreachable by construction.
func (s *Snapshot) ID() uint64 { return s.id }

// Len returns the number of tuples.
func (s *Snapshot) Len() int { return len(s.tuples) }

// Tuple returns the i-th tuple in insertion order.
func (s *Snapshot) Tuple(i int) Tuple { return s.tuples[i] }

// Tuples returns a copy of the tuple slice in insertion order.
func (s *Snapshot) Tuples() []Tuple {
	out := make([]Tuple, len(s.tuples))
	copy(out, s.tuples)
	return out
}

// Validate checks the data-model invariants on the frozen contents, exactly
// like Table.Validate.
func (s *Snapshot) Validate() error { return validateTuples(s.tuples) }

// Table materialises the snapshot as a fresh mutable table, whose own
// snapshots get fresh identities.
func (s *Snapshot) Table() *Table {
	t := NewTable()
	t.tuples = s.Tuples()
	t.version = uint64(len(s.tuples))
	return t
}

// Prepare returns the derived structure the query algorithms need — the
// snapshot-native form of the package-level Prepare — computing it at most
// once per snapshot: every call, from any goroutine, returns the same
// *Prepared, so its memoized unit decomposition is shared too. A snapshot
// with an attached index view materializes from the view; otherwise, or
// when the view rejects the contents, the frozen contents are validated
// and sorted, so an invalid snapshot reports the same error either way.
// The memo lives and dies with the snapshot.
func (s *Snapshot) Prepare() (*Prepared, error) {
	s.prepOnce.Do(func() {
		if v := s.view.Load(); v != nil {
			if p, err := v.Materialize(); err == nil {
				s.prep = p
				indexTotals.viewPrepares.Add(1)
				return
			}
		}
		s.prep, s.prepErr = prepareTuples(s.tuples)
	})
	return s.prep, s.prepErr
}

// SetIndexView attaches a frozen dynamic-index view over the same contents
// as an advisory accelerator; see Snapshot.view. It is set-once: the first
// caller wins and later calls are no-ops, so a published snapshot's view
// never changes. A view whose length disagrees with the snapshot is refused.
// Attach it before publishing the snapshot: Prepare consults the view only
// on its first call.
func (s *Snapshot) SetIndexView(v *IndexView) {
	if v == nil || v.Len() != len(s.tuples) {
		return
	}
	s.view.CompareAndSwap(nil, v)
}

// IndexView returns the attached dynamic-index view, or nil. The view holds
// the same tuples as the snapshot (in canonical rank order rather than
// insertion order — query answers are identical either way); Prepare
// materializes from it, and thresholded scans may use just its rank prefix
// (IndexView.MaterializePrefix).
func (s *Snapshot) IndexView() *IndexView { return s.view.Load() }
