package probtopk

import (
	"fmt"

	"probtopk/internal/core"
	"probtopk/internal/stream"
)

// Stream is a sliding window over an uncertain tuple stream, extending the
// paper's semantics to the continuous setting its related work points at
// (sliding-window top-k on uncertain streams). The window holds the most
// recent tuples; TopKDistribution answers the paper's query over the current
// contents.
//
// The window maintains its rank order in a fully dynamic prepared index:
// every Push inserts the new tuple and deletes the evicted one with O(log W)
// structural work, wherever in the rank order they land — ME-group churn no
// longer forces a full rebuild. The flat prepared form the query consumes is
// materialized lazily, re-deriving only the rank suffix below the lowest
// changed position, and repeated queries over an unchanged window reuse it
// outright; answers are bit-identical to preparing the window contents from
// scratch. Not safe for concurrent use.
type Stream struct {
	w *stream.Window
}

// NewStream creates a sliding window holding the most recent capacity
// tuples.
func NewStream(capacity int) (*Stream, error) {
	w, err := stream.NewWindow(capacity)
	if err != nil {
		return nil, err
	}
	return &Stream{w: w}, nil
}

// Push appends a tuple, evicting and returning the oldest one when the
// window is full. ME group constraints bind among the members currently in
// the window; a group whose in-window probabilities exceed 1 surfaces as an
// error on the next query, and heals as members slide out.
func (s *Stream) Push(t Tuple) (evicted *Tuple, err error) {
	return s.w.Push(t)
}

// Len returns the number of tuples currently in the window.
func (s *Stream) Len() int { return s.w.Len() }

// Capacity returns the window size.
func (s *Stream) Capacity() int { return s.w.Capacity() }

// Tuples returns the window contents in rank order.
func (s *Stream) Tuples() []Tuple { return s.w.Snapshot() }

// Freeze publishes the current window contents as an immutable Snapshot
// with a fresh identity. The Stream itself is single-owner, but the
// returned snapshot is not: hand it to an Engine (TopKDistributionSnapshot,
// the baseline semantics, batches) from any goroutine while the owner keeps
// pushing — the frozen contents never change, and the snapshot memoizes
// its prepared form, built from the window's index. This is the bridge from
// the streaming window to the concurrent serving layer.
func (s *Stream) Freeze() (*Snapshot, error) { return s.w.Freeze() }

// StreamStats counts a Stream's dynamic-index maintenance: how pushes and
// queries resolved against the incrementally maintained prepared state.
type StreamStats struct {
	// CachedQueries is the number of queries that reused the memoized
	// prepared state without any rebuild (no pushes since the last query).
	CachedQueries int
	// SuffixRebuilds is the number of materializations that reused the
	// unchanged higher-ranked prefix of the previous prepared state.
	SuffixRebuilds int
	// FullRebuilds is the number of materializations from scratch (only the
	// first successful build — ME churn no longer forces one).
	FullRebuilds int
	// PolylogMutations is the number of index mutations (inserts and
	// evictions), each costing O(log W) structural work.
	PolylogMutations int
}

// Stats returns the window's prepared-state maintenance counters.
func (s *Stream) Stats() StreamStats {
	st := s.w.Stats()
	return StreamStats{
		CachedQueries:    st.CachedQueries,
		SuffixRebuilds:   st.SuffixRebuilds,
		FullRebuilds:     st.FullRebuilds,
		PolylogMutations: st.PolylogMutations,
	}
}

// TopKDistribution computes the top-k score distribution of the current
// window contents; options as in the package-level TopKDistribution,
// including Options.Algorithm — all three algorithms run against the
// window's incrementally maintained prepared state. The result supports the
// same statistics, Typical and UTopK accessors.
func (s *Stream) TopKDistribution(k int, opts *Options) (*Distribution, error) {
	params, alg := opts.resolve()
	params.K = k
	var (
		res *stream.Result
		err error
	)
	switch alg {
	case AlgorithmMain:
		res, err = s.w.TopK(k, params)
	case AlgorithmStateExpansion, AlgorithmKCombo:
		prep, perr := s.w.Prepared()
		if perr != nil {
			return nil, perr
		}
		var cres *core.Result
		if alg == AlgorithmStateExpansion {
			cres, err = core.StateExpansion(prep, params)
		} else {
			cres, err = core.KCombo(prep, params)
		}
		if err == nil {
			res = &stream.Result{Dist: cres.Dist, Prepared: prep,
				WindowLen: s.w.Len(), ScanDepth: cres.ScanDepth}
		}
	default:
		return nil, fmt.Errorf("probtopk: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, err
	}
	if opts != nil && opts.Normalize {
		res.Dist.Normalize()
	}
	return &Distribution{dist: res.Dist, prepared: res.Prepared, ScanDepth: res.ScanDepth, K: k}, nil
}
