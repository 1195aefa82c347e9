package probtopk

import (
	"fmt"
	"time"

	"probtopk/internal/core"
	"probtopk/internal/engine"
	"probtopk/internal/uncertain"
)

// Engine is a reusable, concurrency-safe query engine for serving repeated
// top-k queries:
//
//   - The prepared (validated, sorted, indexed) form of each queried state
//     is computed once per snapshot and memoized on it (Snapshot.Prepare),
//     so repeated queries over an unchanged table skip preparation
//     entirely; mutating the table mints a fresh snapshot with its own
//     memo, so a prepared form can never be served for different contents,
//     whatever happens to table pointers, versions or clones. The engine
//     holds no cache: the memo is freed with its snapshot.
//   - Per-query dynamic-programming scratch is drawn from a process-wide
//     pool, so steady-state queries allocate near-zero. Results are
//     bit-identical to the freshly allocated path.
//   - Batches of (k, threshold) queries against one table share the
//     preparation, the Theorem-2 prefix sums and the unit decomposition,
//     fanned out over a bounded worker pool.
//
// Every query method comes in two forms: the *Table form takes the table's
// current snapshot and queries that (so the usual Table contract applies to
// the call itself), and the *Snapshot form queries an immutable snapshot
// the caller already holds — those hold no lock and no reference to the
// table, so they can run concurrently with mutations, and every query of a
// multi-step read (distribution, then baselines, then typical sets) sees
// the same frozen state.
//
// The package-level query functions (TopKDistribution, CTypicalTopK, the
// baseline semantics) route through a shared default engine. Construct a
// dedicated Engine to keep query statistics per workload.
type Engine struct {
	e *engine.Engine
}

// NewEngine returns an engine.
func NewEngine() *Engine { return &Engine{e: engine.New()} }

// defaultEngine backs the package-level query functions.
var defaultEngine = NewEngine()

// EngineStats is a snapshot of an engine's query counters and of the
// process-wide dynamic-index counters.
type EngineStats struct {
	// Queries counts the main-algorithm distribution computations the
	// engine has run (each member of a batch counts once); QueryTime is
	// their cumulative wall-clock time. A serving layer exports these to
	// track the mean dynamic-programming cost.
	Queries   uint64
	QueryTime time.Duration
	// ViewPrepares counts, process-wide, the snapshots whose prepared form
	// was built by materializing their attached dynamic-index view (reusing
	// the index's unchanged rank prefix) instead of sorting from scratch:
	// at most one per snapshot.
	ViewPrepares uint64
	// IndexMutations, IndexMemoHits, IndexSuffixRebuilds, IndexFullRebuilds
	// and IndexViewRebuilds surface the process-wide dynamic-index
	// maintenance counters (every uncertain.Index in the process reports
	// there): O(log n) mutations applied, materializations answered from the
	// memo, suffix-reusing rebuilds, from-scratch rebuilds, and
	// materializations performed by frozen views.
	IndexMutations      uint64
	IndexMemoHits       uint64
	IndexSuffixRebuilds uint64
	IndexFullRebuilds   uint64
	IndexViewRebuilds   uint64
	// IndexPrefixBuilds counts, process-wide, the rank prefixes frozen
	// views built for thresholded main-algorithm queries, which scan only a
	// prefix and so skip the whole prepared form.
	IndexPrefixBuilds uint64
}

// CacheStats returns a snapshot of the engine's query counters and the
// process-wide dynamic-index counters.
func (e *Engine) CacheStats() EngineStats {
	s := e.e.Stats()
	return EngineStats{
		Queries: s.Queries, QueryTime: time.Duration(s.QueryNanos),
		ViewPrepares:   s.Index.ViewPrepares,
		IndexMutations: s.Index.Mutations, IndexMemoHits: s.Index.MemoHits,
		IndexSuffixRebuilds: s.Index.SuffixMaterializations,
		IndexFullRebuilds:   s.Index.FullMaterializations,
		IndexViewRebuilds:   s.Index.ViewMaterializations,
		IndexPrefixBuilds:   s.Index.PrefixMaterializations,
	}
}

// TopKDistribution computes the score distribution of the top-k tuple
// vectors of t, like the package-level function, through this engine.
func (e *Engine) TopKDistribution(t *Table, k int, opts *Options) (*Distribution, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.TopKDistributionSnapshot(t.Snapshot(), k, opts)
}

// TopKDistributionSnapshot computes the score distribution of the top-k
// tuple vectors of the snapshot's frozen contents. It holds no lock and no
// reference to the owning table, so it can run concurrently with mutations.
func (e *Engine) TopKDistributionSnapshot(s *Snapshot, k int, opts *Options) (*Distribution, error) {
	if s == nil {
		return nil, ErrNilSnapshot
	}
	params, alg := opts.resolve()
	params.K = k
	prep, err := e.prepareFor(s, alg, []engine.Query{{K: k, Threshold: params.Threshold}})
	if err != nil {
		return nil, err
	}
	var res *core.Result
	switch alg {
	case AlgorithmMain:
		res, err = e.e.DistributionPrepared(prep, params)
	case AlgorithmStateExpansion:
		res, err = core.StateExpansion(prep, params)
	case AlgorithmKCombo:
		res, err = core.KCombo(prep, params)
	default:
		return nil, fmt.Errorf("probtopk: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, err
	}
	if opts != nil && opts.Normalize {
		res.Dist.Normalize()
	}
	return &Distribution{dist: res.Dist, prepared: prep, ScanDepth: res.ScanDepth, K: k}, nil
}

// BatchQuery is one member of a TopKDistributionBatch: a k and a per-query
// probability threshold carrying the same sentinel semantics as
// Options.Threshold (0 means the 0.001 paper default, negative means exact).
type BatchQuery struct {
	K         int
	Threshold float64
}

// TopKDistributionBatch answers many (k, threshold) queries against one
// table with the main algorithm, sharing a single (memoized) preparation and
// scan across all of them. opts supplies the shared options; each query's K
// and Threshold override it. Queries fan out over up to opts.Parallelism
// goroutines (values below 2 run serially, each query's own unit-level
// parallelism then still applies). Results are indexed like queries.
func (e *Engine) TopKDistributionBatch(t *Table, queries []BatchQuery, opts *Options) ([]*Distribution, error) {
	if t == nil {
		return nil, ErrNilTable
	}
	return e.TopKDistributionBatchSnapshot(t.Snapshot(), queries, opts)
}

// TopKDistributionBatchSnapshot is TopKDistributionBatch over an immutable
// snapshot: every member of the batch is guaranteed to answer against the
// same frozen state, however long the batch runs.
func (e *Engine) TopKDistributionBatchSnapshot(s *Snapshot, queries []BatchQuery, opts *Options) ([]*Distribution, error) {
	if s == nil {
		return nil, ErrNilSnapshot
	}
	params, alg := opts.resolve()
	qs := make([]engine.Query, len(queries))
	for i, q := range queries {
		qs[i] = engine.Query{K: q.K, Threshold: resolveThreshold(q.Threshold)}
	}
	prep, err := e.prepareFor(s, alg, qs)
	if err != nil {
		return nil, err
	}
	if alg != AlgorithmMain {
		return nil, fmt.Errorf("probtopk: batch execution supports only AlgorithmMain, got %v", alg)
	}
	results, err := e.e.BatchPrepared(prep, params, qs, params.Parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]*Distribution, len(results))
	for i, res := range results {
		if opts != nil && opts.Normalize {
			res.Dist.Normalize()
		}
		out[i] = &Distribution{dist: res.Dist, prepared: prep, ScanDepth: res.ScanDepth, K: queries[i].K}
	}
	return out, nil
}

// CTypicalTopK computes the top-k score distribution of t through this
// engine and returns the c typical vectors; see the package-level
// CTypicalTopK.
func (e *Engine) CTypicalTopK(t *Table, k, c int, opts *Options) ([]Line, error) {
	dist, err := e.TopKDistribution(t, k, opts)
	if err != nil {
		return nil, err
	}
	lines, _, err := dist.Typical(c)
	return lines, err
}

// CTypicalTopKSnapshot is CTypicalTopK over an immutable snapshot.
func (e *Engine) CTypicalTopKSnapshot(s *Snapshot, k, c int, opts *Options) ([]Line, error) {
	dist, err := e.TopKDistributionSnapshot(s, k, opts)
	if err != nil {
		return nil, err
	}
	lines, _, err := dist.Typical(c)
	return lines, err
}

// prepareFor returns the prepared form of s that queries with algorithm alg
// need: for the main algorithm, only the rank prefix their Theorem-2 scans
// reach when s carries an index view (engine.PrepareScan); otherwise the
// snapshot's memoized whole form.
func (e *Engine) prepareFor(s *Snapshot, alg Algorithm, queries []engine.Query) (*uncertain.Prepared, error) {
	if alg == AlgorithmMain {
		return e.e.PrepareScan(s, queries)
	}
	return e.e.PrepareSnapshot(s)
}

// prepareSnapshot returns the memoized prepared form of s via this engine.
func (e *Engine) prepareSnapshot(s *Snapshot) (*uncertain.Prepared, error) {
	if s == nil {
		return nil, ErrNilSnapshot
	}
	return e.e.PrepareSnapshot(s)
}
