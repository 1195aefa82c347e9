package probtopk

import (
	"fmt"
	"time"

	"probtopk/internal/core"
	"probtopk/internal/engine"
	"probtopk/internal/uncertain"
)

// DefaultEngineCacheSize is the number of prepared tables a NewEngine engine
// retains (each distinct table occupies at most one slot).
const DefaultEngineCacheSize = engine.DefaultCacheSize

// Engine is a reusable, concurrency-safe query engine for serving repeated
// top-k queries:
//
//   - The prepared (validated, sorted, indexed) form of each queried state
//     is cached keyed by its snapshot identity (Snapshot.ID), so repeated
//     queries over an unchanged table skip preparation entirely; mutating
//     the table mints a fresh snapshot whose new identity transparently
//     invalidates, and — identities being process-unique and never reused —
//     a cached preparation can never be served for different contents,
//     whatever happens to table pointers, versions or clones.
//   - Per-query dynamic-programming scratch is drawn from a process-wide
//     pool, so steady-state queries allocate near-zero. Results are
//     bit-identical to the uncached, freshly allocated path.
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
// baseline semantics) route through a shared default engine, so plain
// library use gets the caching for free. Construct a dedicated Engine to
// isolate cache capacity or statistics per workload.
//
// An Engine holds references to the snapshots it has prepared (at most
// cacheSize of them, least-recently-used evicted first); call Invalidate to
// release a table's entry eagerly.
type Engine struct {
	e *engine.Engine
}

// NewEngine returns an engine with the default prepared-table cache size.
func NewEngine() *Engine { return NewEngineWithCache(DefaultEngineCacheSize) }

// NewEngineWithCache returns an engine whose cache holds up to cacheSize
// prepared tables. cacheSize <= 0 disables caching — every query prepares
// afresh — which is the configuration to benchmark the uncached path
// against.
func NewEngineWithCache(cacheSize int) *Engine {
	return &Engine{e: engine.New(cacheSize)}
}

// NewEngineSharded returns an engine whose prepared-table cache is split
// into shards independently locked partitions, routed by table identity,
// with the cacheSize budget divided evenly across them. Serving layers
// that shard tables (internal/server with -shards) pass their shard count
// so cache traffic for unrelated tables never contends on one mutex;
// results are identical to an unpartitioned engine. shards < 1 means one
// partition; cacheSize <= 0 disables caching.
func NewEngineSharded(cacheSize, shards int) *Engine {
	return &Engine{e: engine.NewPartitioned(cacheSize, shards)}
}

// defaultEngine backs the package-level query functions.
var defaultEngine = NewEngine()

// Invalidate drops any preparation of t cached by the package's shared
// default engine. The package-level query functions retain (up to the
// default cache size) the most recently queried tables and their prepared
// forms; long-running processes that query many short-lived tables should
// call Invalidate when done with one, or use a dedicated Engine whose
// lifetime they control.
func Invalidate(t *Table) { defaultEngine.Invalidate(t) }

// EngineStats is a snapshot of an engine's prepared-table cache and query
// counters.
type EngineStats struct {
	// Hits and Misses count Prepare calls served from / filled into the
	// cache; Evictions counts entries dropped by the LRU bound.
	Hits, Misses, Evictions uint64
	// Entries is the current number of cached prepared tables.
	Entries int
	// PartitionEntries is the per-partition entry count of a sharded
	// engine's cache (length 1 for an unsharded one, nil with caching
	// disabled).
	PartitionEntries []int
	// Queries counts the main-algorithm distribution computations the
	// engine has run (each member of a batch counts once); QueryTime is
	// their cumulative wall-clock time. A serving layer exports these to
	// track the mean dynamic-programming cost.
	Queries   uint64
	QueryTime time.Duration
	// ViewPrepares counts cache misses served by materializing a snapshot's
	// attached dynamic-index view (reusing the index's unchanged rank
	// prefix) instead of sorting from scratch.
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
	// prefix and so skip the whole prepared form (and the prepared-table
	// cache).
	IndexPrefixBuilds uint64
}

// CacheStats returns a snapshot of the engine's cache counters.
func (e *Engine) CacheStats() EngineStats {
	s := e.e.Stats()
	return EngineStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries,
		PartitionEntries: s.PartEntries,
		Queries:          s.Queries, QueryTime: time.Duration(s.QueryNanos),
		ViewPrepares:   s.ViewPrepares,
		IndexMutations: s.Index.Mutations, IndexMemoHits: s.Index.MemoHits,
		IndexSuffixRebuilds: s.Index.SuffixMaterializations,
		IndexFullRebuilds:   s.Index.FullMaterializations,
		IndexViewRebuilds:   s.Index.ViewMaterializations,
		IndexPrefixBuilds:   s.Index.PrefixMaterializations,
	}
}

// Invalidate drops any cached preparation of t's latest snapshot, releasing
// the engine's references to it.
func (e *Engine) Invalidate(t *Table) { e.e.Invalidate(t) }

// InvalidateSnapshot drops the cached preparation of the snapshot with the
// given identity, if present.
func (e *Engine) InvalidateSnapshot(id uint64) { e.e.InvalidateSnapshot(id) }

// TopKDistribution computes the score distribution of the top-k tuple
// vectors of t, like the package-level function, with this engine's cache.
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
// table with the main algorithm, sharing a single (cached) preparation and
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

// CTypicalTopK computes the top-k score distribution of t with this
// engine's cache and returns the c typical vectors; see the package-level
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
// whole form, from the cache when possible.
func (e *Engine) prepareFor(s *Snapshot, alg Algorithm, queries []engine.Query) (*uncertain.Prepared, error) {
	if alg == AlgorithmMain {
		return e.e.PrepareScan(s, queries)
	}
	return e.e.PrepareSnapshot(s)
}

// prepareSnapshot returns the cached prepared form of s via this engine.
func (e *Engine) prepareSnapshot(s *Snapshot) (*uncertain.Prepared, error) {
	if s == nil {
		return nil, ErrNilSnapshot
	}
	return e.e.PrepareSnapshot(s)
}
