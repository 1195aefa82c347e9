// Package engine provides the reusable, concurrency-safe query engine that
// turns the one-shot batch algorithms of internal/core into something that
// can sit behind a server:
//
//   - One prepared form per snapshot. uncertain.Prepare sorts, validates and
//     indexes a table; for repeated queries over slowly-changing data that
//     dominates small-query cost. PrepareSnapshot hands out the snapshot's
//     own memo (uncertain.Snapshot.Prepare): queries over an unchanged table
//     share one snapshot and skip preparation entirely, a mutation mints a
//     fresh snapshot with a fresh memo, and the memo is freed with its
//     snapshot. The engine itself holds no cache and needs no invalidation.
//   - Prefix preparation. A thresholded main-algorithm query scans only
//     the first ranks (Theorem 2), so PrepareScan serves it from the rank
//     prefix of the snapshot's index view that the scan can reach, built in
//     O(scan depth + log n), instead of the whole prepared form.
//   - Pooled scratch. Every query draws its dynamic-programming working
//     state (grid combiner, coalescer, recycled intermediate distributions)
//     from the process-wide core.Scratch pool, so steady-state queries
//     allocate near-zero. Results are bit-identical to fresh allocation.
//   - Batched multi-query execution. Many (k, threshold) queries against
//     one prepared table share the preparation, the precomputed Theorem-2
//     prefix sums and the memoized unit decomposition, fanned out over a
//     bounded worker pool.
//
// An Engine is safe for concurrent use, and its queries hold nothing: they
// run against immutable snapshots while the table keeps mutating.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"probtopk/internal/core"
	"probtopk/internal/uncertain"
)

// Engine is a reusable query engine. It keeps only query counters; the
// prepared forms it uses belong to the snapshots. The zero value is ready
// to use.
type Engine struct {
	queries    atomic.Uint64
	queryNanos atomic.Uint64
}

// New returns an Engine.
func New() *Engine { return &Engine{} }

// DefaultCacheSize, NewPartitioned and Invalidate remain for the benchmark
// harness (perfbench/trace.go), which still calls them; the engine holds no
// cache, so they configure and release nothing.
const DefaultCacheSize = 64

// NewPartitioned returns New(); see DefaultCacheSize.
func NewPartitioned(cacheSize, parts int) *Engine { return New() }

// Invalidate does nothing; see DefaultCacheSize.
func (e *Engine) Invalidate(*uncertain.Table) {}

// Stats is a snapshot of the engine's query counters.
type Stats struct {
	// Queries counts the distribution computations the engine has run
	// (each member of a batch counts once); QueryNanos is their cumulative
	// wall-clock time in nanoseconds. Together they give the mean DP cost a
	// serving layer can export.
	Queries    uint64
	QueryNanos uint64
	// Index aggregates the dynamic-index maintenance counters
	// (uncertain.IndexTotals) across the whole process — every index behind
	// this engine's snapshots reports there, whoever owns it, and so does
	// every snapshot prepared from its view.
	Index uncertain.IndexStats
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:    e.queries.Load(),
		QueryNanos: e.queryNanos.Load(),
		Index:      uncertain.IndexTotals(),
	}
}

// recordQueries adds n computed queries taking d to the latency counters.
func (e *Engine) recordQueries(n int, d time.Duration) {
	e.queries.Add(uint64(n))
	e.queryNanos.Add(uint64(d))
}

// PrepareSnapshot returns the Prepared form of s: the snapshot's own memo,
// built on first use from its attached dynamic-index view when it has one,
// by sorting otherwise (uncertain.Snapshot.Prepare). The returned Prepared
// is immutable and safe for concurrent readers.
func (e *Engine) PrepareSnapshot(s *uncertain.Snapshot) (*uncertain.Prepared, error) {
	return s.Prepare()
}

// PrepareScan returns a Prepared form of s that answers the given
// main-algorithm queries exactly as the whole form would. When every query
// is thresholded and s carries an index view, that is only the rank prefix
// the queries' Theorem-2 scans can reach (IndexView.MaterializePrefix,
// sized by the largest bound): O(scan depth + log n) instead of O(n).
// Otherwise — an exact query, no view, a view that cannot vouch for its
// group masses, or a stop the prefix does not contain — it is
// PrepareSnapshot's whole form, with PrepareSnapshot's errors.
func (e *Engine) PrepareScan(s *uncertain.Snapshot, queries []Query) (*uncertain.Prepared, error) {
	if p := prefixFor(s, queries); p != nil {
		return p, nil
	}
	return e.PrepareSnapshot(s)
}

// prefixFor returns the view's Prepared form for queries when it contains
// every query's Theorem-2 stop, nil when PrepareScan must fall back.
func prefixFor(s *uncertain.Snapshot, queries []Query) *uncertain.Prepared {
	v := s.IndexView()
	if v == nil || len(queries) == 0 {
		return nil
	}
	var bound float64
	for _, q := range queries {
		if q.K < 1 || !(q.Threshold > 0 && q.Threshold < 1) {
			return nil
		}
		bound = max(bound, core.Bound(q.K, q.Threshold))
	}
	p := v.MaterializePrefix(bound)
	if p == nil || p.Len() == s.Len() {
		return p
	}
	// The prefix was sized from tree aggregates; confirm with the scan's own
	// running sums that every stop lies strictly inside it.
	for _, q := range queries {
		if stop, ok := core.StopRank(p, q.K, q.Threshold); !ok || stop >= p.Len() {
			return nil
		}
	}
	return p
}

// DistributionPrepared answers one main-algorithm query over an
// already-prepared table with pooled scratch.
func (e *Engine) DistributionPrepared(p *uncertain.Prepared, params core.Params) (*core.Result, error) {
	s := core.GetScratch()
	defer core.PutScratch(s)
	start := time.Now()
	res, err := core.DistributionScratch(p, params, s)
	e.recordQueries(1, time.Since(start))
	return res, err
}

// Query is one member of a batch: a (k, threshold) pair evaluated against
// the shared prepared table. Threshold carries core.Params semantics
// (0 means exact; callers resolve any public-API sentinel beforehand).
type Query struct {
	K         int
	Threshold float64
}

// BatchPrepared answers many (k, threshold) queries against one prepared
// table, sharing the precomputed prefix sums and the memoized unit
// decomposition. workers bounds the fan-out goroutines; values below 2 run
// the batch serially on the calling goroutine. When fanning out, each
// query's DP runs serially (base.Parallelism is ignored) — the batch itself
// is the parallelism.
//
// Results are indexed like queries. The first error (by query index) aborts
// the batch.
func (e *Engine) BatchPrepared(p *uncertain.Prepared, base core.Params, queries []Query, workers int) ([]*core.Result, error) {
	results := make([]*core.Result, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	// Force the memoization of the unit decomposition before fanning out so
	// every query shares one computation of it.
	p.AllUnits()
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 2 {
		s := core.GetScratch()
		defer core.PutScratch(s)
		for i, q := range queries {
			params := base
			params.K = q.K
			params.Threshold = q.Threshold
			start := time.Now()
			res, err := core.DistributionScratch(p, params, s)
			e.recordQueries(1, time.Since(start))
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	errs := make([]error, len(queries))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := core.GetScratch()
			defer core.PutScratch(s)
			for i := range next {
				params := base
				params.K = queries[i].K
				params.Threshold = queries[i].Threshold
				params.Parallelism = 1 // serial DP: the batch is the parallelism
				start := time.Now()
				results[i], errs[i] = core.DistributionScratch(p, params, s)
				e.recordQueries(1, time.Since(start))
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
