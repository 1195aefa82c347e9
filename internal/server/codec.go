package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"probtopk"
)

// maxBatchQueries bounds one batch request.
const maxBatchQueries = 256

// TupleJSON is the wire form of one uncertain tuple.
type TupleJSON struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Prob  float64 `json:"prob"`
	Group string  `json:"group,omitempty"`
}

// TableRequest is the JSON body of a table upload or append.
type TableRequest struct {
	Tuples []TupleJSON `json:"tuples"`
}

// TableInfo describes one hosted table.
type TableInfo struct {
	Name   string `json:"name"`
	Tuples int    `json:"tuples"`
	// Version counts the table's mutations (Adds); it orders the states of
	// one table but is reusable across replace and delete/recreate.
	Version uint64 `json:"version"`
	// Snapshot is the process-unique identity of the published state — the
	// stamp every derived answer is keyed by. It changes on every create,
	// replace and append, and is never reused.
	Snapshot uint64 `json:"snapshot"`
}

// TablesResponse is the body of GET /tables.
type TablesResponse struct {
	Tables []TableInfo `json:"tables"`
}

// BatchQueryJSON is one member of a batched query.
type BatchQueryJSON struct {
	K int `json:"k"`
	// Threshold follows the same wire sentinel as QueryRequest.Threshold.
	Threshold float64 `json:"threshold,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
}

// QueryRequest is the decoded form of a query, from a JSON body (POST) or
// URL parameters (GET). Fields that don't apply to the queried endpoint must
// be left zero; the server rejects, say, a batch list on a typical query.
//
// Threshold carries the library's wire sentinel: 0 (or omitted) means the
// paper's 0.001 default, a negative value — or Exact — means the exact,
// unthresholded computation.
type QueryRequest struct {
	K                int              `json:"k"`
	C                int              `json:"c,omitempty"`
	Threshold        float64          `json:"threshold,omitempty"`
	Exact            bool             `json:"exact,omitempty"`
	Algorithm        string           `json:"algorithm,omitempty"`
	MaxLines         int              `json:"maxLines,omitempty"`
	WeightedCoalesce bool             `json:"weightedCoalesce,omitempty"`
	Normalize        bool             `json:"normalize,omitempty"`
	P                float64          `json:"p,omitempty"` // PT-k probability threshold
	Queries          []BatchQueryJSON `json:"queries,omitempty"`
}

// decodeQueryJSON parses a JSON query body. Unknown fields and trailing
// garbage are errors, so typos ("topk" for "k") fail loudly instead of
// silently querying with defaults.
func decodeQueryJSON(data []byte) (*QueryRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	q := &QueryRequest{}
	if err := dec.Decode(q); err != nil {
		return nil, fmt.Errorf("bad query JSON: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, errors.New("bad query JSON: trailing data after the query object")
	}
	return q, nil
}

// decodeQueryParams parses a GET query string into the same request shape.
// Batch queries have no parameter form; use POST.
func decodeQueryParams(vals url.Values) (*QueryRequest, error) {
	q := &QueryRequest{}
	for key, vs := range vals {
		v := vs[len(vs)-1]
		var err error
		switch key {
		case "k":
			q.K, err = strconv.Atoi(v)
		case "c":
			q.C, err = strconv.Atoi(v)
		case "threshold":
			q.Threshold, err = strconv.ParseFloat(v, 64)
		case "exact":
			q.Exact, err = strconv.ParseBool(v)
		case "algorithm":
			q.Algorithm = v
		case "maxLines":
			q.MaxLines, err = strconv.Atoi(v)
		case "weightedCoalesce":
			q.WeightedCoalesce, err = strconv.ParseBool(v)
		case "normalize":
			q.Normalize, err = strconv.ParseBool(v)
		case "p":
			q.P, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("unknown query parameter %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("bad query parameter %s=%q", key, v)
		}
	}
	return q, nil
}

// queryKind names the family of query an endpoint serves; it selects which
// request fields apply and prefixes the cache fingerprint.
type queryKind string

const (
	kindTopK     queryKind = "topk"
	kindBatch    queryKind = "batch"
	kindTypical  queryKind = "typical"
	kindBaseline queryKind = "baseline"
)

// baselineKinds are the §5 comparison semantics served under
// /tables/{name}/baseline/{semantic}.
var baselineKinds = map[string]bool{
	"utopk":        true,
	"ukranks":      true,
	"ptk":          true,
	"globaltopk":   true,
	"intopk":       true,
	"expectedrank": true,
}

// resolvedQuery is a query with every wire sentinel substituted, ready to
// execute and to fingerprint. threshold == 0 and maxLines == 0 here mean
// exact / unlimited (the resolution of the public API's sentinels), never
// "defaulted".
type resolvedQuery struct {
	kind      queryKind
	baseline  string // set when kind is a baseline query
	k, c      int
	algorithm probtopk.Algorithm
	threshold float64
	maxLines  int
	weighted  bool
	normalize bool
	p         float64
	batch     []probtopk.BatchQuery
}

// resolveThreshold maps the wire sentinel to the resolved value: negative or
// exact → 0 (exact), 0 → the paper's 0.001 default, positive → itself.
func resolveThreshold(t float64, exact bool) (float64, error) {
	switch {
	case exact && t > 0:
		return 0, fmt.Errorf("exact conflicts with threshold %v: exact requests the unthresholded computation", t)
	case exact, t < 0:
		return 0, nil
	case t == 0:
		return 0.001, nil
	default:
		return t, nil
	}
}

// resolveAlgorithm maps the wire name to the Algorithm constant.
func resolveAlgorithm(name string) (probtopk.Algorithm, error) {
	switch name {
	case "", "main":
		return probtopk.AlgorithmMain, nil
	case "state-expansion":
		return probtopk.AlgorithmStateExpansion, nil
	case "k-combo":
		return probtopk.AlgorithmKCombo, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want main, state-expansion or k-combo)", name)
	}
}

// resolve validates q against the endpoint kind and substitutes every
// sentinel. kind is kindTopK/kindBatch/kindTypical; baselines pass the
// semantic name instead.
func (q *QueryRequest) resolve(kind queryKind, baseline string) (*resolvedQuery, error) {
	r := &resolvedQuery{kind: kind, baseline: baseline, k: q.K, c: q.C,
		weighted: q.WeightedCoalesce, normalize: q.Normalize, p: q.P}
	// Batch requests carry k per member; everywhere else k is required.
	if kind != kindBatch && q.K < 1 {
		return nil, fmt.Errorf("k must be ≥ 1, got %d", q.K)
	}
	var err error
	if r.algorithm, err = resolveAlgorithm(q.Algorithm); err != nil {
		return nil, err
	}
	if r.threshold, err = resolveThreshold(q.Threshold, q.Exact); err != nil {
		return nil, err
	}
	switch {
	case q.Exact && q.MaxLines > 0:
		return nil, fmt.Errorf("exact conflicts with maxLines %d: exact lifts the line cap", q.MaxLines)
	case q.Exact, q.MaxLines < 0:
		r.maxLines = 0
	case q.MaxLines == 0:
		r.maxLines = probtopk.DefaultMaxLines
	default:
		r.maxLines = q.MaxLines
	}
	if kind != kindTypical && q.C != 0 {
		return nil, fmt.Errorf("c applies only to typical queries")
	}
	if kind != kindBatch && len(q.Queries) != 0 {
		return nil, fmt.Errorf("queries applies only to batch queries")
	}
	if baseline != "ptk" && q.P != 0 {
		return nil, fmt.Errorf("p applies only to the ptk baseline")
	}
	switch kind {
	case kindTypical:
		if q.C < 1 {
			return nil, fmt.Errorf("c must be ≥ 1, got %d", q.C)
		}
	case kindBatch:
		if r.algorithm != probtopk.AlgorithmMain {
			return nil, fmt.Errorf("batch queries support only the main algorithm")
		}
		if q.K != 0 {
			return nil, fmt.Errorf("batch requests set k per query, not at the top level")
		}
		if q.Threshold != 0 || q.Exact {
			return nil, fmt.Errorf("batch requests set threshold/exact per query, not at the top level")
		}
		if len(q.Queries) == 0 {
			return nil, fmt.Errorf("batch request has no queries")
		}
		if len(q.Queries) > maxBatchQueries {
			return nil, fmt.Errorf("batch has %d queries, max %d", len(q.Queries), maxBatchQueries)
		}
		r.batch = make([]probtopk.BatchQuery, len(q.Queries))
		for i, bq := range q.Queries {
			if bq.K < 1 {
				return nil, fmt.Errorf("batch query %d: k must be ≥ 1, got %d", i, bq.K)
			}
			thr, err := resolveThreshold(bq.Threshold, bq.Exact)
			if err != nil {
				return nil, fmt.Errorf("batch query %d: %v", i, err)
			}
			if thr == 0 {
				// The public BatchQuery sentinel: negative requests the
				// exact computation, 0 would mean the 0.001 default again.
				thr = -1
			}
			r.batch[i] = probtopk.BatchQuery{K: bq.K, Threshold: thr}
		}
	}
	if baseline != "" {
		if baseline == "ptk" {
			if !(q.P > 0 && q.P <= 1) {
				return nil, fmt.Errorf("ptk requires p in (0, 1], got %v", q.P)
			}
		}
		// Baselines fix their own computation; distribution knobs don't
		// apply.
		if q.Algorithm != "" || q.Threshold != 0 || q.Exact || q.MaxLines != 0 ||
			q.WeightedCoalesce || q.Normalize {
			return nil, fmt.Errorf("baseline queries accept only k (and p for ptk)")
		}
	}
	return r, nil
}

// options builds the public Options equivalent of the resolved query. The
// resolved values map onto the public sentinels without ambiguity: exact
// threshold (0) becomes the negative sentinel, unlimited lines (0) becomes
// the negative sentinel.
func (r *resolvedQuery) options() *probtopk.Options {
	o := &probtopk.Options{
		Algorithm:        r.algorithm,
		WeightedCoalesce: r.weighted,
		Normalize:        r.normalize,
	}
	if r.threshold == 0 {
		o.Threshold = -1
	} else {
		o.Threshold = r.threshold
	}
	if r.maxLines == 0 {
		o.MaxLines = -1
	} else {
		o.MaxLines = r.maxLines
	}
	return o
}

// fingerprint renders the resolved query canonically for the answer-cache
// key. Two requests spelled differently but resolving identically (omitted
// threshold vs explicit 0.001, exact vs threshold -1) share a fingerprint.
func (r *resolvedQuery) fingerprint() string {
	var b strings.Builder
	if r.baseline != "" {
		fmt.Fprintf(&b, "baseline/%s?k=%d", r.baseline, r.k)
		if r.baseline == "ptk" {
			fmt.Fprintf(&b, "&p=%g", r.p)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%s?k=%d&alg=%d&thr=%g&lines=%d&w=%t&norm=%t",
		r.kind, r.k, r.algorithm, r.threshold, r.maxLines, r.weighted, r.normalize)
	if r.kind == kindTypical {
		fmt.Fprintf(&b, "&c=%d", r.c)
	}
	for _, q := range r.batch {
		fmt.Fprintf(&b, "&q=%d:%g", q.K, q.Threshold)
	}
	return b.String()
}

// LineJSON is the wire form of one distribution line.
type LineJSON struct {
	Score      float64  `json:"score"`
	Prob       float64  `json:"prob"`
	Vector     []string `json:"vector,omitempty"`
	VectorProb float64  `json:"vectorProb,omitempty"`
}

// DistStatsJSON summarises a non-empty distribution.
type DistStatsJSON struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// DistributionResponse is the body of a top-k distribution answer. TotalMass
// is Pr(a top-k vector exists); an empty Lines with TotalMass 0 means no k
// tuples can co-exist (k larger than any possible world).
type DistributionResponse struct {
	K         int            `json:"k"`
	ScanDepth int            `json:"scanDepth"`
	TotalMass float64        `json:"totalMass"`
	Lines     []LineJSON     `json:"lines"`
	Stats     *DistStatsJSON `json:"stats,omitempty"`
}

// BatchResponse is the body of a batched distribution answer, indexed like
// the request's queries.
type BatchResponse struct {
	Results []DistributionResponse `json:"results"`
}

// TypicalResponse is the body of a c-typical answer: the c chosen lines, the
// achieved expected distance (the Definition-1 objective), and the §4
// vector-spread summary.
type TypicalResponse struct {
	K          int        `json:"k"`
	C          int        `json:"c"`
	Cost       float64    `json:"cost"`
	Lines      []LineJSON `json:"lines"`
	SpreadMean float64    `json:"spreadMean"`
	SpreadMax  int        `json:"spreadMax"`
}

// RankedTupleJSON is one U-kRanks row.
type RankedTupleJSON struct {
	Rank  int     `json:"rank"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Prob  float64 `json:"prob"`
}

// TupleProbJSON is one tuple with its in-top-k probability.
type TupleProbJSON struct {
	ID     string  `json:"id"`
	Score  float64 `json:"score"`
	Prob   float64 `json:"prob"`
	InTopK float64 `json:"inTopK"`
}

// ExpectedRankJSON is one expected-rank row.
type ExpectedRankJSON struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Prob  float64 `json:"prob"`
	Rank  float64 `json:"rank"`
}

// BaselineResponse is the body of a baseline answer; exactly one field
// besides Semantic and K is set, matching the semantic.
type BaselineResponse struct {
	Semantic string             `json:"semantic"`
	K        int                `json:"k"`
	P        float64            `json:"p,omitempty"`
	Line     *LineJSON          `json:"line,omitempty"`
	Ranks    []RankedTupleJSON  `json:"ranks,omitempty"`
	Tuples   []TupleProbJSON    `json:"tuples,omitempty"`
	Expected []ExpectedRankJSON `json:"expected,omitempty"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// CacheStatsJSON mirrors a cache's counters on /debug/stats.
type CacheStatsJSON struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations,omitempty"`
	Entries       int    `json:"entries"`
	// SavedNanos sums the recorded recompute cost of every hit: the total
	// latency the cache spared its callers.
	SavedNanos uint64 `json:"savedNs,omitempty"`
}

// FairnessLevelJSON is one SFB level's occupancy on /debug/stats.
type FairnessLevelJSON struct {
	Level int `json:"level"`
	// HotBuckets counts buckets holding a nonzero drop probability; MaxP is
	// the largest probability in the level.
	HotBuckets int     `json:"hotBuckets"`
	MaxP       float64 `json:"maxP"`
	// Sheds sums the level's per-bucket shed attributions.
	Sheds uint64 `json:"sheds"`
}

// FairnessJSON mirrors the SFB throttler's counters on /debug/stats;
// present only when the server runs with fairness enabled (topkd
// -fairness).
type FairnessJSON struct {
	// Decisions counts admission decisions; Sheds the requests shed, split
	// into ProbSheds (SFB drop at the door) and QueueSheds (cold-query
	// compute capacity exhausted — the genuine-shortage events that raise
	// drop probabilities).
	Decisions  uint64 `json:"decisions"`
	Sheds      uint64 `json:"sheds"`
	ProbSheds  uint64 `json:"probSheds"`
	QueueSheds uint64 `json:"queueSheds"`
	// Rotations counts level re-seedings (collision healing).
	Rotations uint64 `json:"rotations"`
	// ComputeInFlight / ComputeWaiters describe the cold-query gate at
	// snapshot time.
	ComputeInFlight int                 `json:"computeInFlight"`
	ComputeWaiters  int                 `json:"computeWaiters"`
	Levels          []FairnessLevelJSON `json:"levels"`
	// TopShedders maps client ids to their shed counts, bounded to the
	// first distinct shedding clients; SheddersOverflow counts sheds by
	// clients beyond the bound.
	TopShedders      map[string]uint64 `json:"topShedders,omitempty"`
	SheddersOverflow uint64            `json:"sheddersOverflow,omitempty"`
}

// LatencyJSON is one latency counter: completed requests and their summed
// wall-clock time.
type LatencyJSON struct {
	Count   uint64 `json:"count"`
	TotalNs uint64 `json:"totalNs"`
}

// DurabilityShardJSON is one WAL shard's slice of the durability counters.
type DurabilityShardJSON struct {
	Shard                  int    `json:"shard"`
	WALRecords             uint64 `json:"walRecords"`
	WALBytes               uint64 `json:"walBytes"`
	WALSyncs               uint64 `json:"walSyncs"`
	WALSegments            int    `json:"walSegments"`
	WALBatches             uint64 `json:"walBatches,omitempty"`
	WALFsyncsSaved         uint64 `json:"walFsyncsSaved,omitempty"`
	RecordsSinceCheckpoint int    `json:"recordsSinceCheckpoint"`
}

// DurabilityJSON mirrors the WAL and checkpoint counters on /debug/stats;
// present only when the server runs with a durability backend. The
// top-level WAL figures aggregate across shards; Shards breaks them down.
type DurabilityJSON struct {
	WALRecords  uint64 `json:"walRecords"`
	WALBytes    uint64 `json:"walBytes"`
	WALSyncs    uint64 `json:"walSyncs"`
	WALSegments int    `json:"walSegments"`
	// WALBatches / WALFsyncsSaved / WALBatchSizes describe group commits
	// under -fsync=batch: completed batches, the fsyncs batching avoided
	// versus one-per-record, and a power-of-two batch-size histogram
	// (bucket i counts batches of 2^i .. 2^(i+1)-1 records).
	WALBatches             uint64                `json:"walBatches,omitempty"`
	WALFsyncsSaved         uint64                `json:"walFsyncsSaved,omitempty"`
	WALBatchSizes          []uint64              `json:"walBatchSizes,omitempty"`
	WALDirSyncErrors       uint64                `json:"walDirSyncErrors,omitempty"`
	RecordsSinceCheckpoint int                   `json:"recordsSinceCheckpoint"`
	Checkpoints            uint64                `json:"checkpoints"`
	CheckpointErrors       uint64                `json:"checkpointErrors"`
	LastCheckpointNs       int64                 `json:"lastCheckpointNs"`
	ReplayedRecords        int                   `json:"replayedRecords"`
	ReplayTruncated        bool                  `json:"replayTruncated,omitempty"`
	Shards                 []DurabilityShardJSON `json:"shards,omitempty"`
}

// DynamicIndexJSON mirrors the process-wide dynamic-index counters on
// /debug/stats: how table mutations and snapshot preparations resolved
// against the per-table uncertain.Index structures.
type DynamicIndexJSON struct {
	// Mutations counts O(log n) index mutations (tuple inserts/deletes).
	Mutations uint64 `json:"mutations"`
	// ViewPrepares counts the snapshots whose memoized prepared form was
	// built by materializing their attached index view instead of sorting
	// from scratch: at most one per snapshot.
	ViewPrepares uint64 `json:"viewPrepares"`
	// MemoHits counts materializations answered from an index's memo with no
	// rebuild at all.
	MemoHits uint64 `json:"memoHits"`
	// SuffixRebuilds / FullRebuilds split owner materializations by whether
	// the unchanged rank prefix of a previous prepared form was reused.
	SuffixRebuilds uint64 `json:"suffixRebuilds"`
	FullRebuilds   uint64 `json:"fullRebuilds"`
	// ViewRebuilds counts materializations performed by frozen views
	// (typically the engine preparing a just-mutated table's snapshot).
	ViewRebuilds uint64 `json:"viewRebuilds"`
	// PrefixBuilds counts the rank prefixes frozen views built for
	// thresholded /topk, /topk/batch and /typical reads, which scan only
	// the first Theorem-2 ranks; such reads skip the whole prepared form.
	PrefixBuilds uint64 `json:"prefixBuilds"`
}

// ReplicationShardJSON is one leader shard's staleness as seen by a
// follower: how far its applied position trails the leader's committed
// position, in records applied, bytes, and age.
type ReplicationShardJSON struct {
	Shard int `json:"shard"`
	// AppliedRecords counts replicated records applied to this shard since
	// the follower process started.
	AppliedRecords uint64 `json:"appliedRecords"`
	// AppliedSeg/AppliedOff is the follower's applied WAL position;
	// LeaderSeg/LeaderOff is the leader's committed position from its most
	// recent heartbeat.
	AppliedSeg uint64 `json:"appliedSeg"`
	AppliedOff int64  `json:"appliedOff"`
	LeaderSeg  uint64 `json:"leaderSeg"`
	LeaderOff  int64  `json:"leaderOff"`
	// BehindBytes is how many committed WAL bytes the follower has not yet
	// applied: 0 when caught up, -1 when the gap spans a segment rotation
	// (at least one full segment behind; the exact byte count is unknown).
	BehindBytes int64 `json:"behindBytes"`
	// AgeSeconds is the time since this shard last applied a record (0.0
	// when it never has).
	AgeSeconds float64 `json:"ageSeconds"`
}

// ReplicationJSON mirrors the replication state on /debug/stats; present
// only when the process replicates (topkd -follow or -repl-addr).
type ReplicationJSON struct {
	// Role is "follower" or "leader".
	Role string `json:"role"`
	// Leader is the leader's replication address (follower role).
	Leader string `json:"leader,omitempty"`
	// Connected reports a live replication session (follower role).
	Connected bool `json:"connected,omitempty"`
	// Followers counts currently connected followers (leader role).
	Followers int `json:"followers,omitempty"`
	// Resets counts full shard resyncs; Reconnects counts re-established
	// sessions after the first.
	Resets     uint64 `json:"resets,omitempty"`
	Reconnects uint64 `json:"reconnects,omitempty"`
	// AppliedRecords (follower) / FramesSent+BytesSent (leader) count
	// replicated records.
	AppliedRecords uint64 `json:"appliedRecords,omitempty"`
	ApplyErrors    uint64 `json:"applyErrors,omitempty"`
	FramesSent     uint64 `json:"framesSent,omitempty"`
	BytesSent      uint64 `json:"bytesSent,omitempty"`
	// Shards breaks the follower's staleness down per leader WAL shard.
	Shards []ReplicationShardJSON `json:"shards,omitempty"`
}

// StatsResponse is the body of GET /debug/stats.
type StatsResponse struct {
	Tables int `json:"tables"`
	// Shards is the serving stack's shard count (registry, mutation
	// mutexes, WAL shards).
	Shards int `json:"shards"`
	// AnswerCache counts derived-answer (encoded JSON) cache traffic.
	AnswerCache CacheStatsJSON `json:"answerCache"`
	// EngineQueries aggregates the DP computations the engine ran.
	EngineQueries LatencyJSON `json:"engineQueries"`
	// DynamicIndex surfaces the dynamic prepared-index maintenance counters.
	DynamicIndex DynamicIndexJSON `json:"dynamicIndex"`
	// CachedQueries / ComputedQueries / CoalescedQueries split served query
	// requests by whether the derived-answer cache answered them, the
	// engine computed them, or they shared another caller's in-flight
	// computation (request coalescing).
	CachedQueries    LatencyJSON `json:"cachedQueries"`
	ComputedQueries  LatencyJSON `json:"computedQueries"`
	CoalescedQueries LatencyJSON `json:"coalescedQueries"`
	// QueryErrors counts query requests that ended in an error response.
	QueryErrors   uint64  `json:"queryErrors"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Durability carries the WAL/checkpoint counters when the server runs
	// with a durability backend; omitted otherwise.
	Durability *DurabilityJSON `json:"durability,omitempty"`
	// Replication carries the replication role and per-shard staleness when
	// the process replicates; omitted otherwise.
	Replication *ReplicationJSON `json:"replication,omitempty"`
	// Fairness carries the SFB throttler counters when fairness is enabled;
	// omitted otherwise.
	Fairness *FairnessJSON `json:"fairness,omitempty"`
}

func lineJSON(l probtopk.Line) LineJSON {
	return LineJSON{Score: l.Score, Prob: l.Prob, Vector: l.Vector, VectorProb: l.VectorProb}
}

func distResponse(k int, d *probtopk.Distribution) DistributionResponse {
	resp := DistributionResponse{
		K:         k,
		ScanDepth: d.ScanDepth,
		TotalMass: d.TotalMass(),
		Lines:     []LineJSON{},
	}
	for _, l := range d.Lines() {
		resp.Lines = append(resp.Lines, lineJSON(l))
	}
	if len(resp.Lines) > 0 {
		resp.Stats = &DistStatsJSON{
			Mean: d.Mean(), StdDev: d.StdDev(), Median: d.Median(),
			Min: d.Min(), Max: d.Max(),
		}
	}
	return resp
}
