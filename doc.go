// Package probtopk implements top-k queries on uncertain (probabilistic)
// relations with score-distribution semantics, reproducing
//
//	Tingjian Ge, Stan Zdonik, Samuel Madden.
//	"Top-k Queries on Uncertain Data: On Score Distribution and Typical
//	Answers." SIGMOD 2009.
//
// # Data model
//
// An uncertain table holds tuples with a ranking score and a membership
// probability; tuples sharing a mutual-exclusion (ME) group key are
// alternatives of which at most one can exist (§2.1 of the paper). Under
// possible-worlds semantics, every world has one or more top-k tuple vectors
// (several only under score ties, §2.3), and the total score of the top-k is
// a random variable.
//
// # What the library computes
//
// TopKDistribution returns that random variable's full probability mass
// function — the paper's central object — computed with a dynamic program
// that is linear in the scan depth, handles ME groups via rule-tuple
// compression and per-unit exit points (a binary fold tree over the units
// applies each row once for every run of units that shares it), handles
// non-injective (tied) scoring functions, and bounds its output size with
// the paper's line-coalescing strategy. Each distribution line also carries the most probable top-k
// vector achieving that score.
//
// Typical selects the c-Typical-Topk answers (Definitions 1 and 2): the c
// vectors whose scores minimize the expected distance from a random top-k
// score. UTopK, UKRanks, PTk and GlobalTopK provide the pre-existing
// semantics the paper compares against.
//
// # Snapshots and mutation
//
// A Table is the mutable builder of the model; everything above it works on
// the immutable Snapshot it publishes. Table.Snapshot freezes the current
// contents under a process-unique identity, copy-on-write: an unchanged
// table hands out the same snapshot on every call (so its prepared form
// and cached answers keep serving), and a mutation lazily mints a fresh one
// without copying any tuples. A snapshot, once obtained, never changes — queries over it hold
// no lock, see exactly the state it froze, and can run while the owning
// table keeps mutating; a multi-step read (distribution, then baselines,
// then typical sets over one Snapshot) is guaranteed a consistent state
// throughout. Because identities are never reused within a process, they
// are sound cache keys: an answer derived from a superseded snapshot is
// unreachable by construction, so cached answers can never be stale —
// not across mutations, clones, or delete/recreate cycles.
//
// # Serving engine
//
// All queries route through a reusable Engine built for repeated queries
// over slowly-changing data. The prepared (validated, sorted, indexed) form
// of each queried state is computed once and memoized on its snapshot
// (Snapshot.Prepare) — repeated queries over an unchanged table skip
// preparation entirely, a mutation mints a fresh snapshot with a fresh
// memo, and the engine holds no cache to invalidate. Per-query
// dynamic-programming scratch is pooled, so steady-state queries allocate
// near-zero, with results bit-identical to fresh allocation.
// Engine.TopKDistributionBatch
// evaluates many (k, threshold) queries against one table, sharing the
// preparation and scan and fanning out over a bounded worker pool. Every
// query method has a *Snapshot form (TopKDistributionSnapshot, the
// baseline semantics, batches) for lock-free reads concurrent with
// mutation. The package-level functions use a shared default engine;
// construct one with NewEngine to keep query statistics per workload.
//
// # Dynamic index
//
// Mutation-heavy workloads are served by a fully dynamic prepared index
// (internal/uncertain's Index): a persistent order-statistic treap over the
// canonical rank order whose subtree aggregates answer prefix sums in
// O(log n), with per-ME-group sub-treaps replacing the flat partial-sum
// tables. Insert, Delete and Update cost O(log n) structural work wherever
// in the rank order the change lands — there is no O(n) shift and no
// ME-churn full-rebuild fallback — and the flat prepared form the dynamic
// program consumes is materialized lazily, re-deriving only the rank suffix
// below the lowest changed position. Materialized answers are bit-identical
// to preparing the same contents from scratch (a randomized differential
// harness and fuzzer enforce this operation by operation), and an unchanged
// index keeps returning the same prepared value, so downstream memos stay
// warm. Because the tree is persistent (mutations path-copy, never touching
// published nodes), freezing the index is O(1): the server's tables and
// Stream windows attach frozen index views to the snapshots they publish,
// and a snapshot's Prepare materializes from its view instead of sorting,
// once per snapshot — mutation
// cost on the serving path drops from O(n log n) per re-prepare to
// polylogarithmic per operation (the topk-bench "dynamic" figure tracks the
// win; at a 100,000-tuple window a mid-rank push is ~130x faster than the
// retired suffix-era maintenance).
//
// A thresholded main-algorithm query (threshold > 0: TopKDistribution,
// batches and CTypicalTopK over a snapshot that carries an index view)
// does not materialize the whole prepared form either. By Theorem 2 its
// scan stops once μ reaches Bound(k, pτ); the view builds only the shortest
// rank prefix whose prefix mass reaches that bound plus one group's
// largest mass, ends it with a whole tie group, and memoizes it, in
// O(D + log n) for D ranks. The engine confirms that every stop lies
// strictly inside the prefix, so answers are bit-identical to the whole
// form's. The whole form is still built for exact queries, StateExpansion,
// KCombo, the baseline semantics, snapshots without a view, and views that
// cannot prove every ME group within its mass bound, so their answers and
// errors are unchanged. EngineStats.IndexPrefixBuilds counts the prefixes
// built. The server's appends are O(m log n) for m tuples: they check only
// the new tuples against a ledger of ids and per-group sums and publish a
// successor table sharing the old one's storage (Table.Extend).
//
// Stream maintains a sliding window on exactly this index: each Push
// inserts the new tuple and deletes the evicted one in O(log W); repeated
// queries over an unchanged window reuse the materialized prepared state
// outright (Stream.Stats counts how pushes and queries resolved).
// Stream.Freeze publishes the window contents as a Snapshot, bridging the
// single-owner window to concurrent engine queries.
//
// # HTTP serving
//
// cmd/topkd serves the whole query surface over HTTP/JSON: named tables
// uploaded as CSV or JSON and mutated by appending tuples, with endpoints
// for top-k distributions (single and batched), c-typical answer sets and
// the baseline semantics, all routed through one shared Engine. The server
// publishes each table state as an atomic snapshot: queries load it and
// hold nothing while the dynamic program runs, so a slow query never
// delays an append and appends never wait behind queries (the
// mutate-under-query benchmark and the "mutation" figure of topk-bench
// track this). Successful answers are additionally cached as encoded JSON
// keyed by (table, snapshot identity, canonical query fingerprint), so
// repeated identical queries skip the dynamic program entirely, and a
// cached answer can never be served stale, however fills race with
// mutations; GET /debug/stats exposes the counters. See internal/server
// for the endpoint reference and the repository README for a curl
// quickstart.
//
// # Overload protection & fairness
//
// topkd ships with admission control on (-fairness=false disables it),
// built so that protection only engages under genuine shortage. Queries
// that miss the derived-answer cache must acquire a bounded compute slot
// before running the dynamic program; cache hits never touch the gate, so
// warm traffic is structurally immune to shedding. When the gate is
// saturated a request is shed with 429 + Retry-After, and the shed is
// charged to the client that caused it: a Stochastic Fair BLUE throttler
// (internal/server/fairness) hashes each client — the X-Topk-Client
// header, falling back to the remote IP — into a few levels of
// constant-memory buckets whose drop probability rises on queue-full
// sheds and decays when the pressure stops; a client is dropped at the
// door only when every one of its buckets is hot, so well-behaved
// clients colliding with a flooder on some level keep a clean bucket
// elsewhere and pass (per-level seed rotation makes even a full
// collision transient). Concurrent identical cold queries coalesce into
// one flight (internal/server/flight) keyed by table, snapshot identity
// and canonical fingerprint — a stampede runs the dynamic program once,
// and the never-reused snapshot identity in the key makes a stale fill
// impossible however mutations race the flight. The answer cache itself
// admits by measured recompute cost (GDSF), so one expensive answer is
// not evicted to make room for a churn of cheap one-offs. GET
// /debug/stats reports the shed counters, per-client attribution and
// per-level bucket occupancy; the topk-bench "overload" figure and the
// CI overload drill hold the guarantee in place: a flooding client is
// shed while a well-behaved client sees zero errors and an unchanged
// p99.
//
// # Durability
//
// With topkd -data-dir, hosted tables survive restarts: every mutation is
// appended to a segmented, CRC32C-framed write-ahead log BEFORE its new
// snapshot is published (internal/wal), and the registry is periodically
// checkpointed into a versioned snapshot file that truncates the WAL
// behind it (internal/persist). -fsync selects the policy: "always" (the
// default) fsyncs each mutation before acknowledging it, so an
// acknowledged mutation survives a machine crash; "batch" gives the SAME
// guarantee via group commit — mutations arriving concurrently on one
// shard share a single write+fsync, multiplying aggregate durable-append
// throughput under concurrency, at the price of at most -max-batch-delay
// plus one in-flight fsync of added latency (the default delay of 0 uses
// no timer: a commit carries what queued during the previous fsync, so a
// lone writer is unaffected). A failed group fsync rejects every mutation
// in the batch with a 503, rolls their records back off disk and marks
// the log broken, exactly as a failed solo fsync does; per-table ordering
// of logged and published mutations is identical under every policy.
// -fsync=never is much faster and still recovers a clean prefix of the
// history. Recovery
// replays snapshot + WAL, truncating a torn or corrupt tail cleanly
// rather than mis-replaying it. Snapshot identities are process-unique
// and re-minted on every boot, so recovered tables can never collide with
// any cache entry from a previous life. Queries are unaffected by all of
// this — they read immutable snapshots and never touch the log. The
// crash-injection property test (internal/persist/crashtest) drives
// randomized mutate/checkpoint/crash/recover interleavings and asserts
// recovered tables answer bit-identically to the pre-crash oracle.
//
// # Sharding
//
// topkd -shards N (default GOMAXPROCS) splits the serving stack N ways by
// table name — shard = fnv32a(name) % N (persist.ShardOf) routes the
// registry slice, the mutation/durability mutex and the WAL segment
// sequence (wal-sNN-%08d.seg). So durable mutations of tables on different
// shards — check, log, fsync, publish — proceed in parallel instead of
// serializing behind one global mutex. Queries are unaffected:
// they were already lock-free over immutable snapshots, and answers are
// byte-identical at any shard count. The snapshot file (format v2)
// records one checkpoint watermark per shard; a data directory written
// under a different shard count — including by a pre-sharding build
// (format v1) — is migrated in place at boot, atomically: the directory
// is readable by exactly one layout at every crash point.
// BenchmarkAppendDurableSharded tracks the aggregate durable-append
// throughput gain, and GET /debug/stats reports per-shard counters.
//
// # Replication
//
// topkd -repl-addr makes a durable leader stream its committed WAL
// frames to follower processes started with topkd -follow; each
// follower replays the stream into its own registry (internal/repl) and
// serves the full read surface from local snapshots. Frames are tapped
// after the fsync that acknowledges them, so a follower only ever
// serves acknowledged-durable state — a record whose group-commit fsync
// failed is rolled back on the leader and never shipped. Follower reads
// never touch the leader: a stalled or dead leader leaves queries
// answering at full speed from the last replayed state. Followers are
// memoryless across restarts — on (re)connect the leader continues from
// retained WAL segments or, past a checkpoint truncation, resyncs a
// table snapshot at the checkpoint watermark plus the WAL tail — and
// reconnect with jittered exponential backoff. Per-shard staleness
// (records applied, position vs. the leader's committed position,
// bytes behind, age) is reported under GET /debug/stats; client writes
// on a follower answer 403 with an X-Topk-Leader header naming the
// leader. The daemon also shuts down gracefully on SIGINT/SIGTERM:
// in-flight HTTP drains under -shutdown-timeout, then replication
// closes, then the WAL.
//
// # Quick start
//
//	table := probtopk.NewTable()
//	table.AddIndependent("T1", 49, 0.4)
//	table.AddExclusive("T2", "soldier2", 60, 0.4)
//	// ... more tuples ...
//	dist, err := probtopk.TopKDistribution(table, 2, nil)
//	if err != nil { ... }
//	fmt.Println(dist.Mean(), dist.Median())
//	typ, _, err := dist.Typical(3)      // 3-Typical-Top2 answers
//	u, ok := dist.UTopK()               // the U-Topk baseline answer
//
// See the examples directory for complete programs, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the reproduction of every figure in the
// paper's evaluation.
package probtopk
