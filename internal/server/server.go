// Package server is the HTTP/JSON front-end over the probtopk query engine:
// a registry of named uncertain tables (uploaded as CSV or JSON, mutable by
// appending tuples) and query endpoints for top-k score distributions
// (single and batched), c-typical answer sets, and the §5 baseline
// semantics, all routed through one shared Engine.
//
// # Endpoints
//
//	GET    /healthz                           liveness probe
//	GET    /debug/stats                       cache and latency counters
//	GET    /tables                            list hosted tables
//	PUT    /tables/{name}                     create or replace a table
//	                                          (body: text/csv or JSON {"tuples": [...]})
//	GET    /tables/{name}                     table info (tuple count, version)
//	GET    /tables/{name}/csv                 download as CSV
//	DELETE /tables/{name}                     drop the table
//	POST   /tables/{name}/tuples              append tuples (JSON {"tuples": [...]})
//	GET    /tables/{name}/topk                top-k score distribution
//	POST   /tables/{name}/topk                same, query in the JSON body
//	POST   /tables/{name}/topk/batch          many (k, threshold) queries in one call
//	GET    /tables/{name}/typical             c-typical answer set
//	POST   /tables/{name}/typical             same, query in the JSON body
//	GET    /tables/{name}/baseline/{semantic} utopk | ukranks | ptk | globaltopk |
//	POST   /tables/{name}/baseline/{semantic}   intopk | expectedrank
//
// # Snapshot isolation
//
// Every published table state is an immutable probtopk.Snapshot with a
// process-unique identity, installed in the registry by an atomic pointer
// swap. A query loads the current snapshot and then holds NOTHING: the
// whole computation — preparation, dynamic program, cache fill — runs
// lock-free against frozen contents, so a slow query never delays an
// append, an append never waits behind queries, and a query always answers
// against exactly the state it started from (never a half-mutated one).
// An append checks only its own tuples, builds the successor state on the
// predecessor's append-only storage and publishes it with one atomic swap;
// only mutations of the same table serialize against each other.
//
// # Derived-answer cache
//
// Every successful query answer is cached as its encoded JSON, keyed by
// (table name, snapshot identity, canonical query fingerprint). A repeated
// identical query — even one spelled differently but resolving to the same
// computation — is served from the cache without touching the dynamic
// program or re-encoding. Any mutation publishes a snapshot with a fresh,
// never-reused identity, so a hit can never be stale — even across
// delete/recreate cycles and however cache fills race with mutations —
// while the eager invalidation on mutation reclaims the dead entries' LRU
// slots. GET /debug/stats exposes this cache's hit/miss/latency counters.
// Below it, each snapshot memoizes its own prepared form
// (probtopk.Snapshot.Prepare), built once from the snapshot's index view:
// the engine keeps no cache of its own, so mutations release nothing there.
//
// # Durability
//
// With Config.Durability set (topkd -data-dir), every mutation — table
// upload, append, delete — is appended to a write-ahead log BEFORE its new
// state is published: an acknowledged mutation survives a restart, and a
// mutation that cannot be logged is rejected with 503, leaving the served
// state untouched. A checkpoint periodically persists every table's
// current snapshot into a snapshot file and truncates the WAL behind it
// (see internal/persist). Queries are completely unaffected: they load
// immutable snapshots and never touch the log. On boot the daemon replays
// snapshot + WAL and installs the recovered tables with RestoreTable;
// snapshot identities are process-unique, so recovered tables carry fresh
// ones and no cache entry from a previous life can ever be resurrected.
// GET /debug/stats exposes WAL and checkpoint counters.
//
// # Sharding
//
// Config.Shards splits the serving stack N ways: the registry map, the
// mutation/durability mutex and the WAL (one segment sequence per shard)
// are sharded by table name (shard = persist.ShardOf(name, N), fnv32a). A
// mutation holds only its own shard's durability mutex across
// check+log+publish, so durable mutations of tables on different shards
// never serialize against each other; a checkpoint visits shards one at a
// time and writes the snapshot file with no mutation lock held. Queries
// hold no lock at any shard count and answers are byte-identical. GET
// /debug/stats breaks the WAL counters down per shard.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"probtopk"
	"probtopk/internal/persist"
	"probtopk/internal/server/anscache"
	"probtopk/internal/server/fairness"
	"probtopk/internal/server/flight"
)

// DefaultAnswerCacheSize is the default bound on cached derived answers.
const DefaultAnswerCacheSize = 1024

// maxBodyBytes bounds uploaded request bodies.
const maxBodyBytes = 32 << 20

// Config tunes a Server. The zero value serves with the default cache
// sizes, one shard, and no durability.
type Config struct {
	// AnswerCacheSize bounds the derived-answer cache: 0 means
	// DefaultAnswerCacheSize, negative disables the cache (every query
	// recomputes — the benchmark baseline).
	AnswerCacheSize int
	// Shards splits the serving stack N ways: the registry map and the
	// mutation/durability mutex by table name (persist.ShardOf). Mutations
	// — durable or not — of tables on different shards never serialize
	// against each other; queries are lock-free regardless and are
	// unaffected. <= 1 means one shard (the historical behavior). When
	// Durability is set the manager's shard count wins — the on-disk
	// layout is the truth — and this field is ignored.
	Shards int
	// Durability, when non-nil, makes every table mutation durable: the
	// mutation is appended to the table's WAL shard (fsynced per the
	// manager's policy) BEFORE the new state is published, so a mutation
	// the client saw acknowledged survives a restart. A mutation that
	// cannot be logged is rejected with 503 and leaves the served state
	// untouched. Recovered tables are installed at boot with RestoreTable.
	// The server adopts the manager's shard count.
	Durability *persist.Manager
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/ (index, cmdline, profile, symbol, trace and the named
	// runtime profiles). Off by default: the handlers expose internals and
	// a CPU profile pauses nothing but costs cycles, so production
	// deployments opt in explicitly (topkd -pprof).
	EnablePprof bool
	// FollowerOf, when non-empty, is the replication address of the leader
	// this server mirrors (topkd -follow). It puts the server in READ-ONLY
	// mode: every mutating endpoint (table upload, append, delete) returns
	// 403 naming the leader, while queries serve from the local registry
	// exactly as usual — replicated state arrives through the Apply*
	// methods, never through HTTP. Mutually exclusive with Durability (a
	// follower's truth is the leader's WAL, not its own).
	FollowerOf string
	// Fairness, when non-nil, mounts the Stochastic Fair BLUE throttler in
	// front of every endpoint (topkd -fairness): requests from clients that
	// repeatedly exhausted the cold-query compute capacity are shed with
	// 429 + Retry-After, cold computations are gated by a bounded
	// concurrency semaphore, and queue-full events penalize only the
	// responsible client's buckets. The zero Config value selects the
	// defaults; see package fairness.
	Fairness *fairness.Config
}

// latency is a lock-free (count, total duration) pair.
type latency struct {
	count atomic.Uint64
	nanos atomic.Uint64
}

func (l *latency) record(d time.Duration) {
	l.count.Add(1)
	l.nanos.Add(uint64(d))
}

func (l *latency) json() LatencyJSON {
	return LatencyJSON{Count: l.count.Load(), TotalNs: l.nanos.Load()}
}

// Server hosts tables and serves queries over them. Construct with New; a
// Server is an http.Handler safe for concurrent use.
type Server struct {
	engine *probtopk.Engine
	reg    *registry
	cache  *anscache.Cache
	mux    *http.ServeMux
	start  time.Time

	// throttler, when non-nil, is the SFB fair-admission filter; handler is
	// the mux wrapped in its middleware (or the mux itself when fairness is
	// off). flight coalesces concurrent identical cold queries — keyed by
	// (table, snapshot id, fingerprint), so a mutation mid-flight changes
	// the key and stale fan-out is impossible.
	throttler *fairness.Throttler
	handler   http.Handler
	flight    flight.Group[flightResult]

	// durable, when non-nil, is the WAL+snapshot backend every mutation
	// logs to before publishing. durMu[s] orders logging against
	// publication for the tables of shard s. Appends hold it SHARED: their
	// per-table order is already serialized by the entry's mutation lock
	// (held across log+publish), so concurrent appends to different tables
	// of one shard may interleave freely in the shard's log — and under a
	// group-commit WAL (persist.Options.BatchFsync) they overlap their
	// fsyncs instead of queueing one behind another. Put and delete hold
	// it EXCLUSIVE (create/replace/remove races span tables), and a
	// checkpoint holds it exclusive while gathering the shard's states
	// after starting the shard's post-checkpoint segment — no append can
	// be between its log write and its publish at that instant, so a
	// checkpoint can never truncate a logged-but-unpublished record.
	// Mutations of tables on different shards hold different mutexes and
	// proceed in parallel; queries never touch any of them. Without a
	// durability backend the mutexes are unused (publication is just the
	// atomic swap under the entry lock), but nshards still shards the
	// registry map.
	durable *persist.Manager
	nshards int
	durMu   []sync.RWMutex
	// ckptMu serializes whole checkpoints (never held by mutations).
	ckptMu sync.Mutex

	// followerOf, when non-empty, is the leader address every rejected
	// write points at; see Config.FollowerOf.
	followerOf string
	// replStats, when set, supplies the /debug/stats replication block; see
	// SetReplicationStats.
	replStats atomic.Pointer[func() *ReplicationJSON]

	cached      latency // queries answered by the derived-answer cache
	computed    latency // queries that ran the engine
	coalesced   latency // queries that shared another caller's in-flight compute
	queryErrors atomic.Uint64
}

// shardOf routes a table name to its shard index.
func (s *Server) shardOf(name string) int { return persist.ShardOf(name, s.nshards) }

// Shards returns the server's shard count.
func (s *Server) Shards() int { return s.nshards }

// New returns a Server ready to serve.
func New(cfg Config) *Server {
	answerCap := cfg.AnswerCacheSize
	if answerCap == 0 {
		answerCap = DefaultAnswerCacheSize
	}
	nshards := cfg.Shards
	if nshards < 1 {
		nshards = 1
	}
	if cfg.Durability != nil {
		// The on-disk layout decides: the manager routes records with its
		// own shard count, and the per-shard durability mutex must cover
		// exactly the tables whose records it orders.
		nshards = cfg.Durability.Shards()
	}
	s := &Server{
		engine:     probtopk.NewEngine(),
		reg:        newRegistry(nshards),
		cache:      anscache.New(answerCap),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		durable:    cfg.Durability,
		nshards:    nshards,
		durMu:      make([]sync.RWMutex, nshards),
		followerOf: cfg.FollowerOf,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/stats", s.handleStats)
	s.mux.HandleFunc("GET /tables", s.handleListTables)
	s.mux.HandleFunc("PUT /tables/{name}", s.handlePutTable)
	s.mux.HandleFunc("GET /tables/{name}", s.handleGetTable)
	s.mux.HandleFunc("GET /tables/{name}/csv", s.handleGetTableCSV)
	s.mux.HandleFunc("DELETE /tables/{name}", s.handleDeleteTable)
	s.mux.HandleFunc("POST /tables/{name}/tuples", s.handleAppendTuples)
	s.mux.HandleFunc("GET /tables/{name}/topk", s.handleTopK)
	s.mux.HandleFunc("POST /tables/{name}/topk", s.handleTopK)
	s.mux.HandleFunc("POST /tables/{name}/topk/batch", s.handleBatch)
	s.mux.HandleFunc("GET /tables/{name}/typical", s.handleTypical)
	s.mux.HandleFunc("POST /tables/{name}/typical", s.handleTypical)
	s.mux.HandleFunc("GET /tables/{name}/baseline/{semantic}", s.handleBaseline)
	s.mux.HandleFunc("POST /tables/{name}/baseline/{semantic}", s.handleBaseline)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	s.handler = s.mux
	if cfg.Fairness != nil {
		s.throttler = fairness.New(*cfg.Fairness)
		s.handler = s.throttler.Middleware(s.mux)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.handler.ServeHTTP(w, r)
}

// Engine returns the server's query engine (for tests and embedding).
func (s *Server) Engine() *probtopk.Engine { return s.engine }

// writeJSON encodes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshalling our own response types cannot fail unless a value is
		// non-finite; fail closed without echoing it.
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %v", err))
		return
	}
	writeRaw(w, status, data)
}

// writeRaw writes already-encoded JSON.
func writeRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}

// writeError writes the uniform error body. Error text reaching clients is
// built from request data and library validation messages only — never from
// file paths or other process internals.
func writeError(w http.ResponseWriter, status int, err error) {
	data, merr := json.Marshal(ErrorResponse{Error: err.Error()})
	if merr != nil {
		http.Error(w, `{"error":"internal error"}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, data)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ans := s.cache.Stats()
	eng := s.engine.CacheStats()
	var dur *DurabilityJSON
	if s.durable != nil {
		st := s.durable.Stats()
		dur = &DurabilityJSON{
			WALRecords: st.WAL.Appends, WALBytes: st.WAL.AppendBytes,
			WALSyncs: st.WAL.Syncs, WALSegments: st.WAL.Segments,
			WALBatches:             st.WAL.Batches,
			WALFsyncsSaved:         st.WAL.FsyncsSaved,
			WALDirSyncErrors:       st.WAL.DirSyncErrors,
			RecordsSinceCheckpoint: st.RecordsSinceCheckpoint,
			Checkpoints:            st.Checkpoints,
			CheckpointErrors:       st.CheckpointErrors,
			LastCheckpointNs:       st.LastCheckpointNanos,
			ReplayedRecords:        st.ReplayedRecords,
			ReplayTruncated:        st.ReplayTruncated,
		}
		if st.WAL.Batches > 0 {
			dur.WALBatchSizes = append([]uint64(nil), st.WAL.BatchSizes[:]...)
		}
		for i, ss := range st.Shards {
			dur.Shards = append(dur.Shards, DurabilityShardJSON{
				Shard:      i,
				WALRecords: ss.WAL.Appends, WALBytes: ss.WAL.AppendBytes,
				WALSyncs: ss.WAL.Syncs, WALSegments: ss.WAL.Segments,
				WALBatches:             ss.WAL.Batches,
				WALFsyncsSaved:         ss.WAL.FsyncsSaved,
				RecordsSinceCheckpoint: ss.RecordsSinceCheckpoint,
			})
		}
	}
	var fair *FairnessJSON
	if s.throttler != nil {
		fs := s.throttler.Stats()
		fair = &FairnessJSON{
			Decisions: fs.Decisions, Sheds: fs.Sheds,
			ProbSheds: fs.ProbSheds, QueueSheds: fs.QueueSheds,
			Rotations:        fs.Rotations,
			ComputeInFlight:  fs.ComputeInFlight,
			ComputeWaiters:   fs.ComputeWaiters,
			TopShedders:      fs.Shedders,
			SheddersOverflow: fs.SheddersOverflow,
		}
		for i, l := range fs.Levels {
			fair.Levels = append(fair.Levels, FairnessLevelJSON{
				Level: i, HotBuckets: l.HotBuckets, MaxP: l.MaxP, Sheds: l.Sheds,
			})
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Durability:  dur,
		Replication: s.replicationJSON(),
		Fairness:    fair,
		Shards:      s.nshards,
		Tables:      s.reg.len(),
		AnswerCache: CacheStatsJSON{
			Hits: ans.Hits, Misses: ans.Misses, Evictions: ans.Evictions,
			Invalidations: ans.Invalidations, Entries: ans.Entries,
			SavedNanos: ans.SavedNanos,
		},
		EngineQueries: LatencyJSON{Count: eng.Queries, TotalNs: uint64(eng.QueryTime)},
		DynamicIndex: DynamicIndexJSON{
			Mutations:      eng.IndexMutations,
			ViewPrepares:   eng.ViewPrepares,
			MemoHits:       eng.IndexMemoHits,
			SuffixRebuilds: eng.IndexSuffixRebuilds,
			FullRebuilds:   eng.IndexFullRebuilds,
			ViewRebuilds:   eng.IndexViewRebuilds,
			PrefixBuilds:   eng.IndexPrefixBuilds,
		},
		CachedQueries:    s.cached.json(),
		ComputedQueries:  s.computed.json(),
		CoalescedQueries: s.coalesced.json(),
		QueryErrors:      s.queryErrors.Load(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
	})
}
