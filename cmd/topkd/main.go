// Command topkd is the HTTP/JSON daemon serving top-k queries on uncertain
// tables: upload tables as CSV or JSON, append tuples, and query top-k
// score distributions (single or batched), c-typical answer sets and the
// §5 baseline semantics. Tables are served as immutable snapshots:
// queries hold no lock while they compute, appends never wait behind
// queries, and answers can never be stale. Repeated identical queries are
// served from a derived-answer cache; GET /debug/stats exposes the
// counters.
//
// Usage:
//
//	topkd -addr :8080
//	topkd -addr :8080 -load 'data/*.csv'
//	topkd -addr :8080 -data-dir /var/lib/topkd
//	topkd -addr :8080 -data-dir /var/lib/topkd -repl-addr :8081
//	topkd -addr :8090 -follow leader-host:8081
//
// Each file matched by -load is served as a table named after its base name
// (data/fleet.csv → "fleet"). With -data-dir, every mutation is appended to
// a write-ahead log under that directory before it is acknowledged, the
// hosted tables are periodically checkpointed into a snapshot file (see
// -checkpoint-every), and a restart recovers every table by replaying
// snapshot + WAL. -fsync selects the durability policy: "always" (the
// default) fsyncs every mutation before acknowledging it; "batch" keeps
// that guarantee but group-commits, so concurrent mutations of one shard
// share fsyncs (see -max-batch-delay); "never" trades crash-durability of
// the most recent mutations for much faster writes. -load runs after
// recovery, so a loaded CSV replaces a recovered table of the same name
// (and is itself logged).
//
// -shards N (default GOMAXPROCS, capped at 256) splits the serving stack
// N ways by table name: the registry, the mutation/durability mutex and
// the WAL (one segment sequence per shard under -data-dir). Mutations of
// tables on different shards never serialize; queries are lock-free either
// way and unaffected. A -data-dir written under a different shard count
// (including by a pre-sharding build) is migrated in place at boot. See the
// package documentation of internal/server (or the repository README) for
// the endpoint reference and recovery semantics.
//
// # Replication
//
// -repl-addr (requires -data-dir) additionally serves the committed WAL
// stream to followers: every mutation that has been acknowledged durable —
// and only those — is shipped, in commit order. -follow <leader-repl-addr>
// starts a read-only follower instead: it keeps no local data directory,
// resyncs its full state from the leader on connect, applies the stream
// into its own registry, and serves queries from local snapshots — a
// follower query never touches the leader. Write endpoints on a follower
// answer 403 naming the leader. Per-shard staleness (applied vs leader
// committed position, bytes behind, seconds since the last applied record)
// is on GET /debug/stats. A follower that loses its leader reconnects with
// jittered exponential backoff and resumes — or resyncs, when the leader
// has checkpointed past its position — automatically.
//
// # Overload protection
//
// The daemon runs a Stochastic Fair BLUE throttler by default (-fairness,
// disable with -fairness=false): requests carry a client identity (the
// X-Topk-Client header, or the remote IP), cold-query computations pass a
// bounded-concurrency gate (-fairness-concurrency, -fairness-wait), and a
// client that repeatedly exhausts that capacity is shed with 429 +
// Retry-After while everyone else keeps their full service — cache hits
// never touch the gate, so warm traffic cannot be shed. Drop
// probabilities decay when shortage stops (-fairness-decay), and the hash
// levels re-seed periodically (-fairness-rotate) so a client that
// collides with a flooder is separated from it. Shed counters and
// per-level bucket occupancy are on GET /debug/stats.
//
// # Shutdown
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests (up to -shutdown-timeout, then forcibly closes), then
// closes replication and the durability backend, so every acknowledged
// mutation is on disk (per the fsync policy) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"probtopk"
	"probtopk/internal/persist"
	"probtopk/internal/repl"
	"probtopk/internal/server"
	"probtopk/internal/server/fairness"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "glob of CSV table files to serve at startup")
	answerCache := flag.Int("answer-cache", 0,
		"derived-answer cache entries (0 = default, negative = disabled)")
	dataDir := flag.String("data-dir", "",
		"directory for durable state (WAL + snapshot checkpoints); empty = in-memory only")
	fsync := flag.String("fsync", "always",
		"durability policy with -data-dir: always (fsync every mutation), batch (group-commit: same guarantee, concurrent mutations share fsyncs), never (faster; a crash may lose the newest acknowledged mutations); true/false are aliases for always/never")
	maxBatchDelay := flag.Duration("max-batch-delay", 0,
		"with -fsync=batch: how long a group commit lingers collecting more mutations to share its fsync (0 = batch only what queued during the previous fsync)")
	checkpointEvery := flag.Int("checkpoint-every", 256,
		"checkpoint hosted tables into the snapshot file and truncate the WAL after this many logged mutations (0 = never)")
	shards := flag.Int("shards", min(runtime.GOMAXPROCS(0), persist.MaxShards),
		"shard the serving stack (registry, mutation mutex, WAL) this many ways by table name; 1 disables sharding")
	pprofOn := flag.Bool("pprof", false,
		"mount net/http/pprof profiling handlers under /debug/pprof/ (exposes internals; off by default)")
	replAddr := flag.String("repl-addr", "",
		"serve the committed WAL stream to followers on this address (requires -data-dir)")
	follow := flag.String("follow", "",
		"run as a read-only follower of the leader at this replication address (excludes -data-dir, -load and -repl-addr)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"how long SIGINT/SIGTERM waits for in-flight requests before closing their connections")
	fairnessOn := flag.Bool("fairness", true,
		"shed unfair load: SFB throttling by client id (X-Topk-Client header or remote IP) plus a bounded-concurrency gate on cold-query computes; sheds answer 429 with Retry-After")
	fairLevels := flag.Int("fairness-levels", 0,
		"SFB hash levels (0 = default)")
	fairBuckets := flag.Int("fairness-buckets", 0,
		"SFB buckets per level (0 = default)")
	fairConcurrency := flag.Int("fairness-concurrency", 0,
		"concurrent cold-query computations admitted (0 = 2 x GOMAXPROCS)")
	fairWaiters := flag.Int("fairness-waiters", 0,
		"callers that may queue for a compute slot (0 = 2 x -fairness-concurrency)")
	fairWait := flag.Duration("fairness-wait", 0,
		"how long a caller may wait for a compute slot before being shed (0 = default)")
	fairIncrement := flag.Float64("fairness-increment", 0,
		"drop-probability increment per genuine-shortage shed (0 = default)")
	fairDecrement := flag.Float64("fairness-decrement", 0,
		"drop-probability decrement per decay interval (0 = default)")
	fairDecay := flag.Duration("fairness-decay", 0,
		"decay interval: how often idle buckets shed drop probability (0 = default)")
	fairRotate := flag.Duration("fairness-rotate", 0,
		"how often one SFB level re-seeds, separating hash-collided clients (0 = default, negative = never)")
	fairRetryAfter := flag.Duration("fairness-retry-after", 0,
		"Retry-After advertised on 429 shed responses (0 = default)")
	flag.Parse()

	err := run(config{
		addr: *addr, load: *load, answerCache: *answerCache,
		dataDir: *dataDir, fsync: *fsync, maxBatchDelay: *maxBatchDelay,
		checkpointEvery: *checkpointEvery,
		shards:          *shards,
		pprof:           *pprofOn,
		replAddr:        *replAddr,
		follow:          *follow,
		shutdownTimeout: *shutdownTimeout,
		fairness:        *fairnessOn,
		fairnessCfg: fairness.Config{
			Levels:        *fairLevels,
			Buckets:       *fairBuckets,
			MaxConcurrent: *fairConcurrency,
			MaxWaiters:    *fairWaiters,
			MaxWait:       *fairWait,
			Increment:     *fairIncrement,
			Decrement:     *fairDecrement,
			DecayInterval: *fairDecay,
			RotateEvery:   *fairRotate,
			RetryAfter:    *fairRetryAfter,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "topkd:", err)
		os.Exit(1)
	}
}

// config is the daemon's resolved flag set.
type config struct {
	addr            string
	load            string
	answerCache     int
	dataDir         string
	fsync           string
	maxBatchDelay   time.Duration
	checkpointEvery int
	shards          int
	pprof           bool
	replAddr        string
	follow          string
	shutdownTimeout time.Duration
	fairness        bool
	fairnessCfg     fairness.Config
}

// validate rejects flag combinations with no coherent meaning.
func (cfg config) validate() error {
	if cfg.follow != "" {
		if cfg.dataDir != "" {
			return errors.New("-follow and -data-dir are mutually exclusive: a follower replicates the leader's durable state and keeps none of its own")
		}
		if cfg.load != "" {
			return errors.New("-follow and -load are mutually exclusive: a follower is read-only and serves the leader's tables")
		}
		if cfg.replAddr != "" {
			return errors.New("-follow and -repl-addr are mutually exclusive: chained replication is not supported")
		}
	}
	if cfg.replAddr != "" && cfg.dataDir == "" {
		return errors.New("-repl-addr requires -data-dir: followers catch up from the leader's WAL segments and checkpoint")
	}
	if !cfg.fairness && cfg.fairnessCfg != (fairness.Config{}) {
		return errors.New("-fairness-* tuning flags require fairness; drop them or remove -fairness=false")
	}
	return nil
}

// run is the daemon's whole life: build, listen, serve, shut down. Split
// from main (and from the flag values) so tests can drive real daemon
// lifecycles in-process.
func run(cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	srv, durable, err := buildServer(cfg)
	if err != nil {
		return err
	}
	d := &daemon{httpSrv: newHTTPServer(srv), timeout: cfg.shutdownTimeout}
	if durable != nil {
		d.closeManager = durable.Close
	}

	names, err := loadTables(srv, cfg.load)
	if err != nil {
		d.Shutdown() // release the data-dir lock and WAL
		return err
	}
	for _, name := range names {
		log.Printf("topkd: serving table %q", name)
	}

	switch {
	case cfg.follow != "":
		fol := repl.NewFollower(cfg.follow, srv)
		srv.SetReplicationStats(followerStats(fol))
		go fol.Run()
		d.closeRepl = fol.Close
		log.Printf("topkd: following leader at %s (read-only)", cfg.follow)
	case cfg.replAddr != "":
		ld := repl.NewLeader(durable)
		ln, err := net.Listen("tcp", cfg.replAddr)
		if err != nil {
			d.Shutdown()
			return fmt.Errorf("replication listen: %v", err)
		}
		srv.SetReplicationStats(leaderStats(ld))
		go func() {
			if err := ld.Serve(ln); err != nil {
				log.Printf("topkd: replication listener failed: %v", err)
			}
		}()
		d.closeRepl = func() { ld.Close() }
		log.Printf("topkd: replicating on %s", ln.Addr())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		d.Shutdown()
		return err
	}
	log.Printf("topkd: listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- d.httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		d.Shutdown() // the listener died on its own; still close cleanly
		return err
	case s := <-sig:
		log.Printf("topkd: received %v, draining (up to %s)", s, d.timeout)
		return d.Shutdown()
	}
}

// newHTTPServer wraps the handler in an http.Server with the slow-client
// protections a bare ListenAndServe never gets: a header read timeout (a
// connection cannot hold a goroutine by trickling its request line) and an
// idle timeout for keep-alive connections.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// daemon owns the orderly teardown: drain HTTP first (in-flight mutations
// may still need the WAL), then stop replication, then close the
// durability backend. Shutdown is idempotent and safe from any goroutine —
// whoever loses the race simply observes the first caller's result.
type daemon struct {
	httpSrv      *http.Server
	timeout      time.Duration
	closeRepl    func()
	closeManager func() error

	once sync.Once
	err  error
}

// Shutdown runs the teardown exactly once and returns its error.
func (d *daemon) Shutdown() error {
	d.once.Do(func() {
		if d.httpSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), d.timeout)
			if err := d.httpSrv.Shutdown(ctx); err != nil {
				// Drain deadline hit: cut the stragglers' connections.
				d.httpSrv.Close()
				d.err = fmt.Errorf("drain incomplete after %s: %v", d.timeout, err)
			}
			cancel()
		}
		if d.closeRepl != nil {
			d.closeRepl()
		}
		if d.closeManager != nil {
			if err := d.closeManager(); err != nil && d.err == nil {
				d.err = err
			}
		}
	})
	return d.err
}

// followerStats adapts a follower's status to the /debug/stats block.
func followerStats(f *repl.Follower) func() *server.ReplicationJSON {
	return func() *server.ReplicationJSON {
		st := f.Status()
		out := &server.ReplicationJSON{
			Role:           "follower",
			Leader:         st.LeaderAddr,
			Connected:      st.Connected,
			Resets:         st.Resets,
			Reconnects:     st.Reconnects,
			AppliedRecords: st.AppliedRecords,
			ApplyErrors:    st.ApplyErrors,
		}
		now := time.Now()
		for _, sh := range st.Shards {
			age := 0.0
			if !sh.LastApplied.IsZero() {
				age = now.Sub(sh.LastApplied).Seconds()
			}
			out.Shards = append(out.Shards, server.ReplicationShardJSON{
				Shard:          sh.Shard,
				AppliedRecords: sh.AppliedRecords,
				AppliedSeg:     sh.Applied.Seg,
				AppliedOff:     sh.Applied.Off,
				LeaderSeg:      sh.Leader.Seg,
				LeaderOff:      sh.Leader.Off,
				BehindBytes:    sh.Behind(),
				AgeSeconds:     age,
			})
		}
		return out
	}
}

// leaderStats adapts a leader's counters to the /debug/stats block.
func leaderStats(ld *repl.Leader) func() *server.ReplicationJSON {
	return func() *server.ReplicationJSON {
		st := ld.Status()
		return &server.ReplicationJSON{
			Role:       "leader",
			Followers:  st.Followers,
			Resets:     st.Resets,
			FramesSent: st.FramesSent,
			BytesSent:  st.BytesSent,
		}
	}
}

// parseFsync maps the -fsync flag to the persist fsync/batch pair. The
// boolean spellings stay accepted: -fsync=false scripts predate the batch
// policy.
func parseFsync(v string) (fsync, batch bool, err error) {
	switch strings.ToLower(v) {
	case "always", "true", "1":
		return true, false, nil
	case "batch":
		return true, true, nil
	case "never", "false", "0":
		return false, false, nil
	default:
		return false, false, fmt.Errorf("bad -fsync value %q (want always, batch or never)", v)
	}
}

// buildServer opens the durability backend (when configured), recovers and
// restores its tables, and returns the ready server alongside the manager
// (nil without -data-dir; the daemon holds it for the process lifetime).
// Split from run so the restart test exercises the daemon's real boot
// sequence, including releasing the data-dir lock between lives.
func buildServer(cfg config) (*server.Server, *persist.Manager, error) {
	var durable *persist.Manager
	var recovered map[string]*probtopk.Table
	if cfg.dataDir != "" {
		fsync, batch, err := parseFsync(cfg.fsync)
		if err != nil {
			return nil, nil, err
		}
		man, tables, err := persist.Open(cfg.dataDir, persist.Options{
			Fsync:           fsync,
			BatchFsync:      batch,
			MaxBatchDelay:   cfg.maxBatchDelay,
			CheckpointEvery: cfg.checkpointEvery,
			Shards:          cfg.shards,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("opening -data-dir %s: %v", cfg.dataDir, err)
		}
		durable, recovered = man, tables
		info := man.ReplayInfo()
		note := ""
		if info.Truncated {
			note = fmt.Sprintf(" (torn tail: %d bytes truncated)", info.DroppedBytes)
		}
		log.Printf("topkd: recovered %d tables from %s, %d WAL records replayed%s",
			len(recovered), cfg.dataDir, info.Records, note)
	}
	scfg := server.Config{
		AnswerCacheSize: cfg.answerCache,
		Shards:          cfg.shards,
		Durability:      durable,
		EnablePprof:     cfg.pprof,
		FollowerOf:      cfg.follow,
	}
	if cfg.fairness {
		fc := cfg.fairnessCfg
		scfg.Fairness = &fc
	}
	srv := server.New(scfg)
	names := make([]string, 0, len(recovered))
	for name := range recovered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := srv.RestoreTable(name, recovered[name]); err != nil {
			return nil, nil, fmt.Errorf("restoring table %q: %v", name, err)
		}
		log.Printf("topkd: restored table %q (%d tuples)", name, recovered[name].Len())
	}
	return srv, durable, nil
}

// tableName derives the registry name for a loaded file: the base name
// without its extension.
func tableName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// loadTables installs every CSV file matching the glob and returns the
// table names, sorted by filepath.Glob order.
func loadTables(srv *server.Server, glob string) ([]string, error) {
	if glob == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("bad -load pattern %q: %v", glob, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("-load pattern %q matches no files", glob)
	}
	var names []string
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		tab, err := probtopk.ReadTableCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %v", path, err)
		}
		name := tableName(path)
		if _, err := srv.CreateTable(name, tab); err != nil {
			return nil, fmt.Errorf("loading %s: %v", path, err)
		}
		names = append(names, name)
	}
	return names, nil
}
