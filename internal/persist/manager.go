package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"probtopk/internal/uncertain"
	"probtopk/internal/wal"
)

// Options tune a Manager. The zero value fsyncs nothing, never
// auto-checkpoints, runs one WAL shard, and uses the default WAL segment
// size.
type Options struct {
	// Fsync makes every logged mutation (and every checkpoint) fsync before
	// it is acknowledged. Off, the OS flushes when it likes: a crash may
	// lose the most recent acknowledged mutations, but recovery still
	// yields a clean earlier state.
	Fsync bool
	// BatchFsync (with Fsync) group-commits: concurrent mutations logged to
	// the same shard share fsyncs (wal.SyncBatch) instead of paying one
	// each. The durability contract is unchanged — an acknowledged mutation
	// is fsynced before the Log* call returns — only the cost is amortized.
	// Ignored when Fsync is off.
	BatchFsync bool
	// MaxBatchDelay (with BatchFsync) is how long a shard's group-commit
	// batcher lingers collecting more records to share an fsync; 0 batches
	// opportunistically (whatever queued during the previous fsync). It
	// bounds the worst-case latency a mutation can see beyond its own
	// write+fsync.
	MaxBatchDelay time.Duration
	// CheckpointEvery marks a checkpoint as due after this many logged
	// records (summed across shards). <= 0 means checkpoints happen only
	// when the caller asks.
	CheckpointEvery int
	// SegmentBytes is the WAL segment-rotation threshold; 0 = the WAL
	// default.
	SegmentBytes int64
	// Shards is the number of independent WAL shards; <= 0 means 1 (the
	// unsharded behavior). Mutations are routed to shard
	// ShardOf(tableName, Shards), each shard owns its own segment files
	// (wal-sNN-%08d.seg) and its own lock, so durable mutations of tables
	// on different shards never serialize against each other. Open adopts
	// the directory's layout to this count, migrating in place when they
	// differ (see Open).
	Shards int
	// OpenFile opens files for writing (WAL segments and staged
	// snapshots). nil means os.OpenFile; tests inject failures here.
	OpenFile func(path string, flag int, perm os.FileMode) (wal.File, error)
}

// ShardStats is one WAL shard's slice of a Manager's counters.
type ShardStats struct {
	WAL                    wal.Stats
	RecordsSinceCheckpoint int
}

// Stats is a snapshot of a Manager's counters for /debug/stats. The WAL
// and RecordsSinceCheckpoint fields aggregate across shards; Shards breaks
// them down per shard.
type Stats struct {
	WAL                    wal.Stats
	RecordsSinceCheckpoint int
	Checkpoints            uint64
	CheckpointErrors       uint64
	// LastCheckpointNanos is the wall-clock cost of the most recent
	// successful checkpoint.
	LastCheckpointNanos int64
	// ReplayedRecords and ReplayTruncated describe the boot-time recovery.
	ReplayedRecords int
	ReplayTruncated bool
	Shards          []ShardStats
}

// managerShard is one WAL shard: its log and the count of records logged
// to it since the last checkpoint. The log carries its own mutex; since is
// atomic, so logging to one shard never touches another shard's state.
type managerShard struct {
	log   *wal.Log
	since atomic.Int64
}

// Manager is the durability backend for a table registry: it logs every
// mutation to the table's WAL shard before the caller publishes it, and
// checkpoints the full registry into a snapshot file, truncating every
// shard's WAL behind it. A Manager is safe for concurrent use — mutations
// of tables on different shards proceed in parallel — but the caller must
// still order logging before publication per mutation (internal/server
// holds a per-shard durability mutex across both).
type Manager struct {
	dir     string
	opts    Options
	nshards int
	lock    *os.File // held flock on the data dir; nil on non-unix
	shards  []*managerShard
	replay  wal.ReplayInfo

	// ckptMu serializes checkpoints against each other (appends never take
	// it).
	ckptMu              sync.Mutex
	checkpoints         atomic.Uint64
	checkpointErrors    atomic.Uint64
	lastCheckpointNanos atomic.Int64
}

// Open recovers the durable state of dir — the checkpoint snapshot plus
// every WAL record behind it — and returns the manager together with the
// recovered tables. The returned tables are freshly built: their
// identities and snapshot IDs are process-unique and have nothing to do
// with any pre-crash process's (identities are re-minted on every boot).
//
// When the directory's on-disk layout does not match opts.Shards — a
// format-v1 directory written by an unsharded build, a fresh directory, or
// a shard-count change — Open migrates it in place: the committed old
// layout is replayed in full, a fresh format-v2 snapshot of the recovered
// state is written atomically (the commit point), and only then are the
// old layout's files removed. A crash before the snapshot rename leaves
// the old layout fully intact; a crash after it leaves stale files the
// next Open deletes without replaying. At no point is the directory
// readable by neither layout.
func Open(dir string, opts Options) (*Manager, map[string]*uncertain.Table, error) {
	nshards := opts.Shards
	if nshards <= 0 {
		nshards = 1
	}
	if nshards > MaxShards {
		return nil, nil, fmt.Errorf("persist: %d shards exceeds the limit of %d", opts.Shards, MaxShards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	// One live process per data dir: a second writer would interleave
	// frames into the shared segments and delete segments the first still
	// counts on at checkpoint.
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, nil, err
	}
	m := &Manager{dir: dir, opts: opts, nshards: nshards, lock: lock}
	fail := func(err error) (*Manager, map[string]*uncertain.Table, error) {
		for _, sh := range m.shards {
			if sh != nil && sh.log != nil {
				sh.log.Close()
			}
		}
		if lock != nil {
			lock.Close()
		}
		return nil, nil, err
	}
	checkpoint, meta, err := readSnapshotFile(dir)
	if err != nil {
		return fail(err)
	}
	state := make(recovered, len(checkpoint))
	for name, tuples := range checkpoint {
		if err := state.put(name, tuples); err != nil {
			return fail(fmt.Errorf("persist: snapshot table %q: %w", name, err))
		}
	}
	apply := state.apply
	if meta.version == FormatVersion && meta.shards == nshards {
		// The layout matches: open each shard's log at its watermark and
		// replay the records behind it.
		for i := 0; i < nshards; i++ {
			log, err := wal.Open(dir, m.walOptions(shardPrefix(i), meta.wms[i]))
			if err != nil {
				return fail(err)
			}
			sh := &managerShard{log: log}
			m.shards = append(m.shards, sh)
			info, err := log.Replay(apply)
			if err != nil {
				return fail(err)
			}
			sh.since.Store(int64(info.Records))
			m.mergeReplay(info)
		}
		// Stale files a crashed migration left behind — legacy unprefixed
		// segments, or shards beyond this layout's count — are fully
		// covered by the snapshot that committed the migration; delete,
		// never replay.
		if err := removeStaleLayouts(dir, nshards); err != nil {
			return fail(err)
		}
	} else if err := m.migrate(state, meta, apply); err != nil {
		return fail(err)
	}
	tables := make(map[string]*uncertain.Table, len(state))
	for name, rt := range state {
		tables[name] = rt.tab
	}
	return m, tables, nil
}

// walOptions builds one shard log's options.
func (m *Manager) walOptions(prefix string, minSegment uint64) wal.Options {
	sync := wal.SyncNever
	if m.opts.Fsync {
		sync = wal.SyncAlways
		if m.opts.BatchFsync {
			sync = wal.SyncBatch
		}
	}
	return wal.Options{
		Sync:          sync,
		SegmentBytes:  m.opts.SegmentBytes,
		MinSegment:    minSegment,
		Prefix:        prefix,
		MaxBatchDelay: m.opts.MaxBatchDelay,
		OpenFile:      m.opts.OpenFile,
	}
}

// mergeReplay folds one shard's replay info into the aggregate.
func (m *Manager) mergeReplay(info wal.ReplayInfo) {
	m.replay.Records += info.Records
	m.replay.Segments += info.Segments
	m.replay.Truncated = m.replay.Truncated || info.Truncated
	m.replay.DroppedBytes += info.DroppedBytes
}

// migrate converts dir from the committed layout described by meta (a
// format-v1 directory, a fresh one, or a different shard count) to
// m.nshards format-v2 shards. state holds the snapshot's tables and is
// extended in place with every replayed WAL record.
//
// The commit point is the atomic snapshot rename inside
// writeSnapshotFile: before it the old layout is untouched (this boot's
// fresh segments are empty and harmless); after it the old layout's
// remaining files are all below the new snapshot's watermarks — deleted
// here, or by the next Open if we crash first.
func (m *Manager) migrate(state recovered, meta snapMeta, apply func(wal.Record) error) error {
	// 1. Replay the committed old layout in full. Records of one table all
	// live in one old shard's log (ShardOf is deterministic), so replaying
	// the old logs in index order applies every table's history in order.
	oldShards := 0 // shard-prefixed logs of the old layout (0: legacy/fresh)
	var oldLogs []*wal.Log
	adopted := 0 // oldLogs[:adopted] have been handed to m.shards
	defer func() {
		// Old logs the new layout does not adopt — shard indices at or
		// beyond nshards, or everything after a mid-migration error — are
		// closed here whether the migration commits or fails (the fd must
		// not leak across the crashtest's thousand injected failures).
		for i := adopted; i < len(oldLogs); i++ {
			oldLogs[i].Close()
		}
	}()
	if meta.version == FormatVersion {
		oldShards = meta.shards
		for i := 0; i < oldShards; i++ {
			log, err := wal.Open(m.dir, m.walOptions(shardPrefix(i), meta.wms[i]))
			if err != nil {
				return err
			}
			oldLogs = append(oldLogs, log)
			info, err := log.Replay(apply)
			if err != nil {
				return err
			}
			m.mergeReplay(info)
		}
	} else {
		// A v1 snapshot's single watermark, or no snapshot at all (a
		// legacy pre-checkpoint directory, or a fresh one).
		var legacyWM uint64
		if meta.version == formatV1 {
			legacyWM = meta.wms[0]
		}
		log, err := wal.Open(m.dir, m.walOptions(wal.DefaultPrefix, legacyWM))
		if err != nil {
			return err
		}
		info, err := log.Replay(apply)
		log.Close()
		if err != nil {
			return err
		}
		m.mergeReplay(info)
	}
	// 2. Open the new layout's logs and start each one's post-snapshot
	// segment. Shard indices shared with the old layout reuse the already
	// replayed log (same prefix, same files); StartSegment places the
	// watermark above every old segment. Fresh indices may still hold
	// empty segments from an earlier crashed migration — replaying them
	// applies nothing, and StartSegment reuses an empty current segment.
	wms := make([]uint64, m.nshards)
	for i := 0; i < m.nshards; i++ {
		var log *wal.Log
		if i < oldShards {
			log = oldLogs[i]
			adopted = i + 1
		} else {
			var err error
			log, err = wal.Open(m.dir, m.walOptions(shardPrefix(i), 0))
			if err != nil {
				return err
			}
			info, err := log.Replay(apply)
			if err != nil {
				log.Close()
				return err
			}
			m.mergeReplay(info)
		}
		m.shards = append(m.shards, &managerShard{log: log})
		wm, err := log.StartSegment()
		if err != nil {
			return err
		}
		wms[i] = wm
	}
	// 3. Commit: the recovered state becomes a v2 snapshot under the new
	// shard count. Counts as a checkpoint, so since stays zero.
	tables := make(map[string][]uncertain.Tuple, len(state))
	for name, rt := range state {
		tables[name] = rt.tab.Tuples()
	}
	if err := writeSnapshotFile(m.dir, tables, m.nshards, wms, m.openFunc()); err != nil {
		return err
	}
	// 4. Only now is the old layout garbage. Drop reused shards' segments
	// below their new watermarks and delete legacy/out-of-range files (the
	// deferred cleanup closes the unadopted logs' handles).
	for i := 0; i < m.nshards && i < oldShards; i++ {
		if err := oldLogs[i].DropBefore(wms[i]); err != nil {
			return err
		}
	}
	return removeStaleLayouts(m.dir, m.nshards)
}

// removeStaleLayouts deletes segment files the committed snapshot's layout
// disowns: legacy unprefixed wal-%08d.seg files and shard-prefixed files
// with a shard index at or beyond nshards. Callers only invoke it once a
// snapshot covering those files' records has committed.
func removeStaleLayouts(dir string, nshards int) error {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	for _, path := range matches {
		base := filepath.Base(path)
		stale := false
		if shard, ok := parseShardSegment(base); ok {
			stale = shard >= nshards
		} else if _, ok := wal.SeqFromName(base, wal.DefaultPrefix); ok {
			stale = true
		}
		if stale {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("persist: %w", err)
			}
		}
	}
	return nil
}

// openFunc resolves the file-open hook.
func (m *Manager) openFunc() openFunc {
	if m.opts.OpenFile != nil {
		return m.opts.OpenFile
	}
	return defaultOpen
}

// recoveredTable is one table as recovery rebuilds it, with the ledger its
// appends are checked against: the rules the live path checked them under
// before logging them (internal/server's appendTuples).
type recoveredTable struct {
	tab    *uncertain.Table
	ledger *uncertain.Ledger
}

// recovered is the state Open rebuilds from the checkpoint and the WAL.
type recovered map[string]recoveredTable

// put installs name with the given contents, validated as an upload is:
// the data-model invariants and unique tuple ids.
func (rs recovered) put(name string, tuples []uncertain.Tuple) error {
	tab := uncertain.NewTable()
	for _, tp := range tuples {
		tab.Add(tp)
	}
	ledger, err := uncertain.NewLedger(tab)
	if err != nil {
		return err
	}
	rs[name] = recoveredTable{tab: tab, ledger: ledger}
	return nil
}

// apply folds one WAL record into the recovered state. Any rejection — an
// op that cannot apply, or contents that break the data-model invariants or
// repeat a tuple id — makes the replayer truncate the log at this record,
// so a corrupt-but-checksummed record can never become a served table. An
// append costs O(m) for m tuples: it is checked against the table's ledger
// and extends the table in place.
func (rs recovered) apply(r wal.Record) error {
	switch r.Op {
	case wal.OpPut:
		return rs.put(r.Name, r.Tuples)
	case wal.OpAppend:
		rt, ok := rs[r.Name]
		if !ok {
			return fmt.Errorf("append to unknown table %q", r.Name)
		}
		if err := rt.ledger.Check(r.Tuples); err != nil {
			return err
		}
		rt.ledger.Commit(r.Tuples)
		rt.tab = rt.tab.Extend(r.Tuples)
		rs[r.Name] = rt
	case wal.OpDelete:
		if _, ok := rs[r.Name]; !ok {
			return fmt.Errorf("delete of unknown table %q", r.Name)
		}
		delete(rs, r.Name)
	default:
		return fmt.Errorf("unknown op %d", byte(r.Op))
	}
	return nil
}

// ReplayInfo describes the boot-time recovery (how many records were
// replayed across all shards, and whether a torn tail was truncated).
func (m *Manager) ReplayInfo() wal.ReplayInfo { return m.replay }

// Dir returns the manager's data directory. Replication reads the
// checkpoint file from it (ReadCheckpoint) when a follower needs a full
// resync.
func (m *Manager) Dir() string { return m.dir }

// TapShard registers fn as shard's WAL commit tap: it observes every record
// the shard acknowledges from now on, in log order, called post-fsync with
// the shard log's lock held — see wal.Log.SetCommitTap for the contract (fn
// must not block). Records committed earlier are reachable through
// ShardSegments + wal.ReadSegmentFrames.
func (m *Manager) TapShard(shard int, fn wal.CommitTap) {
	m.shards[shard].log.SetCommitTap(fn)
}

// ShardSegments returns shard's retained WAL segments and committed
// position, atomically. A concurrent checkpoint may delete listed files
// afterwards; readers retry from a fresh listing when a file has vanished.
func (m *Manager) ShardSegments(shard int) ([]wal.SegmentRef, wal.Pos, error) {
	return m.shards[shard].log.SegmentsSnapshot()
}

// ShardCommitted returns the position after shard's last acknowledged
// record.
func (m *Manager) ShardCommitted(shard int) wal.Pos {
	return m.shards[shard].log.CommittedPos()
}

// Shards returns the manager's WAL shard count.
func (m *Manager) Shards() int { return m.nshards }

// ShardOf returns the WAL shard that owns the named table's records.
func (m *Manager) ShardOf(name string) int { return ShardOf(name, m.nshards) }

// LogPut logs a create-or-replace of name with the given full contents.
// The record is durable (per the fsync policy) when LogPut returns nil;
// the caller publishes the new state only then.
func (m *Manager) LogPut(name string, tuples []uncertain.Tuple) error {
	return m.logRecord(wal.Record{Op: wal.OpPut, Name: name, Tuples: tuples})
}

// LogAppend logs appending tuples to name.
func (m *Manager) LogAppend(name string, tuples []uncertain.Tuple) error {
	return m.logRecord(wal.Record{Op: wal.OpAppend, Name: name, Tuples: tuples})
}

// LogDelete logs dropping name.
func (m *Manager) LogDelete(name string) error {
	return m.logRecord(wal.Record{Op: wal.OpDelete, Name: name})
}

func (m *Manager) logRecord(r wal.Record) error {
	sh := m.shards[m.ShardOf(r.Name)]
	if err := sh.log.Append(r); err != nil {
		return err
	}
	sh.since.Add(1)
	return nil
}

// CheckpointDue reports whether enough records have accumulated across all
// shards since the last checkpoint to warrant one (per
// Options.CheckpointEvery).
func (m *Manager) CheckpointDue() bool {
	if m.opts.CheckpointEvery <= 0 {
		return false
	}
	var since int64
	for _, sh := range m.shards {
		since += sh.since.Load()
	}
	return since >= int64(m.opts.CheckpointEvery)
}

// BeginShardCheckpoint starts shard's post-checkpoint segment and returns
// its sequence number — the shard's watermark in the snapshot a following
// CompleteCheckpoint writes. Every record logged to the shard before this
// call lands below the watermark and MUST be reflected in the states
// passed to CompleteCheckpoint; internal/server guarantees that by holding
// the shard's durability mutex across this call and the gathering of the
// shard's published states. On error the shard keeps appending to its
// current segment; the checkpoint is merely postponed.
func (m *Manager) BeginShardCheckpoint(shard int) (uint64, error) {
	seq, err := m.shards[shard].log.StartSegment()
	if err != nil {
		m.checkpointErrors.Add(1)
		return 0, err
	}
	return seq, nil
}

// CompleteCheckpoint persists states — every hosted table's current
// snapshot, gathered per shard behind the watermarks wms returned by
// BeginShardCheckpoint — into the snapshot file, then truncates every
// shard's WAL below its watermark. The write is atomic (tmp + fsync +
// rename); a crash at any boundary loses nothing: before the rename the
// old snapshot and the full WALs survive, after it the stale pre-watermark
// segments are skipped and cleaned by the next Open, never double-applied.
func (m *Manager) CompleteCheckpoint(states map[string]*uncertain.Snapshot, wms []uint64) error {
	if len(wms) != m.nshards {
		return fmt.Errorf("persist: %d watermarks for %d shards", len(wms), m.nshards)
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	start := time.Now()
	tables := make(map[string][]uncertain.Tuple, len(states))
	for name, snap := range states {
		tables[name] = snap.Tuples()
	}
	if err := writeSnapshotFile(m.dir, tables, m.nshards, wms, m.openFunc()); err != nil {
		m.checkpointErrors.Add(1)
		return err
	}
	for i, sh := range m.shards {
		if err := sh.log.DropBefore(wms[i]); err != nil {
			m.checkpointErrors.Add(1)
			return err
		}
		// Records logged between BeginShardCheckpoint and here live above
		// the watermark and stay in the WAL, but resetting to zero only
		// delays the next auto-checkpoint by that handful of records —
		// their durability is unaffected.
		sh.since.Store(0)
	}
	m.checkpoints.Add(1)
	m.lastCheckpointNanos.Store(time.Since(start).Nanoseconds())
	return nil
}

// Checkpoint persists the given full registry state in one call: it begins
// a checkpoint on every shard and completes it with the gathered states.
// Callers must guarantee states reflects every mutation they have logged
// on ANY shard (single-threaded callers and tests do trivially;
// internal/server instead drives the Begin/Complete pair itself, holding
// each shard's durability mutex only while that shard is gathered).
func (m *Manager) Checkpoint(states map[string]*uncertain.Snapshot) error {
	wms := make([]uint64, m.nshards)
	for i := range wms {
		wm, err := m.BeginShardCheckpoint(i)
		if err != nil {
			return err
		}
		wms[i] = wm
	}
	return m.CompleteCheckpoint(states, wms)
}

// Stats returns the manager's counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Checkpoints:         m.checkpoints.Load(),
		CheckpointErrors:    m.checkpointErrors.Load(),
		LastCheckpointNanos: m.lastCheckpointNanos.Load(),
		ReplayedRecords:     m.replay.Records,
		ReplayTruncated:     m.replay.Truncated,
		Shards:              make([]ShardStats, len(m.shards)),
	}
	for i, sh := range m.shards {
		ss := ShardStats{
			WAL:                    sh.log.Stats(),
			RecordsSinceCheckpoint: int(sh.since.Load()),
		}
		st.Shards[i] = ss
		st.WAL.Appends += ss.WAL.Appends
		st.WAL.AppendBytes += ss.WAL.AppendBytes
		st.WAL.Syncs += ss.WAL.Syncs
		st.WAL.Segments += ss.WAL.Segments
		st.WAL.Drops += ss.WAL.Drops
		st.WAL.Batches += ss.WAL.Batches
		st.WAL.FsyncsSaved += ss.WAL.FsyncsSaved
		for b := range ss.WAL.BatchSizes {
			st.WAL.BatchSizes[b] += ss.WAL.BatchSizes[b]
		}
		st.WAL.DirSyncErrors += ss.WAL.DirSyncErrors
		st.RecordsSinceCheckpoint += ss.RecordsSinceCheckpoint
	}
	return st
}

// Close releases the WAL handles and the data-dir lock. It does not flush
// beyond the configured policy: closing is equivalent to a crash, which is
// exactly the guarantee recovery is tested against.
func (m *Manager) Close() error {
	var first error
	for _, sh := range m.shards {
		if err := sh.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if m.lock != nil {
		m.lock.Close() // releases the flock
		m.lock = nil
	}
	return first
}
