// Package persist makes hosted tables durable: it pairs a snapshot file —
// a full checkpoint of every table's frozen contents — with the sharded
// write-ahead logs of internal/wal, and recovers their union on boot.
//
// # Snapshot file format (version 2)
//
// One file, checkpoint.snap, holds every table of a checkpoint:
//
//	8 bytes  magic "PTKSNAPS"
//	uint32   format version (little-endian, currently 2)
//	uvarint  WAL shard count N (tables are routed by ShardOf(name, N);
//	         shard i's log owns the segments named wal-sNN-%08d.seg)
//	uvarint  per shard, N times: the shard's WAL watermark — the first
//	         segment sequence number of that shard whose records are NOT
//	         covered by this snapshot (wal.Options.MinSegment on recovery;
//	         older segments would double-apply)
//	uvarint  table count
//	  per table, in ascending name order:
//	  string   table name
//	  — ME-group section —
//	  uvarint  group count
//	  string…  group names, in order of first appearance
//	  — tuple section —
//	  uvarint  tuple count
//	    per tuple, in insertion order:
//	    string   id
//	    uvarint  group reference: 0 = independent, g+1 = groups[g]
//	    uint64   score bits (math.Float64bits, little-endian)
//	    uint64   probability bits
//	uint32   CRC32C (Castagnoli) of everything above
//
// Version 1 — written by unsharded builds — is identical except that the
// shard-count field is absent and a single watermark follows the version:
// its one log owns the unprefixed wal-%08d.seg segments. Readers accept
// both versions forever; Open upgrades a version-1 directory in place (see
// Manager).
//
// Strings are uvarint length prefixes followed by raw bytes. The group
// section exists so repeated ME-group keys are stored once and the tuple
// rows stay fixed-width apart from their ids.
//
// The file is written to a temporary name, fsynced, and atomically renamed
// over the previous checkpoint, so a crash mid-checkpoint leaves the old
// snapshot (and the not-yet-truncated WALs) intact. The formats are pinned
// by the golden files under testdata/golden (v1) and testdata/golden-v2:
// readers of today must decode them forever.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"probtopk/internal/uncertain"
	"probtopk/internal/wal"
)

// snapMagic opens every snapshot file.
const snapMagic = "PTKSNAPS"

// FormatVersion is the snapshot format this package writes. Readers accept
// exactly the versions they know (1 and 2); an unknown version is an
// error, never a guess.
const FormatVersion = 2

// formatV1 is the unsharded legacy format: one watermark, one unprefixed
// WAL. Still readable forever; never written anymore.
const formatV1 = 1

// MaxShards bounds the WAL shard count, both configured and claimed by a
// snapshot file (a hostile count must not force 2^60 allocations or
// file creations).
const MaxShards = 256

// SnapshotFileName is the checkpoint file inside a data directory.
const SnapshotFileName = "checkpoint.snap"

// snapTmpName is the scratch name a checkpoint is staged under before the
// atomic rename.
const snapTmpName = "checkpoint.snap.tmp"

// maxSnapStringBytes bounds any string in a snapshot file.
const maxSnapStringBytes = 1 << 20

// castagnoli is the shared CRC32C table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ShardOf routes a table name to its WAL shard: fnv-1a of the name modulo
// the shard count. Every layer that partitions by table — the WAL shards
// here, the server's registry shards and per-shard durability mutexes —
// uses this one function, so a table's records always live in exactly one
// shard's log.
func ShardOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// shardPrefix is the segment-name prefix of shard i's log (wal-s03- for
// shard 3), distinct per shard and never colliding with the legacy
// unprefixed wal- namespace (its sequence digits never start with 's').
func shardPrefix(i int) string {
	return fmt.Sprintf("wal-s%02d-", i)
}

// parseShardSegment reports which shard owns the segment file named base,
// or ok=false for anything that is not a shard-prefixed segment (legacy
// wal-%08d.seg files, the snapshot file, strangers).
func parseShardSegment(base string) (shard int, ok bool) {
	rest, found := strings.CutPrefix(base, "wal-s")
	if !found {
		return 0, false
	}
	i := strings.IndexByte(rest, '-')
	if i <= 0 {
		return 0, false
	}
	shard64, err := strconv.ParseUint(rest[:i], 10, 16)
	if err != nil {
		return 0, false
	}
	if _, ok := wal.SeqFromName(base, shardPrefix(int(shard64))); !ok {
		return 0, false
	}
	return int(shard64), true
}

// snapMeta is a snapshot file's header: its format version, the WAL shard
// count it was written under, and one watermark per shard. version 0 means
// "no snapshot file" (a fresh or legacy-WAL-only directory).
type snapMeta struct {
	version uint32
	shards  int
	wms     []uint64 // len == shards
}

// encodeTables serializes tables deterministically (names sorted), with
// the shard count and per-shard WAL watermarks, checksum included. Always
// writes the current format version.
func encodeTables(tables map[string][]uncertain.Tuple, shards int, wms []uint64) []byte {
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)

	buf := []byte(snapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.AppendUvarint(buf, uint64(shards))
	for _, wm := range wms {
		buf = binary.AppendUvarint(buf, wm)
	}
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
		tuples := tables[name]
		// ME-group section: distinct group keys in first-appearance order.
		var groups []string
		groupRef := make(map[string]uint64)
		for _, tp := range tuples {
			if tp.Group != "" {
				if _, ok := groupRef[tp.Group]; !ok {
					groupRef[tp.Group] = uint64(len(groups))
					groups = append(groups, tp.Group)
				}
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(groups)))
		for _, g := range groups {
			buf = appendString(buf, g)
		}
		// Tuple section.
		buf = binary.AppendUvarint(buf, uint64(len(tuples)))
		for _, tp := range tuples {
			buf = appendString(buf, tp.ID)
			ref := uint64(0)
			if tp.Group != "" {
				ref = groupRef[tp.Group] + 1
			}
			buf = binary.AppendUvarint(buf, ref)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tp.Score))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tp.Prob))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeTables parses a snapshot file's full contents — either format
// version. It is defensive — arbitrary bytes must produce an error, never
// a panic or a huge allocation — but it does not validate the data model;
// Open vets the tuples, as an upload is vetted, before serving them.
func decodeTables(data []byte) (map[string][]uncertain.Tuple, snapMeta, error) {
	var meta snapMeta
	if len(data) < len(snapMagic)+4+4 {
		return nil, meta, errors.New("persist: snapshot file too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, meta, errors.New("persist: snapshot checksum mismatch")
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return nil, meta, errors.New("persist: bad snapshot magic")
	}
	meta.version = binary.LittleEndian.Uint32(body[len(snapMagic):])
	if meta.version != formatV1 && meta.version != FormatVersion {
		return nil, meta, fmt.Errorf("persist: unsupported snapshot format version %d (have %d)", meta.version, FormatVersion)
	}
	d := wal.Decoder{Buf: body[len(snapMagic)+4:], Prefix: "persist"}
	if meta.version == formatV1 {
		// v1: one unsharded log, a single watermark.
		meta.shards = 1
		meta.wms = []uint64{d.Uvarint()}
	} else {
		shards := d.Uvarint()
		if d.Err() == nil && (shards < 1 || shards > MaxShards) {
			d.Fail("shard count %d out of range [1, %d]", shards, MaxShards)
		}
		if d.Err() == nil {
			meta.shards = int(shards)
			meta.wms = make([]uint64, meta.shards)
			for i := range meta.wms {
				meta.wms[i] = d.Uvarint()
			}
		}
	}
	nTables := d.Uvarint()
	tables := make(map[string][]uncertain.Tuple)
	for i := uint64(0); i < nTables && d.Err() == nil; i++ {
		name := d.String(maxSnapStringBytes)
		if _, dup := tables[name]; dup {
			d.Fail("duplicate table %q", name)
			break
		}
		nGroups := d.Uvarint()
		if d.Err() == nil && nGroups > uint64(len(d.Buf))+1 {
			d.Fail("group count %d exceeds payload", nGroups)
			break
		}
		groups := make([]string, 0, min(nGroups, 1024))
		for g := uint64(0); g < nGroups && d.Err() == nil; g++ {
			groups = append(groups, d.String(maxSnapStringBytes))
		}
		nTuples := d.Uvarint()
		// A tuple costs at least 18 encoded bytes (id prefix, group ref,
		// two float64s), so a lying count cannot force a huge allocation.
		if d.Err() == nil && nTuples > uint64(len(d.Buf))/18+1 {
			d.Fail("tuple count %d exceeds payload", nTuples)
			break
		}
		var tuples []uncertain.Tuple
		if d.Err() == nil && nTuples > 0 {
			tuples = make([]uncertain.Tuple, 0, nTuples)
		}
		for j := uint64(0); j < nTuples && d.Err() == nil; j++ {
			tp := uncertain.Tuple{ID: d.String(maxSnapStringBytes)}
			ref := d.Uvarint()
			if d.Err() == nil && ref > 0 {
				if ref > uint64(len(groups)) {
					d.Fail("group reference %d out of range", ref)
					break
				}
				tp.Group = groups[ref-1]
			}
			tp.Score = math.Float64frombits(d.Uint64())
			tp.Prob = math.Float64frombits(d.Uint64())
			if d.Err() == nil {
				tuples = append(tuples, tp)
			}
		}
		if d.Err() == nil {
			tables[name] = tuples
		}
	}
	if err := d.Err(); err != nil {
		return nil, meta, err
	}
	if len(d.Buf) != 0 {
		return nil, meta, fmt.Errorf("persist: %d trailing snapshot bytes", len(d.Buf))
	}
	return tables, meta, nil
}

// openFunc opens a file for writing; see Options.OpenFile.
type openFunc func(path string, flag int, perm os.FileMode) (wal.File, error)

// defaultOpen is the real-filesystem openFunc.
func defaultOpen(path string, flag int, perm os.FileMode) (wal.File, error) {
	return os.OpenFile(path, flag, perm)
}

// writeSnapshotFile stages the encoded tables under a temporary name and
// atomically renames it over the checkpoint file. The staged file is
// ALWAYS fsynced before the rename (and the directory after), whatever the
// WAL's fsync policy: the WAL behind a committed checkpoint is deleted, so
// an un-flushed checkpoint surviving its rename would be an unrecoverable
// corruption, not merely a lost suffix. Checkpoints are rare; the sync is
// cheap insurance.
func writeSnapshotFile(dir string, tables map[string][]uncertain.Tuple, shards int, wms []uint64, open openFunc) error {
	data := encodeTables(tables, shards, wms)
	tmp := filepath.Join(dir, snapTmpName)
	f, err := open(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// readSnapshotFile loads the checkpoint file of dir, returning the tables
// and the snapshot's header (version, shard count, watermarks). A missing
// file is an empty checkpoint with meta.version 0, not an error; a
// present-but-corrupt file IS an error — the WAL behind a checkpoint was
// deleted, so there is no safe fallback and the operator must intervene.
func readSnapshotFile(dir string) (map[string][]uncertain.Tuple, snapMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFileName))
	if errors.Is(err, os.ErrNotExist) {
		return map[string][]uncertain.Tuple{}, snapMeta{}, nil
	}
	if err != nil {
		return nil, snapMeta{}, fmt.Errorf("persist: %w", err)
	}
	return decodeTables(data)
}

// ReadCheckpoint loads dir's checkpoint file for replication catch-up: the
// tables it holds, the WAL shard count it was written under, and the
// per-shard watermarks (the first segment sequence whose records the
// snapshot does NOT cover). Safe to call while the owning manager keeps
// serving — checkpoints replace the file with an atomic rename, so a read
// sees either the old complete file or the new complete file, never a
// partial one. A missing file (possible only before the manager's first
// Open finished migrating the directory) returns shards == 0.
func ReadCheckpoint(dir string) (tables map[string][]uncertain.Tuple, shards int, wms []uint64, err error) {
	tables, meta, err := readSnapshotFile(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	if meta.version == 0 {
		return tables, 0, nil, nil
	}
	return tables, meta.shards, meta.wms, nil
}

// appendString aliases the string framing shared with the WAL codec.
func appendString(buf []byte, s string) []byte { return wal.AppendString(buf, s) }
