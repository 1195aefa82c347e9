package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"probtopk/internal/uncertain"
)

func sampleState() map[string][]uncertain.Tuple {
	return map[string][]uncertain.Tuple{
		"fleet": {
			{ID: "car1", Score: 80, Prob: 0.9},
			{ID: "car2", Score: 70, Prob: 0.4, Group: "lane3"},
			{ID: "car3", Score: 65, Prob: 0.5, Group: "lane3"},
		},
		"radar": {
			{ID: "r1", Score: 12.5, Prob: 0.125},
			{ID: "r2", Score: -3, Prob: 1},
		},
		"empty": {},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleState()
	got, meta, err := decodeTables(encodeTables(want, 3, []uint64{42, 7, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if meta.version != FormatVersion || meta.shards != 3 ||
		!reflect.DeepEqual(meta.wms, []uint64{42, 7, 9}) {
		t.Fatalf("meta = %+v", meta)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d tables, want %d", len(got), len(want))
	}
	for name, tuples := range want {
		if len(tuples) == 0 {
			if len(got[name]) != 0 {
				t.Fatalf("table %q = %v, want empty", name, got[name])
			}
			continue
		}
		if !reflect.DeepEqual(got[name], tuples) {
			t.Fatalf("table %q = %v, want %v", name, got[name], tuples)
		}
	}
}

func TestSnapshotEncodingIsDeterministic(t *testing.T) {
	a := encodeTables(sampleState(), 2, []uint64{3, 5})
	b := encodeTables(sampleState(), 2, []uint64{3, 5})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	clean := encodeTables(sampleState(), 1, []uint64{3})
	cases := map[string][]byte{
		"empty":         {},
		"short":         clean[:10],
		"bad magic":     append([]byte("NOTASNAP"), clean[8:]...),
		"flipped byte":  flip(clean, len(clean)/2),
		"flipped crc":   flip(clean, len(clean)-1),
		"truncated":     clean[:len(clean)-9],
		"trailing data": append(append([]byte{}, clean...), 0),
	}
	for name, data := range cases {
		if _, _, err := decodeTables(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	// An unknown version must be refused, not guessed at. The version field
	// is inside the CRC, so rewrite it and restamp.
	vbump := append([]byte{}, clean[:len(clean)-4]...)
	vbump[8] = 99
	vbump = binary.LittleEndian.AppendUint32(vbump, crc32.Checksum(vbump, castagnoli))
	if _, _, err := decodeTables(vbump); err == nil {
		t.Error("unknown version: decode succeeded")
	}
}

// flip returns data with byte i inverted.
func flip(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0xff
	return out
}

func TestWriteReadSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	// Missing file reads as an empty checkpoint with version 0.
	got, meta, err := readSnapshotFile(dir)
	if err != nil || len(got) != 0 || meta.version != 0 {
		t.Fatalf("missing file: %v, %+v, %v", got, meta, err)
	}
	if err := writeSnapshotFile(dir, sampleState(), 1, []uint64{5}, defaultOpen); err != nil {
		t.Fatal(err)
	}
	got, meta, err = readSnapshotFile(dir)
	if err != nil || meta.shards != 1 || meta.wms[0] != 5 {
		t.Fatalf("read back meta %+v, %v", meta, err)
	}
	if !reflect.DeepEqual(got["fleet"], sampleState()["fleet"]) {
		t.Fatalf("read back %v", got["fleet"])
	}
	// No staging temp file is left behind.
	if _, err := os.Stat(filepath.Join(dir, snapTmpName)); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
	// Overwrite with different contents replaces atomically.
	if err := writeSnapshotFile(dir, map[string][]uncertain.Tuple{"solo": {{ID: "x", Score: 1, Prob: 0.5}}}, 1, []uint64{6}, defaultOpen); err != nil {
		t.Fatal(err)
	}
	got, _, err = readSnapshotFile(dir)
	if err != nil || len(got) != 1 || got["solo"][0].ID != "x" {
		t.Fatalf("after overwrite: %v, %v", got, err)
	}
}

// TestCheckpointCrashBeforeSegmentDropDoesNotDoubleApply covers the crash
// window between a checkpoint's snapshot rename and its WAL segment
// deletion: the surviving pre-watermark segment must be skipped on
// recovery, or every record it holds would apply twice (appends would
// duplicate tuples, deletes would replay against missing tables).
func TestCheckpointCrashBeforeSegmentDropDoesNotDoubleApply(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LogPut("fleet", sampleState()["fleet"][:2]); err != nil {
		t.Fatal(err)
	}
	if err := m.LogAppend("fleet", sampleState()["fleet"][2:]); err != nil {
		t.Fatal(err)
	}
	// Save the pre-checkpoint segment, checkpoint (which deletes it), then
	// restore it — exactly the state a crash between writeSnapshotFile's
	// rename and DropBefore leaves behind.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	covered, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	tab := uncertain.NewTable()
	for _, tp := range sampleState()["fleet"] {
		tab.Add(tp)
	}
	if err := m.Checkpoint(map[string]*uncertain.Snapshot{"fleet": tab.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := os.WriteFile(segs[0], covered, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, tables, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := tables["fleet"].Tuples()
	if !reflect.DeepEqual(got, sampleState()["fleet"]) {
		t.Fatalf("stale segment double-applied: %v", got)
	}
	// And the stale segment was cleaned up, not left for the next boot.
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Fatalf("stale segment not cleaned: %v", err)
	}
}

// goldenDir copies the checked-in golden fixture into a scratch dir so
// recovery (which appends to and may truncate the WAL) cannot touch the
// fixture itself.
func goldenDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGoldenFixture is the format-version regression gate: the checked-in
// snapshot + WAL bytes must decode to exactly this state forever. If this
// test breaks, the reader no longer understands version-1 files written by
// older builds — bump FormatVersion and keep decoding the old one instead.
func TestGoldenFixture(t *testing.T) {
	m, tables, err := Open(goldenDir(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info := m.ReplayInfo(); info.Truncated || info.Records != 3 {
		t.Fatalf("replay info = %+v", info)
	}
	want := map[string][]uncertain.Tuple{
		// From the checkpoint, with the WAL's append on top.
		"fleet": {
			{ID: "car1", Score: 80, Prob: 0.9},
			{ID: "car2", Score: 70, Prob: 0.4, Group: "lane3"},
			{ID: "car3", Score: 65, Prob: 0.5, Group: "lane3"},
			{ID: "car4", Score: 90, Prob: 0.7},
		},
		// Put by the WAL.
		"sensors": {
			{ID: "s1", Score: 99.5, Prob: 0.25},
			{ID: "s2", Score: 88, Prob: 0.5, Group: "pair"},
			{ID: "s3", Score: 77, Prob: 0.5, Group: "pair"},
		},
		// "radar" was in the checkpoint and deleted by the WAL.
	}
	if len(tables) != len(want) {
		t.Fatalf("recovered tables %v", keys(tables))
	}
	for name, tuples := range want {
		tab, ok := tables[name]
		if !ok {
			t.Fatalf("missing table %q", name)
		}
		if !reflect.DeepEqual(tab.Tuples(), tuples) {
			t.Fatalf("table %q = %v, want %v", name, tab.Tuples(), tuples)
		}
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestGoldenTornTail asserts a torn tail and a bad mid-log CRC on the
// golden WAL are detected and cleanly truncated — recovery succeeds with
// the surviving prefix, never a mangled table.
func TestGoldenTornTail(t *testing.T) {
	t.Run("torn tail", func(t *testing.T) {
		dir := goldenDir(t)
		seg := filepath.Join(dir, "wal-00000002.seg")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		m, tables, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		info := m.ReplayInfo()
		if !info.Truncated || info.Records != 2 {
			t.Fatalf("replay info = %+v", info)
		}
		// The delete was torn off: radar survives from the checkpoint.
		if _, ok := tables["radar"]; !ok {
			t.Fatalf("tables = %v", keys(tables))
		}
	})
	t.Run("bad crc", func(t *testing.T) {
		dir := goldenDir(t)
		seg := filepath.Join(dir, "wal-00000002.seg")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[20] ^= 0xff // inside the first record's payload
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, tables, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		info := m.ReplayInfo()
		if !info.Truncated || info.Records != 0 {
			t.Fatalf("replay info = %+v", info)
		}
		// Only the checkpoint state survives.
		if len(tables) != 2 || tables["fleet"] == nil || tables["radar"] == nil {
			t.Fatalf("tables = %v", keys(tables))
		}
		for _, tab := range tables {
			if err := tab.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestManagerLogCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	m, tables, err := Open(dir, Options{Fsync: true, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 0 {
		t.Fatalf("fresh dir recovered %v", keys(tables))
	}
	fleet := sampleState()["fleet"]
	if err := m.LogPut("fleet", fleet); err != nil {
		t.Fatal(err)
	}
	if err := m.LogAppend("fleet", []uncertain.Tuple{{ID: "car4", Score: 90, Prob: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if m.CheckpointDue() {
		t.Fatal("checkpoint due after 2 of 3 records")
	}
	if err := m.LogPut("radar", sampleState()["radar"]); err != nil {
		t.Fatal(err)
	}
	if !m.CheckpointDue() {
		t.Fatal("checkpoint not due after 3 records")
	}

	// Crash before any checkpoint: the WAL alone recovers everything.
	m.Close()
	m2, tables, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables["fleet"].Len() != 4 {
		t.Fatalf("recovered %v", keys(tables))
	}

	// Checkpoint, then crash: the snapshot alone recovers everything and
	// the WAL is truncated behind it.
	states := map[string]*uncertain.Snapshot{
		"fleet": tables["fleet"].Snapshot(),
		"radar": tables["radar"].Snapshot(),
	}
	if err := m2.Checkpoint(states); err != nil {
		t.Fatal(err)
	}
	st := m2.Stats()
	if st.Checkpoints != 1 || st.RecordsSinceCheckpoint != 0 || st.LastCheckpointNanos <= 0 {
		t.Fatalf("stats after checkpoint = %+v", st)
	}
	if err := m2.LogDelete("radar"); err != nil { // one post-checkpoint record
		t.Fatal(err)
	}
	m2.Close()
	m3, tables, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if info := m3.ReplayInfo(); info.Records != 1 {
		t.Fatalf("replay info after checkpoint = %+v", info)
	}
	if len(tables) != 1 || tables["fleet"].Len() != 4 {
		t.Fatalf("recovered %v", keys(tables))
	}
	if err := tables["fleet"].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveredIdentitiesAreFresh(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LogPut("fleet", sampleState()["fleet"]); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m2, tables1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3, tables2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m3.Close()
	s1, s2 := tables1["fleet"].Snapshot(), tables2["fleet"].Snapshot()
	if s1.ID() == s2.ID() {
		t.Fatalf("recovered identities collide: %d/%d", s1.ID(), s2.ID())
	}
}
