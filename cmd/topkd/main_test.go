package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"strings"

	"probtopk/internal/persist"
	"probtopk/internal/server"
	"probtopk/internal/server/fairness"
	"probtopk/internal/uncertain"
)

const fleetCSV = `id,score,prob,group
car1,80,0.9,
car2,70,0.4,lane3
car3,65,0.5,lane3
`

func TestTableName(t *testing.T) {
	cases := map[string]string{
		"fleet.csv":           "fleet",
		"data/fleet.csv":      "fleet",
		"/abs/path/radar.CSV": "radar",
		"noext":               "noext",
	}
	for in, want := range cases {
		if got := tableName(in); got != want {
			t.Errorf("tableName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLoadTables(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"fleet.csv", "radar.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(fleetCSV), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(server.Config{})
	names, err := loadTables(srv, filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}

	// The loaded tables answer queries.
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet/topk?k=2", nil))
	if w.Code != 200 {
		t.Fatalf("query status %d: %s", w.Code, w.Body.String())
	}
	var dist server.DistributionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dist); err != nil {
		t.Fatal(err)
	}
	if dist.K != 2 || len(dist.Lines) == 0 {
		t.Fatalf("dist = %+v", dist)
	}
}

func TestLoadTablesEmptyGlobIsNoop(t *testing.T) {
	names, err := loadTables(server.New(server.Config{}), "")
	if err != nil || names != nil {
		t.Fatalf("loadTables(\"\") = %v, %v", names, err)
	}
}

func TestLoadTablesErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := loadTables(server.New(server.Config{}), filepath.Join(dir, "*.csv")); err == nil {
		t.Fatal("empty match should error")
	}
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("id,score,prob,group\nx,1,7,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTables(server.New(server.Config{}), bad); err == nil {
		t.Fatal("invalid CSV should error")
	}
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in           string
		fsync, batch bool
	}{
		{"always", true, false}, {"true", true, false}, {"1", true, false},
		{"ALWAYS", true, false},
		{"batch", true, true}, {"Batch", true, true},
		{"never", false, false}, {"false", false, false}, {"0", false, false},
	}
	for _, c := range cases {
		fsync, batch, err := parseFsync(c.in)
		if err != nil || fsync != c.fsync || batch != c.batch {
			t.Errorf("parseFsync(%q) = %v, %v, %v; want %v, %v", c.in, fsync, batch, err, c.fsync, c.batch)
		}
	}
	if _, _, err := parseFsync("sometimes"); err == nil {
		t.Error("parseFsync(\"sometimes\") should error")
	}
	if _, _, err := buildServer(config{dataDir: t.TempDir(), fsync: "sometimes"}); err == nil {
		t.Error("buildServer should reject a bad -fsync value")
	}
}

// TestBatchedRestartRecoversTables boots the daemon with -fsync=batch,
// mutates, and checks the next life (under -fsync=always, to prove the
// on-disk format is policy-independent) serves the same data.
func TestBatchedRestartRecoversTables(t *testing.T) {
	dir := t.TempDir()
	cfg := config{dataDir: filepath.Join(dir, "data"), fsync: "batch",
		maxBatchDelay: 2 * time.Millisecond, checkpointEvery: 0}

	srv1, man1, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := httptest.NewRequest("PUT", "/tables/fleet", strings.NewReader(fleetCSV))
	put.Header.Set("Content-Type", "text/csv")
	w := httptest.NewRecorder()
	srv1.ServeHTTP(w, put)
	if w.Code != 201 {
		t.Fatalf("put: %d %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	srv1.ServeHTTP(w, httptest.NewRequest("POST", "/tables/fleet/tuples",
		strings.NewReader(`{"tuples": [{"id": "car4", "score": 90, "prob": 0.7}]}`)))
	if w.Code != 200 {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	man1.Close()

	cfg.fsync = "always"
	srv2, man2, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer man2.Close()
	var info server.TableInfo
	w = httptest.NewRecorder()
	srv2.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 4 {
		t.Fatalf("batched mutations lost across restart: %+v", info)
	}
}

// TestReplayRejectsDuplicateIDAppend: a checksummed WAL append that
// repeats a tuple id — which the live append path refuses — is rejected by
// recovery, which truncates the log there as for any rejected record, so
// the daemon boots with the state before it instead of refusing to restore
// the table.
func TestReplayRejectsDuplicateIDAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	cfg := config{dataDir: dir, fsync: "never", shards: 1}
	man, _, err := persist.Open(dir, persist.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := man.LogPut("fleet", []uncertain.Tuple{{ID: "a", Score: 2, Prob: 0.5}, {ID: "b", Score: 1, Prob: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := man.LogAppend("fleet", []uncertain.Tuple{{ID: "a", Score: 3, Prob: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := man.LogAppend("fleet", []uncertain.Tuple{{ID: "c", Score: 4, Prob: 0.5}}); err != nil {
		t.Fatal(err)
	}
	man.Close()

	srv, man, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("boot after a duplicate-id append: %v", err)
	}
	defer man.Close()
	if info := man.ReplayInfo(); !info.Truncated || info.Records != 1 {
		t.Fatalf("replay = %+v, want the put replayed and the log truncated at the duplicate", info)
	}
	var info server.TableInfo
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if w.Code != 200 || info.Tuples != 2 {
		t.Fatalf("recovered table: %d %+v, want the put's 2 tuples", w.Code, info)
	}
}

// TestRestartRecoversTables drives the daemon's real boot sequence
// (buildServer) twice over one data directory: mutations served by the
// first life must be answered identically by the second, and -load must
// still override a recovered table by name.
func TestRestartRecoversTables(t *testing.T) {
	dir := t.TempDir()
	cfg := config{dataDir: filepath.Join(dir, "data"), fsync: "never", checkpointEvery: 3}

	srv1, man1, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := httptest.NewRequest("PUT", "/tables/fleet", strings.NewReader(fleetCSV))
	put.Header.Set("Content-Type", "text/csv")
	w := httptest.NewRecorder()
	srv1.ServeHTTP(w, put)
	if w.Code != 201 {
		t.Fatalf("put: %d %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	srv1.ServeHTTP(w, httptest.NewRequest("POST", "/tables/fleet/tuples",
		strings.NewReader(`{"tuples": [{"id": "car4", "score": 90, "prob": 0.7}]}`)))
	if w.Code != 200 {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	srv1.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet/topk?k=2", nil))
	if w.Code != 200 {
		t.Fatalf("query: %d", w.Code)
	}
	before := w.Body.String()

	// Second life: no process state survives but the data dir. Closing the
	// manager is the "crash" — it flushes nothing, only releases the
	// data-dir lock the next life needs.
	man1.Close()
	srv2, man2, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	srv2.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet/topk?k=2", nil))
	if w.Code != 200 || w.Body.String() != before {
		t.Fatalf("recovered answer differs:\nbefore %s\nafter  %d %s", before, w.Code, w.Body.String())
	}

	// -load replaces the recovered table (and the replacement is durable).
	csvPath := filepath.Join(dir, "fleet.csv")
	if err := os.WriteFile(csvPath, []byte("id,score,prob,group\nonly,50,0.5,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	man2.Close()
	srv3, man3, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadTables(srv3, csvPath); err != nil {
		t.Fatal(err)
	}
	var info server.TableInfo
	w = httptest.NewRecorder()
	srv3.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 1 {
		t.Fatalf("-load did not replace recovered table: %+v", info)
	}
	man3.Close()
	srv4, man4, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer man4.Close()
	w = httptest.NewRecorder()
	srv4.ServeHTTP(w, httptest.NewRequest("GET", "/tables/fleet", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 1 {
		t.Fatalf("replacement not durable: %+v", info)
	}
}

// The fairness flag set: tuning flags without fairness are rejected, and
// the built server exposes (or omits) the stats block accordingly.
func TestFairnessFlags(t *testing.T) {
	bad := config{fairness: false, fairnessCfg: fairness.Config{Levels: 4}}
	if err := bad.validate(); err == nil {
		t.Fatal("tuning flags with -fairness=false were accepted")
	}

	stats := func(cfg config) server.StatsResponse {
		t.Helper()
		srv, _, err := buildServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/debug/stats", nil))
		var st server.StatsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats: %v", err)
		}
		return st
	}
	on := stats(config{fairness: true, fairnessCfg: fairness.Config{MaxConcurrent: 3}})
	if on.Fairness == nil || len(on.Fairness.Levels) != fairness.DefaultLevels {
		t.Fatalf("fairness block missing or malformed with -fairness: %+v", on.Fairness)
	}
	off := stats(config{})
	if off.Fairness != nil {
		t.Fatal("fairness block present with -fairness=false")
	}
}
