package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"probtopk/internal/persist"
	"probtopk/internal/persist/crashtest"
)

// durableLife is one process life of a durable server: boot recovers the
// data dir, crash abandons it (closing flushes nothing — it only releases
// the data-dir lock a successor needs).
type durableLife struct {
	*Server
	man *persist.Manager
}

func (l *durableLife) crash() { l.man.Close() }

// bootDurable opens a durability manager over dir, restores whatever it
// recovered, and returns the serving life — the daemon's boot sequence in
// miniature. Crash the previous life first: the data dir is flock-guarded
// against two live processes.
func bootDurable(t *testing.T, dir string, opts persist.Options) *durableLife {
	t.Helper()
	man, tables, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { man.Close() })
	s := New(Config{Durability: man})
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.RestoreTable(name, tables[name]); err != nil {
			t.Fatal(err)
		}
	}
	return &durableLife{Server: s, man: man}
}

func doReq(t *testing.T, s http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

const durableFleet = `{"tuples": [
	{"id": "car1", "score": 80, "prob": 0.9},
	{"id": "car2", "score": 70, "prob": 0.4, "group": "lane3"},
	{"id": "car3", "score": 65, "prob": 0.5, "group": "lane3"}]}`

// TestDurableMutationsSurviveRestart drives the full HTTP mutation surface
// against a durable server, "crashes" it, boots a successor over the same
// directory, and asserts the successor serves byte-identical answers.
func TestDurableMutationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := bootDurable(t, dir, persist.Options{})
	if w := doReq(t, s1, "PUT", "/tables/fleet", durableFleet); w.Code != http.StatusCreated {
		t.Fatalf("put: %d %s", w.Code, w.Body.String())
	}
	if w := doReq(t, s1, "POST", "/tables/fleet/tuples", `{"tuples": [{"id": "car4", "score": 90, "prob": 0.7}]}`); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	if w := doReq(t, s1, "PUT", "/tables/doomed", `{"tuples": [{"id": "x", "score": 1, "prob": 0.5}]}`); w.Code != http.StatusCreated {
		t.Fatalf("put doomed: %d", w.Code)
	}
	if w := doReq(t, s1, "DELETE", "/tables/doomed", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	// A rejected mutation must not be logged: the bad batch leaves no trace.
	if w := doReq(t, s1, "POST", "/tables/fleet/tuples", `{"tuples": [{"id": "bad", "score": 1, "prob": 7}]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad append: %d", w.Code)
	}
	answers := func(s http.Handler) map[string]string {
		out := map[string]string{}
		for _, q := range []string{
			"/tables/fleet/topk?k=2",
			"/tables/fleet/typical?k=2&c=2",
			"/tables/fleet/baseline/utopk?k=2",
		} {
			w := doReq(t, s, "GET", q, "")
			if w.Code != http.StatusOK {
				t.Fatalf("query %s: %d %s", q, w.Code, w.Body.String())
			}
			out[q] = w.Body.String()
		}
		return out
	}
	before := answers(s1)

	// The successor process: same dir, fresh manager, fresh server.
	s1.crash()
	s2 := bootDurable(t, dir, persist.Options{})
	if w := doReq(t, s2, "GET", "/tables/doomed", ""); w.Code != http.StatusNotFound {
		t.Fatalf("deleted table resurrected: %d", w.Code)
	}
	after := answers(s2)
	for q, want := range before {
		if after[q] != want {
			t.Fatalf("query %s differs after restart:\nbefore %s\nafter  %s", q, want, after[q])
		}
	}
	// And the recovered table keeps accepting durable mutations.
	if w := doReq(t, s2, "POST", "/tables/fleet/tuples", `{"tuples": [{"id": "car5", "score": 60, "prob": 0.3}]}`); w.Code != http.StatusOK {
		t.Fatalf("append after restart: %d %s", w.Code, w.Body.String())
	}
	s2.crash()
	s3 := bootDurable(t, dir, persist.Options{})
	var info TableInfo
	if w := doReq(t, s3, "GET", "/tables/fleet", ""); w.Code != http.StatusOK {
		t.Fatalf("info: %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 5 {
		t.Fatalf("after second restart fleet has %d tuples, want 5", info.Tuples)
	}
}

// TestDurableCheckpointing exercises the auto-checkpoint path: with
// CheckpointEvery=2 a burst of mutations must checkpoint, truncate the
// WAL, and still recover everything — including when the replayed WAL is
// already past the threshold at boot (restore must never checkpoint a
// partially rebuilt registry).
func TestDurableCheckpointing(t *testing.T) {
	dir := t.TempDir()
	s1 := bootDurable(t, dir, persist.Options{CheckpointEvery: 2})
	for _, name := range []string{"a", "b", "c", "d"} {
		if w := doReq(t, s1, "PUT", "/tables/"+name, durableFleet); w.Code != http.StatusCreated {
			t.Fatalf("put %s: %d", name, w.Code)
		}
	}
	var stats StatsResponse
	if w := doReq(t, s1, "GET", "/debug/stats", ""); w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil {
		t.Fatal("stats missing durability block")
	}
	if stats.Durability.Checkpoints == 0 {
		t.Fatalf("no checkpoint after 4 mutations at every=2: %+v", stats.Durability)
	}
	if stats.Durability.RecordsSinceCheckpoint >= 2 {
		t.Fatalf("WAL not truncated: %+v", stats.Durability)
	}

	// Boot a successor with a tiny threshold whose replayed WAL may
	// already be "due": all four tables must survive restore.
	s1.crash()
	s2 := bootDurable(t, dir, persist.Options{CheckpointEvery: 1})
	w := doReq(t, s2, "GET", "/tables", "")
	var tl TablesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Tables) != 4 {
		t.Fatalf("recovered %d tables, want 4: %s", len(tl.Tables), w.Body.String())
	}
	// One more mutation flushes the due checkpoint against the FULL
	// registry; a third boot still sees everything.
	if w := doReq(t, s2, "DELETE", "/tables/d", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	s2.crash()
	s3 := bootDurable(t, dir, persist.Options{})
	w = doReq(t, s3, "GET", "/tables", "")
	if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Tables) != 3 {
		t.Fatalf("after checkpointed delete recovered %d tables: %s", len(tl.Tables), w.Body.String())
	}
}

// TestDurabilityFailureRejectsMutation injects a dead disk (zero write
// budget) and asserts mutations are rejected with 503, leave the served
// state exactly as it was, and leak no internal details to the client.
func TestDurabilityFailureRejectsMutation(t *testing.T) {
	dir := t.TempDir()
	// A healthy first life hosts a table.
	s1 := bootDurable(t, dir, persist.Options{})
	if w := doReq(t, s1, "PUT", "/tables/fleet", durableFleet); w.Code != http.StatusCreated {
		t.Fatalf("put: %d", w.Code)
	}
	// The second life's disk dies after boot: the WAL open succeeds (the
	// budget covers it), then every logged write fails.
	s1.crash()
	budget := crashtest.NewBudget(16) // enough for nothing beyond open
	s2 := bootDurable(t, dir, persist.Options{OpenFile: budget.OpenFile})

	if w := doReq(t, s2, "POST", "/tables/fleet/tuples", `{"tuples": [{"id": "car9", "score": 9, "prob": 0.9}]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("append on dead disk: %d %s", w.Code, w.Body.String())
	} else if strings.Contains(w.Body.String(), dir) {
		t.Fatalf("error leaks the data dir: %s", w.Body.String())
	}
	if w := doReq(t, s2, "PUT", "/tables/other", durableFleet); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("put on dead disk: %d", w.Code)
	}
	if w := doReq(t, s2, "DELETE", "/tables/fleet", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("delete on dead disk: %d", w.Code)
	}
	// The served state is exactly the pre-failure state...
	var info TableInfo
	w := doReq(t, s2, "GET", "/tables/fleet", "")
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 3 {
		t.Fatalf("failed mutations changed the table: %+v", info)
	}
	if w := doReq(t, s2, "GET", "/tables/other", ""); w.Code != http.StatusNotFound {
		t.Fatalf("failed put half-registered a table: %d", w.Code)
	}
	// ...and so is the durable state.
	s2.crash()
	s3 := bootDurable(t, dir, persist.Options{})
	w = doReq(t, s3, "GET", "/tables/fleet", "")
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 3 {
		t.Fatalf("durable state drifted: %+v", info)
	}

	// A WAL failure after the append passed validation must not leave its
	// id or group mass behind: once the disk is back, the same append
	// succeeds, and it is durable.
	s3.crash()
	budget = crashtest.NewBudget(16)
	s4 := bootDurable(t, dir, persist.Options{OpenFile: budget.OpenFile})
	grow := `{"tuples": [{"id": "car9", "score": 9, "prob": 0.1, "group": "lane3"}]}`
	if w := doReq(t, s4, "POST", "/tables/fleet/tuples", grow); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("append on dead disk: %d %s", w.Code, w.Body.String())
	}
	budget.Refill(1 << 20)
	if w := doReq(t, s4, "POST", "/tables/fleet/tuples", grow); w.Code != http.StatusOK {
		t.Fatalf("retried append: %d %s", w.Code, w.Body.String())
	}
	s4.crash()
	s5 := bootDurable(t, dir, persist.Options{})
	w = doReq(t, s5, "GET", "/tables/fleet", "")
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 4 {
		t.Fatalf("retried append not durable: %+v", info)
	}
}

// TestNonDurableServerHasNoDurabilityStats pins the zero-config behavior:
// no durability block, mutations untouched.
func TestNonDurableServerHasNoDurabilityStats(t *testing.T) {
	s := New(Config{})
	if w := doReq(t, s, "PUT", "/tables/fleet", durableFleet); w.Code != http.StatusCreated {
		t.Fatalf("put: %d", w.Code)
	}
	var stats StatsResponse
	w := doReq(t, s, "GET", "/debug/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durability != nil {
		t.Fatalf("unexpected durability block: %+v", stats.Durability)
	}
}

// TestBatchedDurabilitySurvivesRestart: a server on a group-commit WAL
// (-fsync=batch) acknowledges concurrent appends, reports batch counters
// on /debug/stats, and a successor recovers every acknowledged mutation.
func TestBatchedDurabilitySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := persist.Options{Fsync: true, BatchFsync: true, MaxBatchDelay: 50 * time.Millisecond}
	s1 := bootDurable(t, dir, opts)
	names := []string{"fleet0", "fleet1", "fleet2", "fleet3"}
	for _, name := range names {
		if w := doReq(t, s1, "PUT", "/tables/"+name, durableFleet); w.Code != http.StatusCreated {
			t.Fatalf("put %s: %d", name, w.Code)
		}
	}
	var wg sync.WaitGroup
	codes := make([]int, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			w := doReq(t, s1, "POST", "/tables/"+name+"/tuples", `{"tuples": [{"id": "x", "score": 90, "prob": 0.7}]}`)
			codes[i] = w.Code
		}(i, name)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("batched append %d: %d", i, code)
		}
	}
	var stats StatsResponse
	w := doReq(t, s1, "GET", "/debug/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil || stats.Durability.WALBatches == 0 {
		t.Fatalf("no group commits reported: %+v", stats.Durability)
	}
	var hist uint64
	for _, c := range stats.Durability.WALBatchSizes {
		hist += c
	}
	if hist != stats.Durability.WALBatches {
		t.Fatalf("batch histogram sums to %d, want %d", hist, stats.Durability.WALBatches)
	}
	s1.crash()
	s2 := bootDurable(t, dir, persist.Options{})
	for _, name := range names {
		var info TableInfo
		w := doReq(t, s2, "GET", "/tables/"+name, "")
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Tuples != 4 {
			t.Fatalf("recovered %s with %d tuples, want 4", name, info.Tuples)
		}
	}
}

// TestBatchFsyncFailure503sWholeBatch: when the shared group-commit fsync
// fails, EVERY request in the batch gets 503 — none may be told its
// mutation is durable — the served state stays exactly as it was, and so
// does the durable state a successor recovers.
func TestBatchFsyncFailure503sWholeBatch(t *testing.T) {
	dir := t.TempDir()
	s1 := bootDurable(t, dir, persist.Options{})
	names := []string{"fleet0", "fleet1", "fleet2", "fleet3"}
	for _, name := range names {
		if w := doReq(t, s1, "PUT", "/tables/"+name, durableFleet); w.Code != http.StatusCreated {
			t.Fatalf("put %s: %d", name, w.Code)
		}
	}
	s1.crash()
	budget := crashtest.NewBudget(1 << 20) // writes land; the fsync is what dies
	s2 := bootDurable(t, dir, persist.Options{
		Fsync: true, BatchFsync: true, MaxBatchDelay: 50 * time.Millisecond,
		OpenFile: budget.OpenFile,
	})
	budget.LimitSyncs(0)
	var wg sync.WaitGroup
	codes := make([]int, len(names))
	bodies := make([]string, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			w := doReq(t, s2, "POST", "/tables/"+name+"/tuples", `{"tuples": [{"id": "x", "score": 90, "prob": 0.7}]}`)
			codes[i], bodies[i] = w.Code, w.Body.String()
		}(i, name)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Fatalf("append %d in failed batch: %d %s", i, code, bodies[i])
		}
		if strings.Contains(bodies[i], dir) {
			t.Fatalf("error leaks the data dir: %s", bodies[i])
		}
	}
	// The log is broken: later mutations stay rejected.
	if w := doReq(t, s2, "POST", "/tables/fleet0/tuples", `{"tuples": [{"id": "y", "score": 1, "prob": 0.5}]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("append after failed batch fsync: %d", w.Code)
	}
	// Served state unchanged...
	for _, name := range names {
		var info TableInfo
		w := doReq(t, s2, "GET", "/tables/"+name, "")
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Tuples != 3 {
			t.Fatalf("failed batch changed served table %s: %+v", name, info)
		}
	}
	// ...and so is the durable state.
	s2.crash()
	s3 := bootDurable(t, dir, persist.Options{})
	for _, name := range names {
		var info TableInfo
		w := doReq(t, s3, "GET", "/tables/"+name, "")
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.Tuples != 3 {
			t.Fatalf("failed batch leaked into durable state of %s: %+v", name, info)
		}
	}
}
