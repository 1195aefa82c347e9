package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"probtopk/internal/persist"
)

// shardSpread returns n table names covering n distinct shards (index i
// lands on shard i), so tests can address every shard deliberately.
func shardSpread(t *testing.T, n int) []string {
	t.Helper()
	names := make([]string, n)
	for i, found := 0, 0; found < n; i++ {
		if i > 100000 {
			t.Fatal("could not cover every shard")
		}
		name := fmt.Sprintf("tbl%03d", i)
		if s := persist.ShardOf(name, n); names[s] == "" {
			names[s] = name
			found++
		}
	}
	return names
}

// TestShardedDurableServerRecovery drives mutations onto tables covering
// all four shards of a durable server, crashes it, and boots successors —
// first under the same shard count, then under a different one (an
// in-place layout migration) — asserting byte-identical answers both
// times.
func TestShardedDurableServerRecovery(t *testing.T) {
	dir := t.TempDir()
	names := shardSpread(t, 4)
	s1 := bootDurable(t, dir, persist.Options{Shards: 4})
	if got := s1.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	for _, name := range names {
		if w := doReq(t, s1, "PUT", "/tables/"+name, durableFleet); w.Code != http.StatusCreated {
			t.Fatalf("put %s: %d %s", name, w.Code, w.Body.String())
		}
		if w := doReq(t, s1, "POST", "/tables/"+name+"/tuples",
			`{"tuples": [{"id": "extra-`+name+`", "score": 91, "prob": 0.6}]}`); w.Code != http.StatusOK {
			t.Fatalf("append %s: %d %s", name, w.Code, w.Body.String())
		}
	}
	// One delete so recovery replays a tombstone too.
	if w := doReq(t, s1, "PUT", "/tables/doomed", durableFleet); w.Code != http.StatusCreated {
		t.Fatalf("put doomed: %d", w.Code)
	}
	if w := doReq(t, s1, "DELETE", "/tables/doomed", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete doomed: %d", w.Code)
	}
	answers := func(s http.Handler) map[string]string {
		out := map[string]string{}
		for _, name := range names {
			for _, q := range []string{
				"/tables/" + name + "/topk?k=2",
				"/tables/" + name + "/typical?k=2&c=2",
			} {
				w := doReq(t, s, "GET", q, "")
				if w.Code != http.StatusOK {
					t.Fatalf("query %s: %d %s", q, w.Code, w.Body.String())
				}
				out[q] = w.Body.String()
			}
		}
		return out
	}
	before := answers(s1)
	s1.crash()

	s2 := bootDurable(t, dir, persist.Options{Shards: 4})
	if w := doReq(t, s2, "GET", "/tables/doomed", ""); w.Code != http.StatusNotFound {
		t.Fatalf("deleted table resurrected: %d", w.Code)
	}
	after := answers(s2)
	for q, want := range before {
		if after[q] != want {
			t.Fatalf("query %s differs after restart:\nbefore %s\nafter  %s", q, want, after[q])
		}
	}
	s2.crash()

	// A different shard count: recovery migrates the layout in place; the
	// served answers must not change in a single byte.
	s3 := bootDurable(t, dir, persist.Options{Shards: 2})
	if got := s3.Shards(); got != 2 {
		t.Fatalf("after reshard Shards() = %d, want 2", got)
	}
	resharded := answers(s3)
	for q, want := range before {
		if resharded[q] != want {
			t.Fatalf("query %s differs after reshard:\nbefore %s\nafter  %s", q, want, resharded[q])
		}
	}
}

// TestShardedStats asserts /debug/stats reports the shard count, the
// per-shard durability counters, and the prepared-cache partitions — and
// that records land on the shard ShardOf says they do.
func TestShardedStats(t *testing.T) {
	dir := t.TempDir()
	names := shardSpread(t, 4)
	s := bootDurable(t, dir, persist.Options{Shards: 4})
	for _, name := range names[:2] { // mutate shards 0 and 1 only
		if w := doReq(t, s, "PUT", "/tables/"+name, durableFleet); w.Code != http.StatusCreated {
			t.Fatalf("put %s: %d", name, w.Code)
		}
	}
	var stats StatsResponse
	w := doReq(t, s, "GET", "/debug/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 4 {
		t.Fatalf("stats.Shards = %d, want 4", stats.Shards)
	}
	if stats.Durability == nil || len(stats.Durability.Shards) != 4 {
		t.Fatalf("durability shard stats = %+v", stats.Durability)
	}
	for i, ss := range stats.Durability.Shards {
		want := uint64(0)
		if i < 2 {
			want = 1
		}
		if ss.Shard != i || ss.WALRecords != want {
			t.Fatalf("shard %d stats = %+v, want %d records", i, ss, want)
		}
	}
	if got := stats.Durability.WALRecords; got != 2 {
		t.Fatalf("aggregate WAL records = %d, want 2", got)
	}
}

// TestShardedConcurrentMutateQuery hammers a 4-shard non-durable server
// with concurrent uploads, appends, deletes and queries across tables on
// every shard — race-detector fodder for the sharded registry.
func TestShardedConcurrentMutateQuery(t *testing.T) {
	s := New(Config{Shards: 4})
	names := shardSpread(t, 4)
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if w := doReq(t, s, "PUT", "/tables/"+name, durableFleet); w.Code != http.StatusCreated && w.Code != http.StatusOK {
					t.Errorf("put %s: %d", name, w.Code)
					return
				}
				body := fmt.Sprintf(`{"tuples": [{"id": "x%d", "score": 50, "prob": 0.5}]}`, i)
				if w := doReq(t, s, "POST", "/tables/"+name+"/tuples", body); w.Code != http.StatusOK {
					t.Errorf("append %s: %d", name, w.Code)
					return
				}
				if w := doReq(t, s, "GET", "/tables/"+name+"/topk?k=2", ""); w.Code != http.StatusOK {
					t.Errorf("query %s: %d", name, w.Code)
					return
				}
			}
			if w := doReq(t, s, "DELETE", "/tables/"+name, ""); w.Code != http.StatusNoContent {
				t.Errorf("delete %s: %d", name, w.Code)
			}
		}(name)
	}
	wg.Wait()
	if s.reg.len() != 0 {
		t.Fatalf("tables left: %v", s.reg.names())
	}
}
