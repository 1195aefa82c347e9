package server

import (
	"net/http"
	"strings"
	"testing"

	"probtopk"
)

// TestFollowerReadOnly checks a follower-mode server rejects every client
// write with 403 naming the leader, while replicated applies and queries
// keep working.
func TestFollowerReadOnly(t *testing.T) {
	s := New(Config{FollowerOf: "leader.example:8081"})
	if !s.ReadOnly() {
		t.Fatalf("ReadOnly() = false with FollowerOf set")
	}

	// Client writes: refused, with the leader's address in header and body.
	for _, c := range []struct{ method, path, body string }{
		{"PUT", "/tables/s", soldierJSON},
		{"POST", "/tables/s/tuples", `{"tuples":[{"id":"X","score":1,"prob":0.5}]}`},
		{"DELETE", "/tables/s", ""},
	} {
		w := do(t, s, c.method, c.path, c.body)
		body := mustStatus(t, w, http.StatusForbidden)
		if got := w.Header().Get("X-Topk-Leader"); got != "leader.example:8081" {
			t.Fatalf("%s %s: X-Topk-Leader = %q", c.method, c.path, got)
		}
		if !strings.Contains(body, "leader.example:8081") {
			t.Fatalf("%s %s: body does not name the leader: %s", c.method, c.path, body)
		}
	}

	// The replication apply path bypasses the guard: install a table the
	// way the follower's stream does, then query it like any client.
	tab := probtopk.NewTable()
	tab.Add(probtopk.Tuple{ID: "T1", Score: 100, Prob: 0.9})
	tab.Add(probtopk.Tuple{ID: "T2", Score: 90, Prob: 0.8})
	if err := s.ApplyPut("s", tab.Tuples()); err != nil {
		t.Fatalf("ApplyPut: %v", err)
	}
	mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=1", ""), http.StatusOK)

	if err := s.ApplyAppend("s", []probtopk.Tuple{{ID: "T3", Score: 80, Prob: 0.7}}); err != nil {
		t.Fatalf("ApplyAppend: %v", err)
	}
	body := mustStatus(t, do(t, s, "GET", "/tables/s", ""), http.StatusOK)
	if !strings.Contains(body, `"tuples":3`) {
		t.Fatalf("table info after ApplyAppend: %s", body)
	}
	if err := s.ApplyDelete("s"); err != nil {
		t.Fatalf("ApplyDelete: %v", err)
	}
	mustStatus(t, do(t, s, "GET", "/tables/s", ""), http.StatusNotFound)
	if err := s.ApplyDelete("s"); err == nil {
		t.Fatalf("ApplyDelete of a missing table succeeded")
	}
	if err := s.ApplyAppend("s", nil); err == nil {
		t.Fatalf("ApplyAppend to a missing table succeeded")
	}
}

// TestApplyAppendValidates checks a replicated append that breaks the
// table's invariants is refused (the follower treats it as divergence),
// leaving the published state untouched.
func TestApplyAppendValidates(t *testing.T) {
	s := New(Config{})
	tab := probtopk.NewTable()
	tab.Add(probtopk.Tuple{ID: "T1", Score: 100, Prob: 0.4, Group: "g"})
	if err := s.ApplyPut("s", tab.Tuples()); err != nil {
		t.Fatalf("ApplyPut: %v", err)
	}
	// Same ID again: uniqueness violation.
	if err := s.ApplyAppend("s", []probtopk.Tuple{{ID: "T1", Score: 1, Prob: 0.1}}); err == nil {
		t.Fatalf("ApplyAppend accepted a duplicate tuple ID")
	}
	// Group mass over 1: validation failure.
	if err := s.ApplyAppend("s", []probtopk.Tuple{{ID: "T2", Score: 2, Prob: 0.5, Group: "g"}}); err != nil {
		t.Fatalf("ApplyAppend of a valid tuple: %v", err)
	}
	if err := s.ApplyAppend("s", []probtopk.Tuple{{ID: "T3", Score: 3, Prob: 0.9, Group: "g"}}); err == nil {
		t.Fatalf("ApplyAppend accepted group mass > 1")
	}
	// Batches that fail only as a whole (T1+T2 leave g at 0.9).
	for _, bad := range [][]probtopk.Tuple{
		{{ID: "T4", Score: 4, Prob: 0.1}, {ID: "T4", Score: 5, Prob: 0.1}},                           // duplicate id within the batch
		{{ID: "T4", Score: 4, Prob: 0.06, Group: "g"}, {ID: "T5", Score: 5, Prob: 0.06, Group: "g"}}, // group overflows only together
		{{ID: "T4", Score: 4, Prob: 0.1}, {ID: "T5", Score: 5, Prob: 1.5}},                           // last tuple bad
	} {
		if err := s.ApplyAppend("s", bad); err == nil {
			t.Fatalf("ApplyAppend accepted %+v", bad)
		}
	}
	body := mustStatus(t, do(t, s, "GET", "/tables/s", ""), http.StatusOK)
	if !strings.Contains(body, `"tuples":2`) {
		t.Fatalf("failed appends leaked state: %s", body)
	}
	// The failed batches left the ids and group mass they carried free.
	if err := s.ApplyAppend("s", []probtopk.Tuple{{ID: "T4", Score: 4, Prob: 0.06, Group: "g"}, {ID: "T5", Score: 5, Prob: 0.5}}); err != nil {
		t.Fatalf("retried ApplyAppend: %v", err)
	}
	body = mustStatus(t, do(t, s, "GET", "/tables/s", ""), http.StatusOK)
	if !strings.Contains(body, `"tuples":4`) {
		t.Fatalf("retried append: %s", body)
	}
}

// TestReplicationStatsHook checks the /debug/stats replication block is
// absent by default and rendered through the registered hook.
func TestReplicationStatsHook(t *testing.T) {
	s := New(Config{FollowerOf: "leader:9"})
	if st := getStats(t, s); st.Replication != nil {
		t.Fatalf("replication block present with no hook: %+v", st.Replication)
	}
	s.SetReplicationStats(func() *ReplicationJSON {
		return &ReplicationJSON{
			Role: "follower", Leader: "leader:9", Connected: true,
			Shards: []ReplicationShardJSON{{Shard: 0, AppliedRecords: 7, BehindBytes: 42}},
		}
	})
	st := getStats(t, s)
	if st.Replication == nil || st.Replication.Role != "follower" || !st.Replication.Connected {
		t.Fatalf("replication block = %+v", st.Replication)
	}
	if len(st.Replication.Shards) != 1 || st.Replication.Shards[0].BehindBytes != 42 {
		t.Fatalf("shard staleness = %+v", st.Replication.Shards)
	}
	s.SetReplicationStats(nil)
	if st := getStats(t, s); st.Replication != nil {
		t.Fatalf("replication block survived hook removal")
	}
}
