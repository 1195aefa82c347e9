package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"probtopk"
)

// soldierJSON is the paper's running example (Example 1, Figure 1) as an
// upload body; same contents as fixtures.Soldier.
const soldierJSON = `{"tuples": [
	{"id": "T1", "score": 49, "prob": 0.4},
	{"id": "T2", "score": 60, "prob": 0.4, "group": "soldier2"},
	{"id": "T3", "score": 110, "prob": 0.4, "group": "soldier3"},
	{"id": "T4", "score": 80, "prob": 0.3, "group": "soldier2"},
	{"id": "T5", "score": 56, "prob": 1.0},
	{"id": "T6", "score": 58, "prob": 0.5, "group": "soldier3"},
	{"id": "T7", "score": 125, "prob": 0.3, "group": "soldier2"}
]}`

const soldierCSV = `id,score,prob,group
T1,49,0.4,
T2,60,0.4,soldier2
T3,110,0.4,soldier3
T4,80,0.3,soldier2
T5,56,1.0,
T6,58,0.5,soldier3
T7,125,0.3,soldier2
`

// do runs one request directly against the handler.
func do(t *testing.T, s *Server, method, path, body string, header ...string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// mustStatus asserts the response code and returns the body.
func mustStatus(t *testing.T, w *httptest.ResponseRecorder, want int) string {
	t.Helper()
	if w.Code != want {
		t.Fatalf("status = %d, want %d; body: %s", w.Code, want, w.Body.String())
	}
	return w.Body.String()
}

// newSoldierServer returns a server hosting the soldier table as "s".
func newSoldierServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{})
	mustStatus(t, do(t, s, "PUT", "/tables/s", soldierJSON), http.StatusCreated)
	return s
}

func getStats(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	body := mustStatus(t, do(t, s, "GET", "/debug/stats", ""), http.StatusOK)
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats body: %v\n%s", err, body)
	}
	return st
}

func TestUploadQueryLifecycle(t *testing.T) {
	s := New(Config{})

	// CSV upload, then info, list, csv download.
	mustStatus(t, do(t, s, "PUT", "/tables/sold", soldierCSV, "Content-Type", "text/csv"), http.StatusCreated)
	var info TableInfo
	if err := json.Unmarshal([]byte(mustStatus(t, do(t, s, "GET", "/tables/sold", ""), http.StatusOK)), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 7 || info.Name != "sold" {
		t.Fatalf("info = %+v", info)
	}
	var list TablesResponse
	if err := json.Unmarshal([]byte(mustStatus(t, do(t, s, "GET", "/tables", ""), http.StatusOK)), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tables) != 1 || list.Tables[0].Name != "sold" {
		t.Fatalf("list = %+v", list)
	}
	csv := mustStatus(t, do(t, s, "GET", "/tables/sold/csv", ""), http.StatusOK)
	if !strings.HasPrefix(csv, "id,score,prob,group\n") || !strings.Contains(csv, "T7") {
		t.Fatalf("csv download:\n%s", csv)
	}

	// Query: the soldier example's top-2 distribution (paper Figure 3) has
	// mean ≈ 164.1 when computed exactly.
	body := mustStatus(t, do(t, s, "POST", "/tables/sold/topk", `{"k": 2, "exact": true}`), http.StatusOK)
	var dist DistributionResponse
	if err := json.Unmarshal([]byte(body), &dist); err != nil {
		t.Fatal(err)
	}
	if dist.K != 2 || dist.Stats == nil || len(dist.Lines) == 0 {
		t.Fatalf("dist = %+v", dist)
	}
	if diff := dist.Stats.Mean - 164.1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean = %v, want 164.1", dist.Stats.Mean)
	}

	// Typical answer set.
	body = mustStatus(t, do(t, s, "GET", "/tables/sold/typical?k=2&c=3&exact=true", ""), http.StatusOK)
	var typ TypicalResponse
	if err := json.Unmarshal([]byte(body), &typ); err != nil {
		t.Fatal(err)
	}
	if len(typ.Lines) != 3 {
		t.Fatalf("typical = %+v", typ)
	}
	// The paper's 3-typical scores for the soldier example.
	want := []float64{118, 183, 235}
	for i, l := range typ.Lines {
		if l.Score != want[i] {
			t.Fatalf("typical scores = %+v, want %v", typ.Lines, want)
		}
	}

	// Baselines.
	body = mustStatus(t, do(t, s, "GET", "/tables/sold/baseline/utopk?k=2", ""), http.StatusOK)
	var base BaselineResponse
	if err := json.Unmarshal([]byte(body), &base); err != nil {
		t.Fatal(err)
	}
	if base.Line == nil || len(base.Line.Vector) != 2 {
		t.Fatalf("utopk = %+v", base)
	}
	for _, sem := range []string{"ukranks", "globaltopk", "intopk", "expectedrank"} {
		mustStatus(t, do(t, s, "GET", "/tables/sold/baseline/"+sem+"?k=2", ""), http.StatusOK)
	}
	mustStatus(t, do(t, s, "GET", "/tables/sold/baseline/ptk?k=2&p=0.3", ""), http.StatusOK)

	// Batch: two queries in one call.
	body = mustStatus(t, do(t, s, "POST", "/tables/sold/topk/batch",
		`{"queries": [{"k": 1}, {"k": 2, "exact": true}]}`), http.StatusOK)
	var batch BatchResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].K != 1 || batch.Results[1].K != 2 {
		t.Fatalf("batch = %+v", batch)
	}

	// Delete.
	mustStatus(t, do(t, s, "DELETE", "/tables/sold", ""), http.StatusNoContent)
	mustStatus(t, do(t, s, "GET", "/tables/sold", ""), http.StatusNotFound)
}

// TestAnswerCacheHitAndInvalidation is the acceptance check: a repeated
// identical query is a derived-cache hit, and mutation invalidates it.
func TestAnswerCacheHitAndInvalidation(t *testing.T) {
	s := newSoldierServer(t)

	first := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	st := getStats(t, s)
	if st.AnswerCache.Hits != 0 || st.AnswerCache.Misses != 1 || st.AnswerCache.Entries != 1 {
		t.Fatalf("after first query: %+v", st.AnswerCache)
	}
	if st.ComputedQueries.Count != 1 || st.CachedQueries.Count != 0 {
		t.Fatalf("latency counters: %+v", st)
	}

	// The identical query — and every differently-spelled equivalent — hits.
	second := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	if second != first {
		t.Fatalf("cache hit changed the answer:\n%s\nvs\n%s", first, second)
	}
	equivalents := []struct{ method, path, body string }{
		{"GET", "/tables/s/topk?k=2&threshold=0.001", ""}, // explicit default
		{"POST", "/tables/s/topk", `{"k": 2}`},            // JSON spelling
		{"POST", "/tables/s/topk", `{"k": 2, "threshold": 0.001}`},
	}
	for _, eq := range equivalents {
		got := mustStatus(t, do(t, s, eq.method, eq.path, eq.body), http.StatusOK)
		if got != first {
			t.Fatalf("%s %s missed the cache or changed the answer", eq.method, eq.path)
		}
	}
	st = getStats(t, s)
	if st.AnswerCache.Hits != 4 || st.AnswerCache.Misses != 1 {
		t.Fatalf("after equivalent queries: %+v", st.AnswerCache)
	}
	if st.CachedQueries.Count != 4 || st.ComputedQueries.Count != 1 {
		t.Fatalf("latency counters: %+v", st)
	}

	// Mutation invalidates: the same query recomputes against the new
	// contents and the answer actually changes.
	mustStatus(t, do(t, s, "POST", "/tables/s/tuples",
		`{"tuples": [{"id": "T8", "score": 130, "prob": 0.9}]}`), http.StatusOK)
	st = getStats(t, s)
	if st.AnswerCache.Entries != 0 || st.AnswerCache.Invalidations == 0 {
		t.Fatalf("after mutation: %+v", st.AnswerCache)
	}
	third := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	if third == first {
		t.Fatal("mutation did not change the served answer")
	}
	st = getStats(t, s)
	if st.AnswerCache.Misses != 2 || st.ComputedQueries.Count != 2 {
		t.Fatalf("after re-query: %+v", st)
	}

	// Replacing the table also invalidates.
	mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK) // warm
	mustStatus(t, do(t, s, "PUT", "/tables/s", soldierJSON), http.StatusOK)
	if st = getStats(t, s); st.AnswerCache.Entries != 0 {
		t.Fatalf("after replace: %+v", st.AnswerCache)
	}
	fourth := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	if fourth != first {
		t.Fatal("replaced table should serve the original answer again")
	}
}

func TestAnswerCacheDisabled(t *testing.T) {
	s := New(Config{AnswerCacheSize: -1})
	mustStatus(t, do(t, s, "PUT", "/tables/s", soldierJSON), http.StatusCreated)
	mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	st := getStats(t, s)
	if st.AnswerCache.Hits != 0 || st.AnswerCache.Entries != 0 {
		t.Fatalf("disabled cache: %+v", st.AnswerCache)
	}
	if st.ComputedQueries.Count != 2 {
		t.Fatalf("latency counters: %+v", st)
	}
}

// TestEndpointErrors is the endpoint × error-case matrix: missing tables,
// bad and oversized k, sentinel misuse, malformed bodies. Every error body
// must be the uniform JSON envelope and must not leak process internals.
func TestEndpointErrors(t *testing.T) {
	s := newSoldierServer(t)
	cases := []struct {
		name         string
		method, path string
		body         string
		want         int
	}{
		// Missing table, on every endpoint that takes one.
		{"topk missing table", "GET", "/tables/none/topk?k=2", "", 404},
		{"topk post missing table", "POST", "/tables/none/topk", `{"k": 2}`, 404},
		{"batch missing table", "POST", "/tables/none/topk/batch", `{"queries": [{"k": 1}]}`, 404},
		{"typical missing table", "GET", "/tables/none/typical?k=2&c=1", "", 404},
		{"baseline missing table", "GET", "/tables/none/baseline/utopk?k=2", "", 404},
		{"info missing table", "GET", "/tables/none", "", 404},
		{"csv missing table", "GET", "/tables/none/csv", "", 404},
		{"delete missing table", "DELETE", "/tables/none", "", 404},
		{"append missing table", "POST", "/tables/none/tuples", `{"tuples": [{"id": "x", "score": 1, "prob": 0.5}]}`, 404},

		// Bad k.
		{"k missing", "GET", "/tables/s/topk", "", 400},
		{"k zero", "GET", "/tables/s/topk?k=0", "", 400},
		{"k negative", "POST", "/tables/s/topk", `{"k": -3}`, 400},
		{"k not a number", "GET", "/tables/s/topk?k=two", "", 400},
		{"typical k zero", "GET", "/tables/s/typical?k=0&c=1", "", 400},
		{"baseline k zero", "GET", "/tables/s/baseline/utopk?k=0", "", 400},

		// k > n: distributions answer with zero mass (200, asserted
		// below); semantics that require k co-existing tuples are 422.
		{"typical k>n", "GET", "/tables/s/typical?k=9&c=2", "", 422},
		{"utopk k>n", "GET", "/tables/s/baseline/utopk?k=9", "", 422},
		{"globaltopk k>n", "GET", "/tables/s/baseline/globaltopk?k=9", "", 422},
		{"expectedrank k>n", "GET", "/tables/s/baseline/expectedrank?k=9", "", 422},

		// Options sentinel misuse and unknown knobs.
		{"exact+threshold conflict", "POST", "/tables/s/topk", `{"k": 2, "exact": true, "threshold": 0.01}`, 400},
		{"exact+maxLines conflict", "POST", "/tables/s/topk", `{"k": 2, "exact": true, "maxLines": 10}`, 400},
		{"unknown algorithm", "GET", "/tables/s/topk?k=2&algorithm=quantum", "", 400},
		{"unknown parameter", "GET", "/tables/s/topk?k=2&kk=3", "", 400},
		{"unknown JSON field", "POST", "/tables/s/topk", `{"k": 2, "kk": 3}`, 400},
		{"trailing JSON", "POST", "/tables/s/topk", `{"k": 2}{"k": 3}`, 400},
		{"empty body", "POST", "/tables/s/topk", "", 400},
		{"c on topk", "GET", "/tables/s/topk?k=2&c=3", "", 400},
		{"queries on topk", "POST", "/tables/s/topk", `{"k": 2, "queries": [{"k": 1}]}`, 400},
		{"p on topk", "GET", "/tables/s/topk?k=2&p=0.5", "", 400},

		// Typical.
		{"typical c missing", "GET", "/tables/s/typical?k=2", "", 400},
		{"typical c zero", "GET", "/tables/s/typical?k=2&c=0", "", 400},

		// Batch.
		{"batch empty", "POST", "/tables/s/topk/batch", `{"queries": []}`, 400},
		{"batch no body", "POST", "/tables/s/topk/batch", "", 400},
		{"batch member k zero", "POST", "/tables/s/topk/batch", `{"queries": [{"k": 0}]}`, 400},
		{"batch top-level k", "POST", "/tables/s/topk/batch", `{"k": 2, "queries": [{"k": 1}]}`, 400},
		{"batch top-level threshold", "POST", "/tables/s/topk/batch", `{"threshold": 0.5, "queries": [{"k": 1}]}`, 400},
		{"batch top-level exact", "POST", "/tables/s/topk/batch", `{"exact": true, "queries": [{"k": 1}]}`, 400},
		{"batch non-main algorithm", "POST", "/tables/s/topk/batch", `{"algorithm": "state-expansion", "queries": [{"k": 1}]}`, 400},

		// Baselines.
		{"unknown baseline", "GET", "/tables/s/baseline/fancy?k=2", "", 400},
		{"ptk missing p", "GET", "/tables/s/baseline/ptk?k=2", "", 400},
		{"ptk p out of range", "GET", "/tables/s/baseline/ptk?k=2&p=1.5", "", 400},
		{"baseline with threshold", "GET", "/tables/s/baseline/utopk?k=2&threshold=0.1", "", 400},

		// Uploads and mutations.
		{"put bad name", "PUT", "/tables/bad%2Fname", soldierJSON, 400},
		{"put bad csv", "PUT", "/tables/x", "id,score\n1,2\n", 400},
		{"put csv bad prob", "PUT", "/tables/x", "id,score,prob,group\na,1,1.5,\n", 400},
		{"put duplicate ids", "PUT", "/tables/x", `{"tuples": [{"id": "a", "score": 1, "prob": 0.5}, {"id": "a", "score": 2, "prob": 0.5}]}`, 400},
		{"put group mass > 1", "PUT", "/tables/x", `{"tuples": [{"id": "a", "score": 1, "prob": 0.7, "group": "g"}, {"id": "b", "score": 2, "prob": 0.7, "group": "g"}]}`, 400},
		{"put bad json", "PUT", "/tables/x", `{"tuples": [`, 400},
		{"put unknown field", "PUT", "/tables/x", `{"rows": []}`, 400},
		{"put trailing data", "PUT", "/tables/x", `{"tuples": []}{"tuples": []}`, 400},
		{"append trailing data", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T9", "score": 1, "prob": 0.5}]}extra`, 400},
		{"append empty", "POST", "/tables/s/tuples", `{"tuples": []}`, 400},
		{"append duplicate of existing", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T1", "score": 1, "prob": 0.5}]}`, 400},
		{"append bad prob", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T9", "score": 1, "prob": 7}]}`, 400},
		{"append overflowing group", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T9", "score": 1, "prob": 0.9, "group": "soldier2"}]}`, 400},
		{"append duplicate within batch", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T9", "score": 1, "prob": 0.5}, {"id": "T9", "score": 2, "prob": 0.5}]}`, 400},
		{"append overflowing group together", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T9", "score": 1, "prob": 0.06, "group": "soldier3"}, {"id": "T10", "score": 2, "prob": 0.06, "group": "soldier3"}]}`, 400},
		{"append bad last tuple", "POST", "/tables/s/tuples", `{"tuples": [{"id": "T9", "score": 1, "prob": 0.5}, {"id": "T10", "score": 2, "prob": 0}]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hdr []string
			if strings.HasPrefix(tc.body, "id,score") {
				hdr = []string{"Content-Type", "text/csv"}
			}
			w := do(t, s, tc.method, tc.path, tc.body, hdr...)
			body := mustStatus(t, w, tc.want)
			var e ErrorResponse
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Fatalf("error body is not the JSON envelope: %s", body)
			}
			for _, leak := range []string{"/root", "/home", "/usr", ".go:", "goroutine"} {
				if strings.Contains(e.Error, leak) {
					t.Fatalf("error body leaks %q: %s", leak, e.Error)
				}
			}
		})
	}

	// Failed mutations must not have changed the table.
	var info TableInfo
	if err := json.Unmarshal([]byte(mustStatus(t, do(t, s, "GET", "/tables/s", ""), http.StatusOK)), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 7 {
		t.Fatalf("table mutated by failed requests: %+v", info)
	}
	// ...nor the append state: the ids and group mass the failed batches
	// carried are still free.
	retry := `{"tuples": [{"id": "T9", "score": 1, "prob": 0.06, "group": "soldier3"}, {"id": "T10", "score": 2, "prob": 0.5}]}`
	if err := json.Unmarshal([]byte(mustStatus(t, do(t, s, "POST", "/tables/s/tuples", retry), http.StatusOK)), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 9 {
		t.Fatalf("retried append: %+v", info)
	}
}

// TestKLargerThanNDistribution: k beyond any possible world is not an error
// for the distribution itself — it is the zero-mass distribution.
func TestKLargerThanNDistribution(t *testing.T) {
	s := newSoldierServer(t)
	body := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=9", ""), http.StatusOK)
	var dist DistributionResponse
	if err := json.Unmarshal([]byte(body), &dist); err != nil {
		t.Fatal(err)
	}
	if dist.TotalMass != 0 || len(dist.Lines) != 0 || dist.Stats != nil {
		t.Fatalf("k>n dist = %+v", dist)
	}
}

// TestBatchDuplicateQueries: duplicates within a batch are answered
// independently and identically.
func TestBatchDuplicateQueries(t *testing.T) {
	s := newSoldierServer(t)
	body := mustStatus(t, do(t, s, "POST", "/tables/s/topk/batch",
		`{"queries": [{"k": 2}, {"k": 1}, {"k": 2}]}`), http.StatusOK)
	var batch BatchResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("results = %d", len(batch.Results))
	}
	a, _ := json.Marshal(batch.Results[0])
	b, _ := json.Marshal(batch.Results[2])
	if string(a) != string(b) {
		t.Fatalf("duplicate batch queries disagree:\n%s\nvs\n%s", a, b)
	}
	if batch.Results[1].K != 1 {
		t.Fatalf("middle result = %+v", batch.Results[1])
	}
}

// TestAlgorithmsAgreeOverHTTP: the three §3 algorithms serve the same exact
// answer (and are cached under distinct fingerprints).
func TestAlgorithmsAgreeOverHTTP(t *testing.T) {
	s := newSoldierServer(t)
	get := func(alg string) DistributionResponse {
		t.Helper()
		body := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2&exact=true&algorithm="+alg, ""), http.StatusOK)
		var d DistributionResponse
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	main, se, kc := get("main"), get("state-expansion"), get("k-combo")
	for _, other := range []DistributionResponse{se, kc} {
		if len(main.Lines) != len(other.Lines) {
			t.Fatalf("line counts differ: %d vs %d", len(main.Lines), len(other.Lines))
		}
		for i := range main.Lines {
			if d := main.Lines[i].Prob - other.Lines[i].Prob; d > 1e-12 || d < -1e-12 {
				t.Fatalf("line %d prob differs: %v vs %v", i, main.Lines[i].Prob, other.Lines[i].Prob)
			}
			if main.Lines[i].Score != other.Lines[i].Score {
				t.Fatalf("line %d score differs", i)
			}
		}
	}
	if st := getStats(t, s); st.AnswerCache.Entries != 3 {
		t.Fatalf("expected 3 distinct cache entries, got %+v", st.AnswerCache)
	}
}

// TestDeleteRecreateServesFreshAnswers: a recreated table with the same
// name, tuple count and version (Version just counts Adds) must never be
// served answers derived from its predecessor — the answer cache keys on a
// never-reused generation, not the reusable version.
func TestDeleteRecreateServesFreshAnswers(t *testing.T) {
	s := New(Config{})
	mustStatus(t, do(t, s, "PUT", "/tables/r",
		`{"tuples": [{"id": "a", "score": 10, "prob": 0.5}, {"id": "b", "score": 5, "prob": 0.5}]}`),
		http.StatusCreated)
	first := mustStatus(t, do(t, s, "GET", "/tables/r/topk?k=1", ""), http.StatusOK)
	mustStatus(t, do(t, s, "DELETE", "/tables/r", ""), http.StatusNoContent)
	// Same tuple count → same Table.Version, different contents.
	mustStatus(t, do(t, s, "PUT", "/tables/r",
		`{"tuples": [{"id": "a", "score": 99, "prob": 0.5}, {"id": "b", "score": 5, "prob": 0.5}]}`),
		http.StatusCreated)
	second := mustStatus(t, do(t, s, "GET", "/tables/r/topk?k=1", ""), http.StatusOK)
	if first == second {
		t.Fatal("recreated table served its predecessor's answer")
	}
	var dist DistributionResponse
	if err := json.Unmarshal([]byte(second), &dist); err != nil {
		t.Fatal(err)
	}
	if dist.Stats == nil || dist.Stats.Max != 99 {
		t.Fatalf("recreated answer = %+v", dist)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	body := mustStatus(t, do(t, s, "GET", "/healthz", ""), http.StatusOK)
	if !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %s", body)
	}
}

func TestTableNameValidation(t *testing.T) {
	for _, name := range []string{"ok-1", "A.b_c"} {
		if err := checkTableName(name); err != nil {
			t.Fatalf("%q rejected: %v", name, err)
		}
	}
	long := strings.Repeat("x", maxTableNameLen+1)
	for _, name := range []string{"", "sp ace", "sl/ash", "uni\x00de", long} {
		if err := checkTableName(name); err == nil {
			t.Fatalf("%q accepted", name)
		}
	}
}

// TestNormalizeAndWeightedKnobs: the optional knobs round-trip and change
// the answer as documented.
func TestNormalizeAndWeightedKnobs(t *testing.T) {
	s := newSoldierServer(t)
	body := mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2&normalize=true", ""), http.StatusOK)
	var dist DistributionResponse
	if err := json.Unmarshal([]byte(body), &dist); err != nil {
		t.Fatal(err)
	}
	if d := dist.TotalMass - 1; d > 1e-9 || d < -1e-9 {
		t.Fatalf("normalized mass = %v", dist.TotalMass)
	}
	mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2&weightedCoalesce=true&maxLines=4", ""), http.StatusOK)
}

func TestStatsShapeIsStable(t *testing.T) {
	s := newSoldierServer(t)
	mustStatus(t, do(t, s, "GET", "/tables/s/topk?k=2", ""), http.StatusOK)
	st := getStats(t, s)
	if st.Tables != 1 {
		t.Fatalf("tables = %d", st.Tables)
	}
	if st.DynamicIndex.Mutations == 0 {
		t.Fatalf("dynamic-index counters not plumbed: %+v", st.DynamicIndex)
	}
	if st.EngineQueries.Count == 0 || st.EngineQueries.TotalNs == 0 {
		t.Fatalf("engine query counters not plumbed: %+v", st.EngineQueries)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", st.UptimeSeconds)
	}
}

func ExampleServer() {
	s := New(Config{})
	w := httptest.NewRecorder()
	req := httptest.NewRequest("PUT", "/tables/demo",
		strings.NewReader(`{"tuples": [{"id": "a", "score": 10, "prob": 0.9}, {"id": "b", "score": 8, "prob": 0.5}]}`))
	s.ServeHTTP(w, req)
	fmt.Println(w.Code)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/tables/demo/topk?k=1", nil))
	fmt.Println(w.Code)
	// Output:
	// 201
	// 200
}

// TestAppendReusesDynamicIndex exercises the mutate path's dynamic-index
// wiring: every published snapshot carries a frozen index view, appends
// extend the table's live index instead of abandoning the prepared order,
// the engine prepares post-append snapshots from the view, and the answers
// stay byte-identical to a table uploaded whole.
func TestAppendReusesDynamicIndex(t *testing.T) {
	s := newSoldierServer(t)
	st, ok := s.reg.load("s")
	if !ok || st.snap.IndexView() == nil {
		t.Fatal("published snapshot must carry the dynamic-index view")
	}
	before := getStats(t, s).DynamicIndex

	query := `{"k": 2, "exact": true}`
	mustStatus(t, do(t, s, "POST", "/tables/s/topk", query), http.StatusOK)

	appendBody := `{"tuples": [
		{"id": "T8", "score": 90, "prob": 0.5},
		{"id": "T9", "score": 10, "prob": 0.09, "group": "soldier3"}
	]}`
	mustStatus(t, do(t, s, "POST", "/tables/s/tuples", appendBody), http.StatusOK)
	st2, ok := s.reg.load("s")
	if !ok || st2.snap.IndexView() == nil {
		t.Fatal("post-append snapshot must carry the dynamic-index view")
	}
	if st2.snap.IndexView() == st.snap.IndexView() {
		t.Fatal("append must freeze a fresh view")
	}
	got := mustStatus(t, do(t, s, "POST", "/tables/s/topk", query), http.StatusOK)

	after := getStats(t, s).DynamicIndex
	if d := after.Mutations - before.Mutations; d < 2 {
		t.Fatalf("append of 2 tuples recorded %d index mutations", d)
	}
	if after.ViewPrepares <= before.ViewPrepares {
		t.Fatalf("queries must prepare through the snapshot's index view: %+v -> %+v", before, after)
	}
	if after.ViewRebuilds <= before.ViewRebuilds {
		t.Fatalf("expected at least one view materialization: %+v -> %+v", before, after)
	}

	// Oracle: the same 9 tuples uploaded in one shot answer identically.
	oracle := New(Config{})
	all := `{"tuples": [
		{"id": "T1", "score": 49, "prob": 0.4},
		{"id": "T2", "score": 60, "prob": 0.4, "group": "soldier2"},
		{"id": "T3", "score": 110, "prob": 0.4, "group": "soldier3"},
		{"id": "T4", "score": 80, "prob": 0.3, "group": "soldier2"},
		{"id": "T5", "score": 56, "prob": 1.0},
		{"id": "T6", "score": 58, "prob": 0.5, "group": "soldier3"},
		{"id": "T7", "score": 125, "prob": 0.3, "group": "soldier2"},
		{"id": "T8", "score": 90, "prob": 0.5},
		{"id": "T9", "score": 10, "prob": 0.09, "group": "soldier3"}
	]}`
	mustStatus(t, do(t, oracle, "PUT", "/tables/s", all), http.StatusCreated)
	want := mustStatus(t, do(t, oracle, "POST", "/tables/s/topk", query), http.StatusOK)
	if got != want {
		t.Fatalf("append-path answer differs from whole-upload answer:\n%s\nvs\n%s", got, want)
	}
}

// TestThresholdedReadAfterAppendScansPrefix: after an append, thresholded
// /topk, /topk/batch and /typical reads prepare only the rank prefix their
// Theorem-2 scans reach (the prefixBuilds counter moves), and answer
// byte-identically to the same queries over the whole prepared form of a
// snapshot without an index view.
func TestThresholdedReadAfterAppendScansPrefix(t *testing.T) {
	var tuples []probtopk.Tuple
	var body strings.Builder
	body.WriteString(`{"tuples": [`)
	for i := 0; i < 300; i++ {
		tp := probtopk.Tuple{ID: fmt.Sprintf("t%d", i), Score: float64(i % 40), Prob: []float64{1, 0.5, 0.3}[i%3]}
		if i%7 == 0 {
			// Groups of mass exactly 1 whose two members rank far apart.
			tp.Group, tp.Prob = fmt.Sprintf("g%d", i/28), 0.25
		}
		tuples = append(tuples, tp)
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"id": %q, "score": %v, "prob": %v, "group": %q}`, tp.ID, tp.Score, tp.Prob, tp.Group)
	}
	body.WriteString("]}")
	s := New(Config{})
	mustStatus(t, do(t, s, "PUT", "/tables/big", body.String()), http.StatusCreated)
	extra := probtopk.Tuple{ID: "new", Score: 39, Prob: 0.5}
	mustStatus(t, do(t, s, "POST", "/tables/big/tuples", `{"tuples": [{"id": "new", "score": 39, "prob": 0.5}]}`), http.StatusOK)
	tuples = append(tuples, extra)

	// Each read's scan reaches deeper than the last, so none can reuse the
	// previous read's memoized prefix.
	for _, tc := range []struct {
		kind queryKind
		path string
		body string
	}{
		{kindTopK, "/tables/big/topk", `{"k": 3, "threshold": 0.01}`},
		{kindTypical, "/tables/big/typical", `{"k": 4, "c": 3, "threshold": 0.002}`},
		{kindBatch, "/tables/big/topk/batch", `{"queries": [{"k": 1, "threshold": 0.05}, {"k": 6, "threshold": 0.001}]}`},
	} {
		before := getStats(t, s).DynamicIndex.PrefixBuilds
		got := mustStatus(t, do(t, s, "POST", tc.path, tc.body), http.StatusOK)
		if after := getStats(t, s).DynamicIndex.PrefixBuilds; after <= before {
			t.Fatalf("%s: read did not build a prefix (prefixBuilds %d -> %d)", tc.path, before, after)
		}
		q, err := decodeQueryJSON([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		rq, err := q.resolve(tc.kind, "")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.compute(probtopk.NewSnapshot(tuples), rq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(got) != string(want) {
			t.Fatalf("%s: prefix answer differs from the whole form's:\n%s\nvs\n%s", tc.path, got, want)
		}
	}
}
