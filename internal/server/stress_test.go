package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probtopk"
	"probtopk/internal/synth"
)

// TestServerConcurrentMutateQuery hammers one server from many goroutines:
// writers append tuples and replace/drop tables while readers run every
// query endpoint, with private Streams pushing through the shared engine
// pools at the same time. Run under -race (CI does), this is the
// concurrency contract check for the registry locks, the answer cache and
// the engine.
func TestServerConcurrentMutateQuery(t *testing.T) {
	s := New(Config{AnswerCacheSize: 64})
	tables := []string{"alpha", "beta", "gamma"}
	for _, name := range tables {
		mustStatus(t, do(t, s, "PUT", "/tables/"+name, soldierJSON), http.StatusCreated)
	}

	// iters stays divisible by len(tables) so every table receives the same
	// number of appends (asserted at the end).
	iters := 120
	if testing.Short() {
		iters = 24
	}
	// Allowed statuses: 404/409-free by construction, but queries race with
	// deletes and appends, so "no table" and "unanswerable" are legitimate.
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusCreated: true, http.StatusNoContent: true,
		http.StatusNotFound: true, http.StatusUnprocessableEntity: true,
	}
	var unexpected atomic.Int64
	check := func(w *httptest.ResponseRecorder, what string) {
		if !allowed[w.Code] {
			unexpected.Add(1)
			t.Errorf("%s: status %d: %s", what, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
			if !json.Valid(w.Body.Bytes()) {
				unexpected.Add(1)
				t.Errorf("%s: invalid JSON body: %s", what, w.Body.String())
			}
		}
	}

	var wg sync.WaitGroup
	run := func(fn func(w int)) {
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w)
			}(w)
		}
	}

	// Appenders: grow each table with fresh independent tuples.
	run(func(worker int) {
		for i := 0; i < iters; i++ {
			name := tables[i%len(tables)]
			body := fmt.Sprintf(`{"tuples": [{"id": "w%d-%d", "score": %d, "prob": 0.5}]}`,
				worker, i, 10+i%90)
			check(do(t, s, "POST", "/tables/"+name+"/tuples", body), "append")
		}
	})
	// Query mix across every endpoint.
	run(func(worker int) {
		for i := 0; i < iters; i++ {
			name := tables[(worker+i)%len(tables)]
			switch i % 6 {
			case 0:
				check(do(t, s, "GET", "/tables/"+name+"/topk?k=2", ""), "topk")
			case 1:
				check(do(t, s, "POST", "/tables/"+name+"/topk/batch",
					`{"queries": [{"k": 1}, {"k": 2}, {"k": 3}]}`), "batch")
			case 2:
				check(do(t, s, "GET", "/tables/"+name+"/typical?k=2&c=2", ""), "typical")
			case 3:
				check(do(t, s, "GET", "/tables/"+name+"/baseline/utopk?k=2", ""), "utopk")
			case 4:
				check(do(t, s, "GET", "/tables/"+name+"/baseline/ptk?k=2&p=0.2", ""), "ptk")
			default:
				check(do(t, s, "GET", "/tables/"+name+"/baseline/expectedrank?k=2", ""), "expectedrank")
			}
		}
	})
	// Admin churn: list, stats, csv download, create/replace/drop scratch
	// tables.
	run(func(worker int) {
		scratch := fmt.Sprintf("scratch-%d", worker)
		for i := 0; i < iters; i++ {
			switch i % 5 {
			case 0:
				check(do(t, s, "GET", "/tables", ""), "list")
			case 1:
				check(do(t, s, "GET", "/debug/stats", ""), "stats")
			case 2:
				check(do(t, s, "PUT", "/tables/"+scratch, soldierJSON), "put scratch")
			case 3:
				check(do(t, s, "GET", "/tables/"+scratch+"/topk?k=1", ""), "query scratch")
			default:
				check(do(t, s, "DELETE", "/tables/"+scratch, ""), "delete scratch")
			}
		}
	})
	// Streams: each goroutine owns a private window (Streams are
	// single-owner by contract) pushing and querying through the same
	// process-wide scratch pools the server uses.
	run(func(worker int) {
		st, err := probtopk.NewStream(16)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < iters; i++ {
			if _, err := st.Push(probtopk.Tuple{
				ID: fmt.Sprintf("s%d-%d", worker, i), Score: float64(i % 50), Prob: 0.5,
			}); err != nil {
				t.Errorf("stream push: %v", err)
				return
			}
			if i%4 == 3 {
				if _, err := st.TopKDistribution(2, nil); err != nil {
					t.Errorf("stream query: %v", err)
					return
				}
			}
		}
	})
	wg.Wait()

	if unexpected.Load() != 0 {
		t.Fatalf("%d unexpected responses", unexpected.Load())
	}
	// The survivors must still serve consistent answers: version equals
	// tuple count history and a fresh query matches a recomputation.
	for _, name := range tables {
		var info TableInfo
		if err := json.Unmarshal([]byte(mustStatus(t, do(t, s, "GET", "/tables/"+name, ""), http.StatusOK)), &info); err != nil {
			t.Fatal(err)
		}
		// 3 appender workers each spread iters appends round-robin over
		// the tables, so each table gains exactly iters tuples.
		if info.Tuples != 7+iters {
			t.Fatalf("%s: %d tuples, want %d", name, info.Tuples, 7+iters)
		}
		first := mustStatus(t, do(t, s, "GET", "/tables/"+name+"/topk?k=3", ""), http.StatusOK)
		again := mustStatus(t, do(t, s, "GET", "/tables/"+name+"/topk?k=3", ""), http.StatusOK)
		if first != again {
			t.Fatalf("%s: unstable answer after stress", name)
		}
	}
}

// TestAppendsDoNotWaitForSlowQueries is the lock-free-read latency
// assertion, not just an absence-of-races check: appends issued while
// deliberately slow queries are in flight on the SAME table must complete
// without waiting for them. Under the old per-table RWMutex a writer waited
// for the in-flight reader's whole dynamic program; with snapshot
// publication an append only swaps an atomic pointer, so its latency is
// decoupled from query cost by orders of magnitude. The assertion is
// deliberately loose (a third of one query) to stay robust on slow or
// race-instrumented machines while still failing hard if appends ever
// queue behind queries again.
func TestAppendsDoNotWaitForSlowQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	// Answer cache disabled so every query runs the full dynamic program.
	s := New(Config{AnswerCacheSize: -1})
	tab, err := synth.Generate(synth.Config{N: 500, Seed: 5}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var tuples []TupleJSON
	for _, tp := range tab.Tuples() {
		tuples = append(tuples, TupleJSON{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group})
	}
	body, err := json.Marshal(TableRequest{Tuples: tuples})
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, do(t, s, "PUT", "/tables/big", string(body)), http.StatusCreated)

	// Calibrate a query slow enough to dwarf any honest append: double k
	// until one uncontended run takes at least minSlow. The shared-row
	// sweep answers k=60 on this table in well under minSlow, so the
	// ladder runs on to k=320 (about 1s uncontended on one core).
	const minSlow = 200 * time.Millisecond
	var (
		query string
		slow  time.Duration
	)
	for _, k := range []int{10, 20, 40, 80, 160, 320} {
		query = fmt.Sprintf("/tables/big/topk?k=%d", k)
		start := time.Now()
		mustStatus(t, do(t, s, "GET", query, ""), http.StatusOK)
		if slow = time.Since(start); slow >= minSlow {
			break
		}
	}
	if slow < minSlow {
		t.Skipf("machine too fast to build a slow query (best %v)", slow)
	}
	t.Logf("slow query %s takes %v uncontended", query, slow)

	// Keep slow queries continuously in flight on the same table.
	stop := make(chan struct{})
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inflight.Add(1)
				w := do(t, s, "GET", query, "")
				inflight.Add(-1)
				if w.Code != http.StatusOK {
					t.Errorf("background query: status %d", w.Code)
					return
				}
			}
		}()
	}
	for inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Give the in-flight query time to be deep inside its computation.
	time.Sleep(20 * time.Millisecond)

	var maxAppend time.Duration
	for i := 0; i < 20; i++ {
		b := fmt.Sprintf(`{"tuples": [{"id": "fast%d", "score": 50.5, "prob": 0.5}]}`, i)
		start := time.Now()
		mustStatus(t, do(t, s, "POST", "/tables/big/tuples", b), http.StatusOK)
		if d := time.Since(start); d > maxAppend {
			maxAppend = d
		}
	}
	stillRunning := inflight.Load() > 0
	close(stop)
	wg.Wait()

	t.Logf("max append latency under slow queries: %v (query in flight at end: %v)", maxAppend, stillRunning)
	if maxAppend > slow/3 {
		t.Fatalf("append took %v while a %v query was in flight — appends are waiting on queries", maxAppend, slow)
	}
}
