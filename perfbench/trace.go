package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"probtopk/internal/baselines"
	"probtopk/internal/core"
	"probtopk/internal/engine"
	"probtopk/internal/persist"
	"probtopk/internal/server"
	"probtopk/internal/server/anscache"
	"probtopk/internal/server/fairness"
	"probtopk/internal/typical"
	"probtopk/internal/uncertain"
	"probtopk/perfbench/check"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that made the call (0 for a request's root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. The traced run is
// single-threaded, so the open spans form a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans
	req   int
}

func (tr *tracer) begin(name string) int {
	parent := 0
	if n := len(tr.open); n > 0 {
		parent = tr.spans[tr.open[n-1]].ID
	}
	tr.spans = append(tr.spans, span{Name: name, ID: len(tr.spans) + 1, Parent: parent, Req: tr.req, Start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, len(tr.spans)-1)
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) time.Duration {
	tr.spans[i].End = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
	return time.Duration(tr.spans[i].End - tr.spans[i].Start)
}

// do runs f inside a span and returns its duration.
func (tr *tracer) do(name string, f func()) time.Duration {
	i := tr.begin(name)
	f()
	return tr.end(i)
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tableCopy is the re-enactment's copy of one served table: the same
// table, snapshot and dynamic index the server's registry holds.
type tableCopy struct {
	tab  *uncertain.Table
	snap *uncertain.Snapshot
	idx  *uncertain.Index
}

// inproc serves requests through Server.ServeHTTP in this process, and
// after each successful one re-enacts it by calling the layers' exported
// functions in the handler's order, each call in a span. The re-enactment
// runs against its own instances of every layer (answer cache, throttler,
// engine, tables, durable manager), built with the daemon's defaults and
// fed the same requests, so it does the same work the handler did.
type inproc struct {
	srv *server.Server
	tr  *tracer

	cache   *anscache.Cache
	thr     *fairness.Throttler
	eng     *engine.Engine
	man     *persist.Manager
	tables  map[string]*tableCopy
	scratch *core.Scratch

	// counters gathered by the re-enactment
	queries, appended int
	dpSum             dpTotals
	materialize       uncertain.IndexStats
	responseBytes     int
}

// dpTotals sums the work counters of the main algorithm's calls.
type dpTotals struct {
	calls                      int
	cells, units, depth, lines int
	allocBytes, gcCycles       uint64
}

// shards is topkd's default shard count.
func shards() int { return min(runtime.GOMAXPROCS(0), persist.MaxShards) }

const traceClient = "perfbench"

func (p *inproc) send(o *op) (int, []byte, error) {
	method, path, ctype, body := o.request()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set(fairness.ClientHeader, traceClient)
	rec := httptest.NewRecorder()
	p.tr.req++
	name := "server.other"
	switch {
	case o.isQuery():
		name = "server.query"
	case o.kind == "append":
		name = "server.append"
	}
	p.tr.do(name, func() { p.srv.ServeHTTP(rec, req) })
	data := rec.Body.Bytes()
	if rec.Code >= 200 && rec.Code < 300 {
		if err := p.reenact(o, data); err != nil {
			return rec.Code, data, fmt.Errorf("re-enacting %s %s: %w", o.kind, o.table, err)
		}
	}
	return rec.Code, data, nil
}

// reenact replays one served request layer by layer.
func (p *inproc) reenact(o *op, body []byte) error {
	switch {
	case o.kind == "put":
		return p.put(o)
	case o.kind == "append":
		return p.append(o)
	case o.isQuery():
		return p.query(o, body)
	}
	return nil
}

func toUncertain(tuples []check.Tuple) []uncertain.Tuple {
	out := make([]uncertain.Tuple, len(tuples))
	for i, tp := range tuples {
		out[i] = uncertain.Tuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group}
	}
	return out
}

// put installs a table like the registry does (outside the timed phase).
func (p *inproc) put(o *op) error {
	tab := uncertain.NewTable()
	for _, tp := range toUncertain(o.tuples) {
		tab.Add(tp)
	}
	if err := tab.Validate(); err != nil {
		return err
	}
	if p.man != nil {
		if err := p.man.LogPut(o.table, tab.Tuples()); err != nil {
			return err
		}
	}
	idx, err := uncertain.NewIndexOf(tab.Tuples())
	if err != nil {
		return err
	}
	snap := tab.Snapshot()
	snap.SetIndexView(idx.Freeze())
	p.tables[o.table] = &tableCopy{tab: tab, snap: snap, idx: idx}
	p.cache.InvalidateTable(o.table)
	return nil
}

// append re-enacts handleAppendTuples: clone and re-validate the table
// with the id map, log to the WAL, insert into the dynamic index, freeze
// and publish, invalidate, and checkpoint when one is due.
func (p *inproc) append(o *op) error {
	tc := p.tables[o.table]
	tuples := toUncertain(o.tuples)
	root := p.tr.begin("reenact.append")
	var candidate *uncertain.Table
	var err error
	p.tr.do("uncertain.clone_validate", func() {
		candidate = tc.tab.Clone()
		for _, tp := range tuples {
			candidate.Add(tp)
		}
		if err = candidate.Validate(); err != nil {
			return
		}
		seen := make(map[string]bool, candidate.Len())
		for _, tp := range candidate.Tuples() {
			if seen[tp.ID] {
				err = fmt.Errorf("duplicate tuple id %q", tp.ID)
				return
			}
			seen[tp.ID] = true
		}
	})
	if err == nil {
		p.tr.do("wal.append", func() { err = p.man.LogAppend(o.table, tuples) })
	}
	if err != nil {
		p.tr.end(root)
		return err
	}
	snap := candidate.Snapshot()
	for _, tp := range tuples {
		p.tr.do("uncertain.insert", func() { _, err = tc.idx.Insert(tp) })
		if err != nil {
			p.tr.end(root)
			return err
		}
	}
	p.tr.do("uncertain.freeze", func() { snap.SetIndexView(tc.idx.Freeze()) })
	old := tc.tab
	tc.tab, tc.snap = candidate, snap
	p.cache.InvalidateTable(o.table)
	p.eng.Invalidate(old)
	if p.man.CheckpointDue() {
		states := map[string]*uncertain.Snapshot{}
		for name, t := range p.tables {
			states[name] = t.snap
		}
		p.tr.do("persist.checkpoint", func() { err = p.man.Checkpoint(states) })
	}
	p.tr.end(root)
	p.appended += len(tuples)
	return err
}

// coreParams resolves a query's wire parameters the way the server does.
func coreParams(k int, threshold float64, exact bool, maxLines int) core.Params {
	params := core.Params{K: k, TrackVectors: true, Threshold: threshold, MaxLines: maxLines}
	switch {
	case exact || threshold < 0:
		params.Threshold = 0
	case threshold == 0:
		params.Threshold = 0.001
	}
	switch {
	case exact || maxLines < 0:
		params.MaxLines = 0
	case maxLines == 0:
		params.MaxLines = 200
	}
	return params
}

// fingerprint is the re-enactment's answer-cache key for o.
func fingerprint(o *op) string {
	return fmt.Sprintf("%s/%s k=%d c=%d thr=%g exact=%t lines=%d alg=%s norm=%t p=%g m=%v",
		o.kind, o.semantic, o.k, o.c, o.threshold, o.exact, o.maxLines, o.algorithm, o.normalize, o.p, o.members)
}

// query re-enacts serveQuery and computeAndFill: admission, answer cache,
// compute gate, preparation, the computation, encoding and the cache fill.
func (p *inproc) query(o *op, body []byte) error {
	tc := p.tables[o.table]
	p.queries++
	p.responseBytes += len(body)
	root := p.tr.begin("reenact.query")
	defer p.tr.end(root)
	p.tr.do("fairness.decide", func() { p.thr.Decide(traceClient) })
	key := anscache.Key{Table: o.table, Snapshot: tc.snap.ID(), Query: fingerprint(o)}
	var hit bool
	p.tr.do("anscache.get", func() { _, hit = p.cache.Get(key) })
	if hit {
		return nil
	}
	var release func()
	var ok bool
	p.tr.do("fairness.gate", func() { release, ok = p.thr.AcquireCompute(traceClient) })
	if !ok {
		return fmt.Errorf("compute gate shed a serial caller")
	}
	defer release()
	start := time.Now()
	prep, err := p.prepare(tc.snap)
	if err != nil {
		return err
	}
	resp, err := p.compute(o, prep, body)
	if err != nil {
		return err
	}
	p.tr.do("server.encode", func() { _, err = json.Marshal(resp) })
	p.tr.do("anscache.put", func() { p.cache.Put(key, body, time.Since(start)) })
	return err
}

// prepare re-enacts PrepareSnapshot; a snapshot whose index view has not
// been materialized yet is materialized in a child span first, which is
// the work PrepareSnapshot's miss path does.
func (p *inproc) prepare(snap *uncertain.Snapshot) (*uncertain.Prepared, error) {
	var prep *uncertain.Prepared
	var err error
	p.tr.do("engine.prepare", func() {
		if v := snap.IndexView(); v != nil && v.Ready() == nil {
			before := uncertain.IndexTotals()
			p.tr.do("uncertain.materialize", func() { _, err = v.Materialize() })
			after := uncertain.IndexTotals()
			p.materialize.SuffixMaterializations += after.SuffixMaterializations - before.SuffixMaterializations
			p.materialize.FullMaterializations += after.FullMaterializations - before.FullMaterializations
			p.materialize.ViewMaterializations += after.ViewMaterializations - before.ViewMaterializations
			if err != nil {
				return
			}
		}
		prep, err = p.eng.PrepareSnapshot(snap)
	})
	return prep, err
}

var memSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

// dp runs one distribution computation in a span, counting its work.
func (p *inproc) dp(prep *uncertain.Prepared, params core.Params, alg string) (*core.Result, error) {
	var res *core.Result
	var err error
	metrics.Read(memSamples)
	alloc0, gc0 := memSamples[0].Value.Uint64(), memSamples[1].Value.Uint64()
	p.tr.do("core.dp", func() {
		switch alg {
		case "state-expansion":
			res, err = core.StateExpansion(prep, params)
		case "k-combo":
			res, err = core.KCombo(prep, params)
		default:
			res, err = core.DistributionScratch(prep, params, p.scratch)
		}
	})
	metrics.Read(memSamples)
	if err == nil && alg == "" {
		t := &p.dpSum
		t.calls++
		t.cells += res.Cells
		t.units += res.Units
		t.depth += res.ScanDepth
		t.lines += res.Dist.Len()
		t.allocBytes += memSamples[0].Value.Uint64() - alloc0
		t.gcCycles += memSamples[1].Value.Uint64() - gc0
	}
	return res, err
}

// compute re-enacts the server's compute switch and returns the response
// value the handler encoded (decoded from the served body, so the encode
// span marshals exactly what the handler marshalled).
func (p *inproc) compute(o *op, prep *uncertain.Prepared, body []byte) (any, error) {
	switch o.kind {
	case "topk":
		res, err := p.dp(prep, coreParams(o.k, o.threshold, o.exact, o.maxLines), o.algorithm)
		if err != nil {
			return nil, err
		}
		if o.normalize {
			res.Dist.Normalize()
		}
		var resp server.DistributionResponse
		return resp, json.Unmarshal(body, &resp)
	case "batch":
		for _, m := range o.members {
			if _, err := p.dp(prep, coreParams(m.K, m.Threshold, false, 0), ""); err != nil {
				return nil, err
			}
		}
		var resp server.BatchResponse
		return resp, json.Unmarshal(body, &resp)
	case "typical":
		res, err := p.dp(prep, coreParams(o.k, o.threshold, o.exact, o.maxLines), "")
		if err != nil {
			return nil, err
		}
		p.tr.do("typical.select", func() { _, err = typical.Select(res.Dist, o.c) })
		if err != nil {
			return nil, err
		}
		var resp server.TypicalResponse
		return resp, json.Unmarshal(body, &resp)
	}
	var err error
	switch o.semantic {
	case "utopk":
		var res *core.Result
		res, err = p.dp(prep, coreParams(o.k, 0, true, 0), "exact")
		if err == nil {
			if _, ok := res.Dist.MaxVecProbLine(); !ok {
				err = fmt.Errorf("no U-Topk vector")
			}
		}
	case "ukranks":
		p.tr.do("baselines.rankprobs", func() { _, err = baselines.UKRanks(prep, o.k) })
	case "ptk":
		p.tr.do("baselines.intopk", func() {
			if _, err = baselines.PTk(prep, o.k, o.p); err == nil {
				_, err = baselines.InTopkProbs(prep, o.k)
			}
		})
	case "globaltopk":
		p.tr.do("baselines.intopk", func() {
			if _, err = baselines.GlobalTopk(prep, o.k); err == nil {
				_, err = baselines.InTopkProbs(prep, o.k)
			}
		})
	case "intopk":
		p.tr.do("baselines.intopk", func() { _, err = baselines.InTopkProbs(prep, o.k) })
	case "expectedrank":
		p.tr.do("baselines.expectedrank", func() {
			if _, err = baselines.ExpectedRankTopk(prep, o.k); err == nil {
				baselines.ExpectedRanks(prep)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	var resp server.BaselineResponse
	return resp, json.Unmarshal(body, &resp)
}

// serverStats reads the in-process server's /debug/stats.
func serverStats(srv http.Handler) (map[string]any, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
	var out map[string]any
	return out, json.Unmarshal(rec.Body.Bytes(), &out)
}

// traced replays a workload in process and reports the per-layer metrics.
func traced(workload string, seed int64, seconds float64) (*result, error) {
	tables, order := inputs(workload, seed)
	r := newRun(workload, seed, seconds, tables)
	work, err := os.MkdirTemp(buildDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	opts := persist.Options{Fsync: true, CheckpointEvery: 256, Shards: shards()}
	cfg := server.Config{Shards: shards(), Fairness: &fairness.Config{}}
	p := &inproc{
		tr:      &tracer{t0: time.Now()},
		cache:   anscache.New(server.DefaultAnswerCacheSize),
		thr:     fairness.New(fairness.Config{}),
		eng:     engine.NewPartitioned(engine.DefaultCacheSize, shards()),
		tables:  map[string]*tableCopy{},
		scratch: core.GetScratch(),
	}
	var serverMan *persist.Manager
	if workload == "ingest" {
		if serverMan, _, err = persist.Open(filepath.Join(work, "server"), opts); err != nil {
			return nil, err
		}
		defer serverMan.Close()
		cfg.Durability = serverMan
		if p.man, _, err = persist.Open(filepath.Join(work, "reenact"), opts); err != nil {
			return nil, err
		}
		defer p.man.Close()
	}
	p.srv = server.New(cfg)
	for range connections(workload) {
		r.targets = append(r.targets, p)
	}
	if err := r.upload(p, uploads(tables, order)); err != nil {
		return nil, err
	}
	var hot []hotItem
	if workload == "warm" {
		hot = r.warmFill(true)
	}
	st0, err := serverStats(p.srv)
	if err != nil {
		return nil, err
	}
	var man0 persist.Stats
	if serverMan != nil {
		man0 = serverMan.Stats()
	}
	spans0 := len(p.tr.spans)
	q0, dp0, mat0, bytes0, tup0 := p.queries, p.dpSum, p.materialize, p.responseBytes, p.appended
	switch workload {
	case "cold":
		r.runCold(true)
	case "warm":
		r.runWarm(hot, true)
	case "ingest":
		r.runIngest(order, true)
	}
	st1, err := serverStats(p.srv)
	if err != nil {
		return nil, err
	}

	res := &result{workload: workload, metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { res.metrics[name] = metric{v, unit} }
	queries := float64(max(1, p.queries-q0))
	timed := p.tr.spans[spans0:]
	durs := map[string][]float64{}
	for _, s := range timed {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	med := func(name string, unit time.Duration) float64 { return quantile(durs[name], 0.5) / float64(unit) }
	delta := func(path ...string) float64 { return statNum(st1, path...) - statNum(st0, path...) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	set("server.query_ms", med("server.query", time.Millisecond), "ms")
	set("server.append_ms", med("server.append", time.Millisecond), "ms")
	set("server.append_self_ms", quantile(selfTimes(timed, "server.append", "wal.append", "uncertain.insert", "uncertain.freeze", "persist.checkpoint"), 0.5)/float64(time.Millisecond), "ms")
	set("server.encode_ms", med("server.encode", time.Millisecond), "ms")
	set("server.response_kb", float64(p.responseBytes-bytes0)/1024/queries, "KB")
	set("server.span_coverage", coverage(timed), "ratio")
	hits, misses := delta("answerCache", "hits"), delta("answerCache", "misses")
	set("anscache.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("anscache.get_us", med("anscache.get", time.Microsecond), "us")
	set("anscache.put_us", med("anscache.put", time.Microsecond), "us")
	set("anscache.evictions", delta("answerCache", "evictions")/queries, "1/query")
	set("fairness.decide_us", med("fairness.decide", time.Microsecond), "us")
	set("fairness.gate_wait_ms", med("fairness.gate", time.Millisecond), "ms")
	set("fairness.sheds", delta("fairness", "sheds"), "count")
	set("flight.coalesced", delta("coalescedQueries", "count"), "count")
	set("engine.prepare_ms", med("engine.prepare", time.Millisecond), "ms")
	phits, pmisses := delta("preparedCache", "hits"), delta("preparedCache", "misses")
	set("engine.prepare_hit_ratio", ratio(phits, phits+pmisses), "ratio")
	set("engine.view_prepares", delta("dynamicIndex", "viewPrepares")/queries, "1/query")
	set("uncertain.insert_us", med("uncertain.insert", time.Microsecond), "us")
	set("uncertain.freeze_us", med("uncertain.freeze", time.Microsecond), "us")
	set("uncertain.clone_validate_ms", med("uncertain.clone_validate", time.Millisecond), "ms")
	set("uncertain.materialize_ms", med("uncertain.materialize", time.Millisecond), "ms")
	set("uncertain.suffix_rebuilds", float64(p.materialize.SuffixMaterializations-mat0.SuffixMaterializations)/queries, "1/query")
	set("uncertain.full_rebuilds", float64(p.materialize.FullMaterializations-mat0.FullMaterializations)/queries, "1/query")
	set("uncertain.view_rebuilds", float64(p.materialize.ViewMaterializations-mat0.ViewMaterializations)/queries, "1/query")
	calls := float64(max(1, p.dpSum.calls-dp0.calls))
	set("core.dp_ms", med("core.dp", time.Millisecond), "ms")
	set("core.cells", float64(p.dpSum.cells-dp0.cells)/calls, "count")
	set("core.units", float64(p.dpSum.units-dp0.units)/calls, "count")
	set("core.scan_depth", float64(p.dpSum.depth-dp0.depth)/calls, "count")
	set("core.lines", float64(p.dpSum.lines-dp0.lines)/calls, "count")
	set("core.alloc_kb", float64(p.dpSum.allocBytes-dp0.allocBytes)/1024/calls, "KB")
	set("core.gc_cycles", float64(p.dpSum.gcCycles-dp0.gcCycles)/calls, "1/query")
	set("typical.select_ms", med("typical.select", time.Millisecond), "ms")
	set("baselines.intopk_ms", med("baselines.intopk", time.Millisecond), "ms")
	set("baselines.rankprobs_ms", med("baselines.rankprobs", time.Millisecond), "ms")
	set("baselines.expectedrank_ms", med("baselines.expectedrank", time.Millisecond), "ms")
	set("wal.append_us", med("wal.append", time.Microsecond), "us")
	set("persist.checkpoint_ms", med("persist.checkpoint", time.Millisecond), "ms")
	var fsyncs, walBytes, checkpoints, replayMs, replayed float64
	if serverMan != nil {
		man1 := serverMan.Stats()
		appends := float64(man1.WAL.Appends - man0.WAL.Appends)
		fsyncs = ratio(float64(man1.WAL.Syncs-man0.WAL.Syncs), appends)
		walBytes = ratio(float64(man1.WAL.AppendBytes-man0.WAL.AppendBytes), float64(p.appended-tup0))
		checkpoints = float64(man1.Checkpoints - man0.Checkpoints)
		// Recovery: close the server's log and reopen its directory, as a
		// restarted daemon does, then compare the recovered tables with the
		// ledger.
		if err := serverMan.Close(); err != nil {
			return nil, err
		}
		var reopened *persist.Manager
		var recovered map[string]*uncertain.Table
		d := p.tr.do("persist.replay", func() { reopened, recovered, err = persist.Open(filepath.Join(work, "server"), opts) })
		if err != nil {
			return nil, err
		}
		replayMs = float64(d) / float64(time.Millisecond)
		replayed = float64(reopened.ReplayInfo().Records)
		reopened.Close()
		for _, name := range order {
			got := make([]check.Tuple, 0, recovered[name].Len())
			for _, tp := range recovered[name].Tuples() {
				got = append(got, check.Tuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group})
			}
			if err := check.SameTuples(r.models[name].Tuples(), got); err != nil {
				r.problem("recovered %s: %v", name, err)
			}
		}
	}
	set("wal.fsyncs_per_append", fsyncs, "ratio")
	set("wal.bytes_per_tuple", walBytes, "bytes")
	set("persist.checkpoints", checkpoints, "count")
	set("persist.replay_ms", replayMs, "ms")
	set("persist.replayed_records", replayed, "count")
	res.notes = append(res.notes, fmt.Sprintf("%d requests traced in one goroutine; %d spans", p.tr.req, len(p.tr.spans)))
	if err := os.MkdirAll(filepath.Join(buildDir, "spans"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-%d.jsonl", workload, seed))
	if err := p.tr.write(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return r.finish(res), nil
}

// selfTimes returns, for every request with a span named root, that
// span's duration minus the durations of the request's spans named in
// excluded. With root server.append (the handler itself) and the
// re-enacted layer calls excluded, it is the handler's time outside those
// layers; it can come out below zero on a request whose re-enacted calls
// ran slower than the handler's own.
func selfTimes(spans []span, root string, excluded ...string) []float64 {
	self := map[int]float64{}
	for _, s := range spans {
		if s.Name == root {
			self[s.Req] += float64(s.End - s.Start)
		}
	}
	for _, s := range spans {
		if _, ok := self[s.Req]; ok && slices.Contains(excluded, s.Name) {
			self[s.Req] -= float64(s.End - s.Start)
		}
	}
	out := make([]float64, 0, len(self))
	for _, v := range self {
		out = append(out, v)
	}
	return out
}

// coverage is the share of the in-process handler time of the timed
// requests that the re-enactment's layer spans account for: the summed
// durations of the direct children of every re-enactment root, over the
// summed server.query and server.append durations.
func coverage(spans []span) float64 {
	roots := map[int]bool{}
	var handler, layers float64
	for _, s := range spans {
		switch s.Name {
		case "server.query", "server.append":
			handler += float64(s.End - s.Start)
		case "reenact.query", "reenact.append":
			roots[s.ID] = true
		}
	}
	for _, s := range spans {
		if roots[s.Parent] {
			layers += float64(s.End - s.Start)
		}
	}
	if handler == 0 {
		return 0
	}
	return layers / handler
}
