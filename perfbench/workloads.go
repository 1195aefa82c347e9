package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"

	"probtopk/perfbench/check"
)

// run is one benchmark run of one workload: its inputs, the connections it
// drives the server through, and everything it measured and found.
type run struct {
	workload string
	seed     int64
	seconds  float64
	targets  []target // one per client connection (or in-process caller)
	models   map[string]*check.Table

	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int // failed output checks
	problems  []string
	queryLat  []float64 // ms, timed phase
	appendLat []float64 // ms, timed phase
	timedOps  int
	lateness  []float64 // ms, open-loop generator behind schedule
	timed     bool
}

// problem records a failed output check; any problem marks the run's
// outputs incorrect.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// call sends o through t and accounts for it. It returns the body of a
// successful response, or nil after counting the request as failed.
func (r *run) call(t target, o *op) []byte {
	return r.callFrom(t, o, time.Time{})
}

// callFrom is call with latency measured from due (an open loop's
// scheduled send time) instead of from the send.
func (r *run) callFrom(t target, o *op, due time.Time) []byte {
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	status, body, err := t.send(o)
	ms := float64(time.Since(due)) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil || status < 200 || status > 299 {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf("%s %s: status %d, %v: %.200s", o.kind, o.table, status, err, body))
		}
		return nil
	}
	if r.timed {
		r.timedOps++
		switch {
		case o.isQuery():
			r.queryLat = append(r.queryLat, ms)
		case o.kind == "append":
			r.appendLat = append(r.appendLat, ms)
		}
	}
	return body
}

// setTimed switches latency accounting on or off.
func (r *run) setTimed(on bool) {
	r.mu.Lock()
	r.timed = on
	r.mu.Unlock()
}

// decode unmarshals a response body, recording a problem on failure.
func (r *run) decode(o *op, body []byte, v any) bool {
	if body == nil {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		r.problem("%s %s: undecodable answer: %v", o.kind, o.table, err)
		return false
	}
	return true
}

// uploads returns the requests that create every table, rendered ahead of
// time so that set-up does not time the client's encoding.
func uploads(tables map[string][]check.Tuple, order []string) []*op {
	puts := make([]*op, len(order))
	for i, name := range order {
		puts[i] = &op{kind: "put", table: name, tuples: tables[name]}
		puts[i].render()
	}
	return puts
}

// upload sends the table-creating requests through t.
func (r *run) upload(t target, puts []*op) error {
	for _, o := range puts {
		if r.call(t, o) == nil {
			return fmt.Errorf("uploading %s failed: %v", o.table, r.problems)
		}
	}
	return nil
}

// checkTopK sends a distribution query and verifies the answer against the
// table's model.
func (r *run) checkTopK(t target, o *op) (check.Dist, []byte) {
	var d check.Dist
	body := r.call(t, o)
	if !r.decode(o, body, &d) {
		return d, nil
	}
	if err := check.CheckDist(r.models[o.table], d, o.k, o.lineCap()); err != nil {
		r.problem("topk %s k=%d thr=%g: %v", o.table, o.k, o.threshold, err)
	}
	return d, body
}

// checkBatch sends a batch and then each member as a single query, and
// verifies that every member equals its single query.
func (r *run) checkBatch(t target, o *op) {
	var b check.Batch
	body := r.call(t, o)
	if !r.decode(o, body, &b) {
		return
	}
	if len(b.Results) != len(o.members) {
		r.problem("batch %s: %d results for %d queries", o.table, len(b.Results), len(o.members))
		return
	}
	for i, m := range o.members {
		single := &op{kind: "topk", post: true, table: o.table, k: m.K, threshold: m.Threshold}
		d, _ := r.checkTopK(t, single)
		if err := check.SameDist(b.Results[i], d); err != nil {
			r.problem("batch %s member %d differs from the single query: %v", o.table, i, err)
		}
	}
}

// checkTypical sends a c-typical query and the distribution query it
// selects from, and verifies the one against the other.
func (r *run) checkTypical(t target, o *op) {
	var typ check.Typical
	body := r.call(t, o)
	if !r.decode(o, body, &typ) {
		return
	}
	dist := *o
	dist.kind, dist.c = "topk", 0
	d, dbody := r.checkTopK(t, &dist)
	if dbody == nil {
		return
	}
	if err := check.CheckTypical(d, typ, o.c); err != nil {
		r.problem("typical %s k=%d c=%d: %v", o.table, o.k, o.c, err)
	}
}

// checkBaselines sends the in-top-k, PT-k, Global-topk, expected-rank and
// U-kRanks queries of one (table, k) and verifies each, the PT-k and
// Global-topk answers against the in-top-k probabilities.
func (r *run) checkBaselines(t target, table string, k int, p float64) {
	model := r.models[table]
	ask := func(semantic string, p float64) (check.Baseline, bool) {
		o := &op{kind: "baseline", semantic: semantic, table: table, k: k, p: p, post: k%2 == 0}
		var b check.Baseline
		return b, r.decode(o, r.call(t, o), &b)
	}
	in, ok := ask("intopk", 0)
	if ok {
		if err := check.CheckInTopK(model, in, k); err != nil {
			r.problem("intopk %s k=%d: %v", table, k, err)
			ok = false
		}
	}
	if b, got := ask("ptk", p); got && ok {
		if err := check.CheckPTk(in, b, p); err != nil {
			r.problem("ptk %s k=%d p=%g: %v", table, k, p, err)
		}
	}
	if b, got := ask("globaltopk", 0); got && ok {
		if err := check.CheckGlobalTopK(in, b, k); err != nil {
			r.problem("globaltopk %s k=%d: %v", table, k, err)
		}
	}
	if b, got := ask("expectedrank", 0); got {
		if err := check.CheckExpectedRank(model, b, k); err != nil {
			r.problem("expectedrank %s k=%d: %v", table, k, err)
		}
	}
	if b, got := ask("ukranks", 0); got {
		if err := check.CheckUKRanks(model, b, k); err != nil {
			r.problem("ukranks %s k=%d: %v", table, k, err)
		}
	}
}

// checkUTopK sends a U-Topk query and verifies the vector; on a small
// enough table, also that no other vector is more probable.
func (r *run) checkUTopK(t target, table string, k int) {
	o := &op{kind: "baseline", semantic: "utopk", table: table, k: k}
	var b check.Baseline
	if !r.decode(o, r.call(t, o), &b) {
		return
	}
	if err := check.CheckUTopK(r.models[table], b, k, r.models[table].Len() <= 16); err != nil {
		r.problem("utopk %s k=%d: %v", table, k, err)
	}
}

// loop runs rounds on every connection concurrently until the run's time
// is up; each connection finishes the round it is in. serial runs the
// connections' rounds in turn on one goroutine instead (the traced mode).
// It returns the timed phase's duration.
func (r *run) loop(serial bool, round func(w int)) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	if serial {
		for time.Now().Before(deadline) {
			for w := range r.targets {
				round(w)
			}
		}
		return time.Since(start)
	}
	var wg sync.WaitGroup
	for w := range r.targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				round(w)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// --- cold ---

// coldInputs generates the cold workload's tables: three §5.4 tables of
// 2,000, 1,000 and 500 tuples, a CarTel-style congestion table of 40 road
// segments, eight §5.4 tables of 200–270 tuples that also carry the
// baseline queries, and the tiny table that is checked exactly. Sizes are
// fixed; contents come from the seed.
func coldInputs(seed int64) (map[string][]check.Tuple, []string) {
	rng := newRNG(seed, 1)
	tables := map[string][]check.Tuple{
		"big0":   synthTable(rng, "big0", 2000),
		"big1":   synthTable(rng, "big1", 1000),
		"big2":   synthTable(rng, "big2", 500),
		"cartel": cartelTable(rng, "cartel", 40),
		"tiny":   tinyTable(rng),
	}
	order := []string{"big0", "big1", "big2", "cartel", "tiny"}
	for i := range smallTables {
		name := fmt.Sprintf("small%d", i)
		tables[name] = synthTable(rng, name, 200+10*i)
		order = append(order, name)
	}
	return tables, order
}

// smallTables is the number of 200–270-tuple tables; baselinePoolK bounds
// the k of baseline bundles, so a run can ask smallTables × baselinePoolK
// distinct bundles.
const (
	smallTables   = 8
	baselinePoolK = 100
)

// coldDistTables carry the distribution, batch and typical queries.
var coldDistTables = []string{"big0", "big1", "big2", "cartel",
	"small0", "small1", "small2", "small3", "small4", "small5", "small6", "small7"}

// baselinePool lists every (table, k) baseline bundle in a stratified
// seeded order: bundle i goes to table i mod 8, and each table's k walks a
// permutation of 1..100 in steps of 37 from a seeded start, so any run of
// consecutive bundles spreads evenly over tables and k.
func baselinePool(seed int64) [][2]int {
	off := newRNG(seed, 2).IntN(baselinePoolK)
	pool := make([][2]int, smallTables*baselinePoolK)
	for i := range pool {
		pool[i] = [2]int{i % smallTables, 1 + (i/smallTables*37+off)%baselinePoolK}
	}
	return pool
}

// coldPrologue sends the queries whose variety is too small to repeat in
// every round: exact distributions of the tiny table under all three §3
// algorithms, normalized and not, checked against possible-world
// enumeration, and U-Topk, which runs the exact uncapped program and is
// therefore only asked at k ≤ 2 on the 200–270-tuple tables.
func (r *run) coldPrologue(t target) {
	for _, alg := range []string{"", "state-expansion", "k-combo"} {
		for k := 1; k <= 6; k++ {
			o := &op{kind: "topk", table: "tiny", k: k, exact: true, algorithm: alg, post: k%2 == 0}
			var d check.Dist
			if r.decode(o, r.call(t, o), &d) {
				if err := check.CheckExact(r.models["tiny"], d, k, false); err != nil {
					r.problem("tiny exact k=%d alg=%q: %v", k, alg, err)
				}
			}
		}
	}
	for k := 1; k <= 6; k++ {
		o := &op{kind: "topk", table: "tiny", k: k, exact: true, normalize: true}
		var d check.Dist
		if r.decode(o, r.call(t, o), &d) {
			if err := check.CheckExact(r.models["tiny"], d, k, true); err != nil {
				r.problem("tiny exact normalized k=%d: %v", k, err)
			}
		}
	}
	for k := 1; k <= 4; k++ {
		r.checkUTopK(t, "tiny", k)
	}
	for i := range smallTables {
		for k := 1; k <= 2; k++ {
			r.checkUTopK(t, fmt.Sprintf("small%d", i), k)
		}
	}
}

// coldRound sends one round of 17 never-before-asked queries: four GET
// and three POST distributions, a two-member batch with its two single
// queries, a c-typical query (c cycling through 2..6) with its
// distribution, and a bundle of five baseline queries.
func (r *run) coldRound(t target, rng *rand.Rand, d *deck, round int, bundle [2]int) {
	for i := range 7 {
		o := d.draw()
		o.post = i >= 4
		r.checkTopK(t, o)
	}
	b1, b2 := d.draw(), d.draw()
	r.checkBatch(t, &op{kind: "batch", table: b1.table, members: []member{
		{K: b1.k, Threshold: b1.threshold}, {K: b2.k, Threshold: b2.threshold},
	}})
	typ := d.draw()
	typ.kind, typ.c, typ.post = "typical", 2+round%5, round%2 == 0
	r.checkTypical(t, typ)
	r.checkBaselines(t, fmt.Sprintf("small%d", bundle[0]), bundle[1], 0.05+0.55*rng.Float64())
}

// runCold runs the cold workload's timed phase.
func (r *run) runCold(serial bool) time.Duration {
	pool := baselinePool(r.seed)
	rngs := make([]*rand.Rand, len(r.targets))
	decks := make([]*deck, len(r.targets))
	next := make([]int, len(r.targets))
	for w := range rngs {
		rngs[w] = newRNG(r.seed, 100+uint64(w))
		decks[w] = newDeck(rngs[w], coldDistTables, true)
		next[w] = w
	}
	r.setTimed(true)
	defer r.setTimed(false)
	return r.loop(serial, func(w int) {
		if w == 0 && next[0] == 0 {
			r.coldPrologue(r.targets[0])
		}
		bundle := pool[next[w]%len(pool)]
		round := next[w] / len(r.targets)
		next[w] += len(r.targets)
		r.coldRound(r.targets[w], rngs[w], decks[w], round, bundle)
	})
}

// --- warm ---

// warmRate is the warm workload's open-loop arrival rate in requests per
// second, well below what one daemon serves from its answer cache.
const warmRate = 1500

// warmInputs generates the warm workload's tables.
func warmInputs(seed int64) (map[string][]check.Tuple, []string) {
	rng := newRNG(seed, 1)
	return map[string][]check.Tuple{
		"big0":   synthTable(rng, "big0", 2000),
		"big1":   synthTable(rng, "big1", 1000),
		"cartel": cartelTable(rng, "cartel", 40),
		"small0": synthTable(rng, "small0", 200),
	}, []string{"big0", "big1", "cartel", "small0"}
}

// hotItem is one hot answer: the request and the body it was first
// answered with.
type hotItem struct {
	o    *op
	body []byte
}

// warmFill asks every hot query once, checks the answers like the cold
// workload does, and returns the hot set with the bodies to compare hits
// against. The hot set holds 252 distinct answers, a quarter of the answer
// cache's 1,024 entries: 150 distributions (capped, from a deck), 16
// c-typical queries with their distributions, 10 two-member batches with
// their members, and 8 baseline bundles on small0. Groups of queries whose checks depend on each other (a typical
// query and its distribution, a batch and its members, a baseline bundle)
// are filled by one connection.
func (r *run) warmFill(serial bool) []hotItem {
	rng := newRNG(r.seed, 3)
	d := newDeck(rng, []string{"big0", "big1", "cartel", "small0"}, false)
	var groups [][]*op
	for range 150 {
		o := d.draw()
		o.post = rng.IntN(2) == 0
		groups = append(groups, []*op{o})
	}
	for i := range 16 {
		o := d.draw()
		o.kind, o.c = "typical", 2+i%5
		dist := *o
		dist.kind, dist.c = "topk", 0
		groups = append(groups, []*op{o, &dist})
	}
	for range 10 {
		b1, b2 := d.draw(), d.draw()
		groups = append(groups, []*op{
			{kind: "batch", table: b1.table, members: []member{{K: b1.k, Threshold: b1.threshold}, {K: b2.k, Threshold: b2.threshold}}},
			{kind: "topk", post: true, table: b1.table, k: b1.k, threshold: b1.threshold},
			{kind: "topk", post: true, table: b1.table, k: b2.k, threshold: b2.threshold},
		})
	}
	for i := range 8 {
		k := 1 + (i*37+rng.IntN(baselinePoolK))%baselinePoolK
		p := 0.05 + 0.55*rng.Float64()
		var g []*op
		for _, s := range []string{"intopk", "ptk", "globaltopk", "expectedrank", "ukranks"} {
			o := &op{kind: "baseline", semantic: s, table: "small0", k: k, post: k%2 == 0}
			if s == "ptk" {
				o.p = p
			}
			g = append(g, o)
		}
		groups = append(groups, g)
	}
	rng.Shuffle(len(groups), func(a, b int) { groups[a], groups[b] = groups[b], groups[a] })
	filled := make([][]hotItem, len(groups))
	fill := func(t target, gi int) {
		g := groups[gi]
		items := make([]hotItem, len(g))
		// The checks run as in cold; the recorder keeps each body.
		rec := &recorder{t: t, bodies: map[string][]byte{}}
		switch g[0].kind {
		case "typical":
			r.checkTypical(rec, g[0])
		case "batch":
			r.checkBatch(rec, g[0])
		case "baseline":
			r.checkBaselines(rec, g[0].table, g[0].k, g[1].p)
		default:
			r.checkTopK(rec, g[0])
		}
		for i, o := range g {
			items[i] = hotItem{o: o, body: rec.find(o)}
		}
		filled[gi] = items
	}
	if serial {
		for gi := range groups {
			fill(r.targets[0], gi)
		}
	} else {
		var wg sync.WaitGroup
		for w := range r.targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for gi := w; gi < len(groups); gi += len(r.targets) {
					fill(r.targets[w], gi)
				}
			}()
		}
		wg.Wait()
	}
	var hot []hotItem
	for _, g := range filled {
		hot = append(hot, g...)
	}
	return hot
}

// recorder is a target that remembers each response body by the rendered
// request, so a hot set's first answers can be kept, including those of
// requests a check builds on the fly (a batch's single queries).
type recorder struct {
	t      target
	mu     sync.Mutex
	bodies map[string][]byte
}

func (c *recorder) send(o *op) (int, []byte, error) {
	status, body, err := c.t.send(o)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bodies[reqKey(o)] = body
	return status, body, err
}

func (c *recorder) find(o *op) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bodies[reqKey(o)]
}

func reqKey(o *op) string {
	method, path, _, body := o.request()
	return method + " " + path + " " + string(body)
}

// runWarm runs the warm workload's open loop: requests for uniformly drawn
// hot answers are due at a fixed rate, whatever the server's pace; each is
// timed from its due time and must equal the answer first given.
func (r *run) runWarm(hot []hotItem, serial bool) time.Duration {
	rng := newRNG(r.seed, 4)
	total := int(r.seconds * warmRate)
	order := make([]int, total)
	for i := range order {
		order[i] = rng.IntN(len(hot))
	}
	interval := time.Second / warmRate
	r.setTimed(true)
	defer r.setTimed(false)
	start := time.Now()
	send := func(t target, i int, due time.Time) {
		h := hot[order[i]]
		body := r.callFrom(t, h.o, due)
		if body != nil && !bytes.Equal(body, h.body) {
			r.problem("warm hit for %s %s differs from its first answer", h.o.kind, h.o.table)
		}
	}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to every send of the run, so the generator never blocks on a
	// slow server: queueing shows in latency instead.
	jobs := make(chan job, total)
	var wg sync.WaitGroup
	if !serial {
		for w := range r.targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					send(r.targets[w], j.i, j.due)
				}
			}()
		}
	}
	// The generator sleeps in nanosleep on its own OS thread: the Go timer
	// rounds waits under a millisecond up to the next netpoll tick, which
	// made the generator run 0.3ms late at the median.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var late []float64
	for i := range total {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		if serial {
			send(r.targets[0], i, due)
		} else {
			jobs <- job{i, due}
		}
	}
	close(jobs)
	wg.Wait()
	r.mu.Lock()
	r.lateness = late
	r.mu.Unlock()
	return time.Since(start)
}

// --- ingest ---

// ingestWriters is the number of writers, each appending to its own table.
const ingestWriters = 2

// ingestInputs generates one durable table of 25,000 §5.4 tuples per
// writer.
func ingestInputs(seed int64) (map[string][]check.Tuple, []string) {
	rng := newRNG(seed, 1)
	tables := map[string][]check.Tuple{}
	var order []string
	for w := range ingestWriters {
		name := fmt.Sprintf("ingest%d", w)
		tables[name] = synthTable(rng, name, 25000)
		order = append(order, name)
	}
	return tables, order
}

// tableInfo is the answer to a table mutation.
type tableInfo struct {
	Tuples   int    `json:"tuples"`
	Snapshot uint64 `json:"snapshot"`
}

// writer is one ingest writer's state: its table, its ledger of every
// tuple it was acknowledged, and the snapshot its last write published.
type writer struct {
	table string
	rng   *rand.Rand
	batch int
	snap  uint64
}

// ingestRound appends one small batch, checks the acknowledgement against
// the ledger, and reads the write back with a top-k query.
func (r *run) ingestRound(t target, wr *writer, w int) {
	tuples := freshTuples(wr.rng, w, wr.batch)
	wr.batch++
	o := &op{kind: "append", table: wr.table, tuples: tuples}
	var info tableInfo
	if !r.decode(o, r.call(t, o), &info) {
		return
	}
	ledger := r.models[wr.table]
	ledger.Add(tuples...)
	if info.Tuples != ledger.Len() || info.Snapshot <= wr.snap {
		r.problem("append to %s: server has %d tuples at snapshot %d, ledger %d tuples after snapshot %d",
			wr.table, info.Tuples, info.Snapshot, ledger.Len(), wr.snap)
	}
	wr.snap = info.Snapshot
	// k cycles through 1..8 and the threshold through four bands of
	// [2e-4, 5e-3] (log scale), drawn inside its band, as in cold's deck.
	lo, hi := math.Log(2e-4), math.Log(5e-3)
	band := float64(wr.batch / 8 % 4)
	q := &op{kind: "topk", table: wr.table, k: 1 + wr.batch%8, threshold: math.Exp(lo + (band+wr.rng.Float64())*(hi-lo)/4)}
	r.checkTopK(t, q)
}

// runIngest runs the ingest workload's timed phase.
func (r *run) runIngest(order []string, serial bool) time.Duration {
	writers := make([]*writer, len(r.targets))
	for w := range writers {
		writers[w] = &writer{table: order[w], rng: newRNG(r.seed, 300+uint64(w))}
	}
	r.setTimed(true)
	defer r.setTimed(false)
	return r.loop(serial, func(w int) { r.ingestRound(r.targets[w], writers[w], w) })
}

// finalQueries are the queries whose answers must survive a restart.
func finalQueries(table string) []*op {
	return []*op{
		{kind: "topk", table: table, k: 3},
		{kind: "topk", table: table, k: 8, maxLines: 100},
		{kind: "typical", table: table, k: 5, c: 3},
	}
}

// verifyDurable checks every ingest table's CSV download against the
// ledger and returns the answers to the final queries.
func (r *run) verifyDurable(t target, order []string) map[string][]byte {
	answers := map[string][]byte{}
	for _, name := range order {
		o := &op{kind: "csv", table: name}
		if body := r.call(t, o); body != nil {
			got, err := check.ParseCSV(body)
			if err == nil {
				err = check.SameTuples(r.models[name].Tuples(), got)
			}
			if err != nil {
				r.problem("csv of %s: %v", name, err)
			}
		}
		for _, q := range finalQueries(name) {
			answers[reqKey(q)] = r.call(t, q)
		}
	}
	return answers
}

// compareAnswers checks that recovered answers equal those given before.
func (r *run) compareAnswers(before, after map[string][]byte) {
	for key, b := range before {
		if !bytes.Equal(b, after[key]) {
			r.problem("after the restart %s answers differently", key)
		}
	}
}
