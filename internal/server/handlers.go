package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"probtopk"
	"probtopk/internal/server/anscache"
	"probtopk/internal/server/fairness"
)

// --- table registry endpoints ---

func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	resp := TablesResponse{Tables: []TableInfo{}}
	for _, name := range s.reg.names() {
		st, ok := s.reg.load(name)
		if !ok {
			continue // deleted between listing and lookup
		}
		resp.Tables = append(resp.Tables, tableInfo(name, st))
	}
	writeJSON(w, http.StatusOK, resp)
}

// tableInfo describes one published table state.
func tableInfo(name string, st *tableState) TableInfo {
	return TableInfo{
		Name: name, Tuples: st.tab.Len(), Version: st.tab.Version(),
		Snapshot: st.snap.ID(),
	}
}

// decodeTuplesJSON strictly parses the JSON {"tuples": [...]} body shared
// by table uploads and appends: unknown fields and trailing data are
// errors, like the query decoder.
func decodeTuplesJSON(body io.Reader) (*TableRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req TableRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad tuples JSON: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("bad tuples JSON: trailing data after the object")
	}
	return &req, nil
}

// decodeTableBody parses an uploaded table: CSV when the Content-Type says
// so, the JSON {"tuples": [...]} shape otherwise.
func decodeTableBody(r *http.Request) (*probtopk.Table, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		tab, err := probtopk.ReadTableCSV(r.Body)
		if err != nil {
			return nil, err
		}
		return tab, nil
	}
	req, err := decodeTuplesJSON(r.Body)
	if err != nil {
		return nil, err
	}
	tab := probtopk.NewTable()
	for _, tp := range req.Tuples {
		tab.Add(probtopk.Tuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group})
	}
	return tab, nil
}

// CreateTable installs tab under name, replacing any previous table — the
// programmatic equivalent of PUT /tables/{name}, used by the daemon's
// startup loader. It reports whether the name was new. On a durable server
// the installation is logged like any other mutation.
func (s *Server) CreateTable(name string, tab *probtopk.Table) (created bool, err error) {
	_, created, err = s.installTable(name, tab, true)
	return created, err
}

// RestoreTable installs a recovered table WITHOUT logging it: it came from
// the log, so it is already durable, and re-logging recovered state on
// every boot would grow the WAL without bound. The daemon calls this for
// each table persist.Open returned, before serving starts. The restored
// table's snapshot identity is freshly minted (identities are
// process-unique), so no cache entry from a previous process's life can be
// resurrected for it.
func (s *Server) RestoreTable(name string, tab *probtopk.Table) error {
	_, _, err := s.installTable(name, tab, false)
	return err
}

// createTable validates and publishes tab, returning the published state.
func (s *Server) createTable(name string, tab *probtopk.Table) (*tableState, bool, error) {
	return s.installTable(name, tab, true)
}

// installTable validates tab and publishes it under name. With logIt on a
// durable server, the put record is appended to the table's WAL shard
// before the registry swap, under the shard's durability mutex that orders
// that shard's serial log history against publication.
func (s *Server) installTable(name string, tab *probtopk.Table, logIt bool) (*tableState, bool, error) {
	if err := checkTableName(name); err != nil {
		return nil, false, err
	}
	// Validate and build the published state — snapshot, dynamic index and
	// ledger — outside the durability critical section; the WAL append
	// below only serializes the cheap registry swap.
	h, err := newHostedTable(tab)
	if err != nil {
		return nil, false, err
	}
	var created bool
	if s.durable != nil && logIt {
		shard := s.shardOf(name)
		s.durMu[shard].Lock()
		if err := s.durable.LogPut(name, tab.Tuples()); err != nil {
			s.durMu[shard].Unlock()
			return nil, false, &durabilityError{err}
		}
		created = s.reg.put(name, h)
		s.durMu[shard].Unlock()
	} else {
		created = s.reg.put(name, h)
	}
	s.cache.InvalidateTable(name)
	if logIt {
		// Never on the restore path: mid-boot the registry holds only the
		// tables restored so far, and a checkpoint would truncate the WAL
		// against that partial state.
		s.maybeCheckpoint()
	}
	return h.st, created, nil
}

// durabilityError marks a mutation rejected because it could not be made
// durable. The served state is untouched and the caller should retry;
// handlers map it to 503. Error carries the full cause so non-HTTP
// callers (the daemon's boot-time loader) surface it to the operator; the
// HTTP path writes a fixed message instead, because the cause may name
// file paths that must never reach clients.
type durabilityError struct{ err error }

func (e *durabilityError) Error() string { return "durability: " + e.err.Error() }
func (e *durabilityError) Unwrap() error { return e.err }

// writeMutationError routes a mutation failure to the right status:
// durability failures are 503 (retryable, server-side, detail logged but
// not echoed), everything else is the caller's 400.
func (s *Server) writeMutationError(w http.ResponseWriter, err error) {
	var de *durabilityError
	if errors.As(err, &de) {
		log.Printf("server: %v (mutation not applied)", de)
		writeError(w, http.StatusServiceUnavailable,
			errors.New("durable log unavailable; mutation not applied"))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// maybeCheckpoint checkpoints the registry when enough mutations have
// accumulated, one shard at a time: for each shard it holds that shard's
// durability mutex just long enough to start the shard's post-checkpoint
// WAL segment (the watermark) and gather the shard's published states — so
// the persisted snapshot reflects every record below the watermark and the
// truncation behind it can never drop a record the snapshot missed — then
// moves on. Mutations only ever wait for their own shard's short gather
// window, never for the snapshot write; queries are unaffected throughout.
func (s *Server) maybeCheckpoint() {
	if s.durable == nil || !s.durable.CheckpointDue() {
		return
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if !s.durable.CheckpointDue() { // a racing mutation already checkpointed
		return
	}
	states := make(map[string]*probtopk.Snapshot)
	wms := make([]uint64, s.nshards)
	for shard := 0; shard < s.nshards; shard++ {
		s.durMu[shard].Lock()
		wm, err := s.durable.BeginShardCheckpoint(shard)
		if err != nil {
			s.durMu[shard].Unlock()
			// Nothing is lost: every shard's WAL still holds every record
			// and the old snapshot is intact. Retried after the next
			// mutation; segments already started are reused then.
			log.Printf("server: checkpoint failed (will retry): %v", err)
			return
		}
		wms[shard] = wm
		// Every record logged to this shard is also published while we
		// hold its mutex (log-before-publish runs under it), so the
		// gathered snapshots cover everything below the watermark.
		for _, name := range s.reg.shardNames(shard) {
			if st, ok := s.reg.load(name); ok {
				states[name] = st.snap
			}
		}
		s.durMu[shard].Unlock()
	}
	if err := s.durable.CompleteCheckpoint(states, wms); err != nil {
		log.Printf("server: checkpoint failed (will retry): %v", err)
	}
}

func (s *Server) handlePutTable(w http.ResponseWriter, r *http.Request) {
	if s.ReadOnly() {
		s.readOnlyError(w)
		return
	}
	name := r.PathValue("name")
	tab, err := decodeTableBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, created, err := s.createTable(name, tab)
	if err != nil {
		s.writeMutationError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, tableInfo(name, st))
}

func (s *Server) handleGetTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.reg.load(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	writeJSON(w, http.StatusOK, tableInfo(name, st))
}

func (s *Server) handleGetTableCSV(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.reg.load(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	// The published table is immutable; encoding needs no lock.
	var buf bytes.Buffer
	if err := st.tab.WriteCSV(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding csv"))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func (s *Server) handleDeleteTable(w http.ResponseWriter, r *http.Request) {
	if s.ReadOnly() {
		s.readOnlyError(w)
		return
	}
	name := r.PathValue("name")
	var ok bool
	if s.durable != nil {
		// Log before removing, under the table's shard durability mutex:
		// every mutation of this shard holds it, so the existence check
		// cannot go stale between the log append and the removal.
		shard := s.shardOf(name)
		s.durMu[shard].Lock()
		if _, ok = s.reg.load(name); !ok {
			s.durMu[shard].Unlock()
			writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
			return
		}
		if err := s.durable.LogDelete(name); err != nil {
			s.durMu[shard].Unlock()
			s.writeMutationError(w, &durabilityError{err})
			return
		}
		ok = s.reg.remove(name)
		s.durMu[shard].Unlock()
	} else {
		ok = s.reg.remove(name)
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	s.cache.InvalidateTable(name)
	s.maybeCheckpoint()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAppendTuples(w http.ResponseWriter, r *http.Request) {
	if s.ReadOnly() {
		s.readOnlyError(w)
		return
	}
	name := r.PathValue("name")
	req, err := decodeTuplesJSON(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Tuples) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no tuples to append"))
		return
	}
	tuples := make([]probtopk.Tuple, len(req.Tuples))
	for i, tp := range req.Tuples {
		tuples[i] = probtopk.Tuple{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, Group: tp.Group}
	}
	next, err := s.appendTuples(name, tuples, true)
	if err != nil {
		var missing noTableError
		if errors.As(err, &missing) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		s.writeMutationError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tableInfo(name, next))
}

// noTableError rejects a mutation of a name the registry does not host.
type noTableError struct{ name string }

func (e noTableError) Error() string { return fmt.Sprintf("no table %q", e.name) }

// appendTuples is the one append path, shared by the HTTP handler and
// replication (ApplyAppend). It costs O(m log n) for m tuples on an
// n-tuple table: the batch is checked against the entry's ledger (ids and
// per-group running sums), logged when logIt is set on a durable server,
// inserted into the dynamic index, and published as a successor table that
// shares the predecessor's append-only storage. A batch that fails the
// check, or the log, leaves the served state and the ledger untouched
// (all-or-nothing); the ledger changes only once the record is durable.
// Queries keep reading the old published snapshot throughout and never
// delay the swap.
func (s *Server) appendTuples(name string, tuples []probtopk.Tuple, logIt bool) (*tableState, error) {
	logIt = logIt && s.durable != nil
	// Lock order on a durable server: the table's shard durability mutex,
	// then the entry's mutation lock — the same order the put path takes
	// through reg.put, so the two can never deadlock (no path ever holds
	// two shards' mutexes at once). Queries take neither. Appends hold the
	// shard mutex SHARED: per-table log/publish order comes from the entry
	// lock held across both, while appends to different tables of the same
	// shard overlap — under a group-commit WAL their fsyncs coalesce into
	// one (see the durMu comment in server.go). Appends to tables on
	// different shards hold different mutexes entirely.
	shard := s.shardOf(name)
	if logIt {
		s.durMu[shard].RLock()
	}
	e, old, ok := s.reg.acquireMutate(name)
	if !ok {
		if logIt {
			s.durMu[shard].RUnlock()
		}
		return nil, noTableError{name}
	}
	unlock := func() {
		e.mu.Unlock()
		if logIt {
			s.durMu[shard].RUnlock()
		}
	}
	if err := e.ledger.Check(tuples); err != nil {
		unlock()
		return nil, err
	}
	// Log the (validated) append before the swap: an acknowledged append
	// is durable, a failed log leaves the served table untouched.
	if logIt {
		if err := s.durable.LogAppend(name, tuples); err != nil {
			unlock()
			return nil, &durabilityError{err}
		}
	}
	e.ledger.Commit(tuples)
	tab := old.tab.Extend(tuples)
	next := &tableState{tab: tab, snap: tab.Snapshot()}
	// Extend the table's live dynamic index with the appended tuples —
	// O(log n) each, wherever they land in the rank order — and attach its
	// frozen view to the new snapshot, so the engine prepares from the index
	// (only the scanned rank prefix, for thresholded queries) instead of
	// sorting the whole table. The index's sequence numbers follow arrival
	// order, so its canonical tie-breaking is identical to Prepare's stable
	// sort of the snapshot.
	if e.idx != nil {
		for _, tp := range tuples {
			if _, err := e.idx.Insert(tp); err != nil {
				// Unreachable for checked tuples; drop the (now partially
				// updated) index rather than serve a divergent one.
				e.idx = nil
				break
			}
		}
		if e.idx != nil {
			next.snap.SetIndexView(e.idx.Freeze())
		}
	}
	e.state.Store(next)
	unlock()
	s.cache.InvalidateTable(name) // reclaims the old snapshot's entries
	if logIt {
		s.maybeCheckpoint()
	}
	return next, nil
}

// --- query endpoints ---

// decodeRequest extracts the query from URL parameters (GET) or the JSON
// body (POST).
func decodeRequest(r *http.Request) (*QueryRequest, error) {
	if r.Method == http.MethodGet {
		return decodeQueryParams(r.URL.Query())
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("reading body: %v", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("empty query body")
	}
	return decodeQueryJSON(data)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, kindTopK, "")
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, kindBatch, "")
}

func (s *Server) handleTypical(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, kindTypical, "")
}

func (s *Server) handleBaseline(w http.ResponseWriter, r *http.Request) {
	semantic := r.PathValue("semantic")
	if !baselineKinds[semantic] {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown baseline %q (want utopk, ukranks, ptk, globaltopk, intopk or expectedrank)", semantic))
		return
	}
	s.serveQuery(w, r, kindBaseline, semantic)
}

// flightResult is the value fanned out by a coalesced cold-query flight:
// an encoded answer on success, an HTTP status + message otherwise. The
// zero value (status 0) marks a flight whose leader died; followers map it
// to 500.
type flightResult struct {
	data   []byte
	status int
	errMsg string
}

// serveQuery is the shared read path: decode and resolve the query, load
// the table's published snapshot, try the derived-answer cache, and on a
// miss join the coalesced flight that computes and fills. No lock is held
// at any point — the snapshot is immutable, so the dynamic program runs
// entirely outside the mutation path, a slow query never delays an append,
// and a stalled client connection can wedge nothing. The snapshot identity
// in both the cache key and the flight key pins the exact published state
// the answer came from, so the late Put of a query racing a mutation can
// never be served for the successor state, and a flight follower can never
// receive an answer for a snapshot other than the one it asked about.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, kind queryKind, baseline string) {
	start := time.Now()
	q, err := decodeRequest(r)
	if err != nil {
		s.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rq, err := q.resolve(kind, baseline)
	if err != nil {
		s.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	st, ok := s.reg.load(name)
	if !ok {
		s.queryErrors.Add(1)
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	key := anscache.Key{Table: name, Snapshot: st.snap.ID(), Query: rq.fingerprint()}
	if data, ok := s.cache.Get(key); ok {
		s.cached.record(time.Since(start))
		writeRaw(w, http.StatusOK, data)
		return
	}
	var client string
	if s.throttler != nil {
		client = fairness.ClientID(r)
	}
	fkey := fmt.Sprintf("%s\x00%d\x00%s", name, st.snap.ID(), rq.fingerprint())
	res, shared := s.flight.Do(fkey, func() flightResult {
		return s.computeAndFill(st.snap, rq, key, client)
	})
	if res.status != http.StatusOK {
		s.queryErrors.Add(1)
		switch {
		case res.status == http.StatusTooManyRequests && s.throttler != nil:
			// Genuine shortage: the cold-query gate was exhausted. The
			// throttler already penalized the client; answer like the
			// middleware would.
			s.throttler.WriteShed(w)
		case res.status == 0:
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		default:
			writeError(w, res.status, fmt.Errorf("%s", res.errMsg))
		}
		return
	}
	if shared {
		s.coalesced.record(time.Since(start))
	} else {
		s.computed.record(time.Since(start))
	}
	writeRaw(w, http.StatusOK, res.data)
}

// computeAndFill is the flight leader's body: pass the fairness compute
// gate, run the engine against the pinned snapshot, encode, and fill the
// cache recording the measured recompute cost (what a future hit saves —
// the currency of the cost-aware eviction policy).
func (s *Server) computeAndFill(snap *probtopk.Snapshot, rq *resolvedQuery, key anscache.Key, client string) flightResult {
	if s.throttler != nil {
		release, ok := s.throttler.AcquireCompute(client)
		if !ok {
			return flightResult{status: http.StatusTooManyRequests, errMsg: "overloaded: cold-query capacity exhausted"}
		}
		defer release()
	}
	costStart := time.Now()
	resp, err := s.compute(snap, rq)
	if err != nil {
		// The request was well-formed; the queried contents make it
		// unanswerable (empty table, no k co-existing tuples, ...).
		return flightResult{status: http.StatusUnprocessableEntity, errMsg: err.Error()}
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return flightResult{status: http.StatusInternalServerError, errMsg: fmt.Sprintf("encoding response: %v", err)}
	}
	s.cache.Put(key, data, time.Since(costStart))
	return flightResult{data: data, status: http.StatusOK}
}

// compute runs the resolved query against the immutable snapshot through
// the shared engine.
func (s *Server) compute(snap *probtopk.Snapshot, rq *resolvedQuery) (any, error) {
	switch rq.kind {
	case kindTopK:
		d, err := s.engine.TopKDistributionSnapshot(snap, rq.k, rq.options())
		if err != nil {
			return nil, err
		}
		return distResponse(rq.k, d), nil
	case kindBatch:
		ds, err := s.engine.TopKDistributionBatchSnapshot(snap, rq.batch, rq.options())
		if err != nil {
			return nil, err
		}
		resp := BatchResponse{Results: make([]DistributionResponse, len(ds))}
		for i, d := range ds {
			resp.Results[i] = distResponse(rq.batch[i].K, d)
		}
		return resp, nil
	case kindTypical:
		d, err := s.engine.TopKDistributionSnapshot(snap, rq.k, rq.options())
		if err != nil {
			return nil, err
		}
		lines, cost, err := d.Typical(rq.c)
		if err != nil {
			return nil, err
		}
		resp := TypicalResponse{K: rq.k, C: rq.c, Cost: cost, Lines: []LineJSON{}}
		for _, l := range lines {
			resp.Lines = append(resp.Lines, lineJSON(l))
		}
		resp.SpreadMean, resp.SpreadMax = probtopk.TypicalSpread(lines)
		return resp, nil
	case kindBaseline:
		return s.computeBaseline(snap, rq)
	}
	return nil, fmt.Errorf("unknown query kind %q", rq.kind)
}

func (s *Server) computeBaseline(snap *probtopk.Snapshot, rq *resolvedQuery) (any, error) {
	resp := BaselineResponse{Semantic: rq.baseline, K: rq.k}
	switch rq.baseline {
	case "utopk":
		l, err := s.engine.UTopKSnapshot(snap, rq.k)
		if err != nil {
			return nil, err
		}
		lj := lineJSON(l)
		resp.Line = &lj
	case "ukranks":
		rows, err := s.engine.UKRanksSnapshot(snap, rq.k)
		if err != nil {
			return nil, err
		}
		resp.Ranks = []RankedTupleJSON{}
		for _, a := range rows {
			resp.Ranks = append(resp.Ranks, RankedTupleJSON{Rank: a.Rank, ID: a.ID, Score: a.Score, Prob: a.Prob})
		}
	case "ptk":
		resp.P = rq.p
		tps, err := s.engine.PTkSnapshot(snap, rq.k, rq.p)
		if err != nil {
			return nil, err
		}
		resp.Tuples = tupleProbJSON(tps)
	case "globaltopk":
		tps, err := s.engine.GlobalTopKSnapshot(snap, rq.k)
		if err != nil {
			return nil, err
		}
		resp.Tuples = tupleProbJSON(tps)
	case "intopk":
		tps, err := s.engine.InTopKProbsSnapshot(snap, rq.k)
		if err != nil {
			return nil, err
		}
		resp.Tuples = tupleProbJSON(tps)
	case "expectedrank":
		rows, err := s.engine.ExpectedRankTopKSnapshot(snap, rq.k)
		if err != nil {
			return nil, err
		}
		resp.Expected = []ExpectedRankJSON{}
		for _, a := range rows {
			resp.Expected = append(resp.Expected, ExpectedRankJSON{ID: a.ID, Score: a.Score, Prob: a.Prob, Rank: a.Rank})
		}
	default:
		return nil, fmt.Errorf("unknown baseline %q", rq.baseline)
	}
	return resp, nil
}

func tupleProbJSON(tps []probtopk.TupleProb) []TupleProbJSON {
	out := []TupleProbJSON{}
	for _, tp := range tps {
		out = append(out, TupleProbJSON{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, InTopK: tp.InTopK})
	}
	return out
}
