package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"probtopk"
	"probtopk/internal/persist"
	"probtopk/internal/uncertain"
)

// maxTableNameLen bounds registry names so they stay usable as cache keys
// and log fields.
const maxTableNameLen = 128

// tableState is one published, immutable state of a hosted table: the table
// value — never mutated after publication; appends publish a successor that
// shares its append-only storage (Table.Extend) — and its snapshot, whose
// process-unique identity stamps the state for every cache above.
type tableState struct {
	tab  *probtopk.Table
	snap *probtopk.Snapshot
}

// tableEntry is one hosted table. Readers load the published state from the
// atomic pointer and then hold NOTHING: the snapshot they got is immutable,
// so the whole query — preparation, dynamic program, cache fill — runs
// lock-free and can never block or be blocked by a mutation. The mutex
// serializes mutations (append, replace) against each other only.
type tableEntry struct {
	mu    sync.Mutex // held by mutations; never by queries
	state atomic.Pointer[tableState]
	// idx is the table's live dynamic index, maintained across mutations
	// under mu (never touched by queries): appends insert into it in O(log n)
	// instead of abandoning the previous prepared order, and each published
	// snapshot carries its frozen view so the engine materializes the
	// prepared form from the index — reusing the unchanged rank prefix —
	// rather than sorting from scratch. nil only if index construction failed
	// (defensive; validated tables always index cleanly), in which case
	// queries fall back to the sort-based Prepare.
	idx *uncertain.Index
	// ledger is the published table's validation state (tuple ids and
	// per-group probability sums), maintained under mu, so an append checks
	// only its own tuples.
	ledger *uncertain.Ledger
}

// hostedTable is a validated table ready to install: its first published
// state, its dynamic index and its ledger.
type hostedTable struct {
	st     *tableState
	idx    *uncertain.Index
	ledger *uncertain.Ledger
}

// newHostedTable validates tab — the data-model rules and unique ids — and
// builds its published state with a fresh dynamic index: the snapshot
// carries the index's frozen view.
func newHostedTable(tab *probtopk.Table) (*hostedTable, error) {
	ledger, err := uncertain.NewLedger(tab)
	if err != nil {
		return nil, err
	}
	h := &hostedTable{st: &tableState{tab: tab, snap: tab.Snapshot()}, ledger: ledger}
	if idx, err := uncertain.NewIndexOf(tab.Tuples()); err == nil {
		h.st.snap.SetIndexView(idx.Freeze())
		h.idx = idx
	}
	return h, nil
}

// registryShard is one slice of the name→table map with its own lock.
// Names are routed by persist.ShardOf — the same hash that picks a durable
// mutation's WAL shard — so a table's map entry, its durability mutex and
// its WAL segments all live on one shard and mutations of tables on
// different shards share no lock at all.
type registryShard struct {
	mu     sync.RWMutex
	tables map[string]*tableEntry
}

// registry maps names to hosted tables, split across one or more shards.
// Each shard's lock only guards its map; per-table state is published
// through each entry's atomic pointer, so a query on one table never
// blocks anything — not mutations of the same table, not other tables.
type registry struct {
	shards []*registryShard
}

func newRegistry(shards int) *registry {
	if shards < 1 {
		shards = 1
	}
	r := &registry{shards: make([]*registryShard, shards)}
	for i := range r.shards {
		r.shards[i] = &registryShard{tables: make(map[string]*tableEntry)}
	}
	return r
}

// shardIndex routes a table name to its shard.
func (r *registry) shardIndex(name string) int {
	return persist.ShardOf(name, len(r.shards))
}

// shard returns the shard owning name.
func (r *registry) shard(name string) *registryShard {
	return r.shards[r.shardIndex(name)]
}

// checkTableName validates a registry name: non-empty, bounded, and limited
// to [A-Za-z0-9._-] so names embed cleanly in URLs and fingerprints.
func checkTableName(name string) error {
	if name == "" {
		return fmt.Errorf("empty table name")
	}
	if len(name) > maxTableNameLen {
		return fmt.Errorf("table name longer than %d bytes", maxTableNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("table name contains invalid byte %q (allowed: letters, digits, '.', '_', '-')", c)
		}
	}
	return nil
}

// entry returns the tableEntry for name.
func (r *registry) entry(name string) (*tableEntry, bool) {
	sh := r.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.tables[name]
	return e, ok
}

// load returns name's currently published state. This is the whole read
// path: one map read and one atomic load, no per-table lock. The returned
// state is immutable; a concurrent delete or replace cannot invalidate it,
// and answers derived from it are keyed by its snapshot identity, which is
// never reused.
func (r *registry) load(name string) (*tableState, bool) {
	e, ok := r.entry(name)
	if !ok {
		return nil, false
	}
	return e.state.Load(), true
}

// acquireMutate returns name's entry with its mutation lock held and the
// state published at lock time, re-checking registration so a mutation
// cannot land on an entry a concurrent delete has orphaned (it must surface
// as "no table", not as an acknowledged write no lookup can see). The
// caller must e.mu.Unlock.
func (r *registry) acquireMutate(name string) (*tableEntry, *tableState, bool) {
	for {
		e, ok := r.entry(name)
		if !ok {
			return nil, nil, false
		}
		e.mu.Lock()
		if cur, ok := r.entry(name); ok && cur == e {
			return e, e.state.Load(), true
		}
		e.mu.Unlock()
	}
}

// put publishes the pre-built table under name, replacing any previous
// table, and reports whether the name was new. h comes from
// newHostedTable, built by the caller outside the registry locks.
func (r *registry) put(name string, h *hostedTable) (created bool) {
	sh := r.shard(name)
	for {
		sh.mu.Lock()
		e, ok := sh.tables[name]
		if !ok {
			e = &tableEntry{idx: h.idx, ledger: h.ledger}
			e.state.Store(h.st)
			sh.tables[name] = e
			sh.mu.Unlock()
			return true
		}
		sh.mu.Unlock()
		// Replace under the entry's mutation lock (serializing against
		// appends), then re-check the entry is still registered: a
		// concurrent delete may have orphaned it, and swapping onto an
		// orphan would acknowledge an upload that no lookup can ever see.
		// In-flight queries are unaffected either way — they hold the old
		// immutable state.
		e.mu.Lock()
		cur, ok := r.entry(name)
		if !ok || cur != e {
			e.mu.Unlock()
			continue
		}
		e.idx, e.ledger = h.idx, h.ledger
		e.state.Store(h.st)
		e.mu.Unlock()
		return false
	}
}

// remove deletes name, reporting whether it was hosted. It never waits:
// in-flight queries over the removed table finish against the immutable
// state they already hold.
func (r *registry) remove(name string) bool {
	sh := r.shard(name)
	sh.mu.Lock()
	_, ok := sh.tables[name]
	delete(sh.tables, name)
	sh.mu.Unlock()
	return ok
}

// names returns every hosted table name, sorted.
func (r *registry) names() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for n := range sh.tables {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// shardNames returns the names hosted on one shard (unsorted).
func (r *registry) shardNames(shard int) []string {
	sh := r.shards[shard]
	sh.mu.RLock()
	out := make([]string, 0, len(sh.tables))
	for n := range sh.tables {
		out = append(out, n)
	}
	sh.mu.RUnlock()
	return out
}

// len returns the number of hosted tables.
func (r *registry) len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.tables)
		sh.mu.RUnlock()
	}
	return n
}
