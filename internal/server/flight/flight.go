// Package flight coalesces concurrent duplicate computations: when many
// callers ask for the same key at once (a cache-miss stampede on a popular
// cold query), exactly one runs the computation and every concurrent
// caller shares its result.
//
// Unlike a cache, a Group holds no state for quiescent keys — the moment
// the leader finishes, the key is forgotten and a later call computes
// afresh. The store of record (here, the answer cache) sits in front; the
// Group only absorbs the window where the store is cold AND popular.
//
// Staleness is the caller's contract: the key must pin everything the
// result depends on. The server keys flights on (table, snapshot id, query
// fingerprint), and snapshot ids are process-unique and never reused, so a
// follower joining a flight can only ever receive the answer for exactly
// the snapshot it asked about — a mutation mid-flight changes the id and
// therefore the key.
package flight

import "sync"

// call is one in-progress computation: followers block on done and then
// read val.
type call[V any] struct {
	done chan struct{}
	val  V
	// dups counts the followers that joined this call, under Group.mu;
	// tests read it to know when every caller is parked.
	dups int
}

// Group deduplicates concurrent calls by key. The zero value is ready to
// use; a Group must not be copied after first use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do runs fn once per key among concurrent callers: the first caller for a
// key (the leader) executes fn, every caller that arrives before the
// leader finishes blocks and receives the leader's value, and shared
// reports whether the value came from another caller's execution. The key
// is forgotten once the leader returns, so sequential calls re-execute.
//
// If fn panics, the panic propagates to the leader and followers receive
// V's zero value rather than deadlocking; callers whose zero value is not
// self-describing should encode failure inside V.
func (g *Group[V]) Do(key string, fn func() V) (v V, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, true
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val = fn()
	return c.val, false
}

// InFlight reports the number of keys currently being computed.
func (g *Group[V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
