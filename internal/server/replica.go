package server

import (
	"fmt"
	"net/http"

	"probtopk"
)

// This file is the server's follower-side replication surface: the
// read-only guard on the mutating endpoints, the Apply* methods the
// replication stream feeds replicated records through, and the stats hook
// that lets /debug/stats render replication state without this package
// importing internal/repl (repl imports server's types, never the other
// way around — the daemon wires the two together).

// readOnlyError rejects a write on a follower. 403 (not 405): the method
// and route are fine, this PROCESS refuses writes by policy, and the body
// tells the client where they go.
func (s *Server) readOnlyError(w http.ResponseWriter) {
	w.Header().Set("X-Topk-Leader", s.followerOf)
	writeError(w, http.StatusForbidden,
		fmt.Errorf("read-only follower: writes go to the leader at %s", s.followerOf))
}

// ReadOnly reports whether the server rejects writes (follower mode).
func (s *Server) ReadOnly() bool { return s.followerOf != "" }

// SetReplicationStats registers fn as the source of the /debug/stats
// replication block. fn is called per stats request and must be safe for
// concurrent use; nil detaches. The daemon wires a follower's (or leader's)
// live status here.
func (s *Server) SetReplicationStats(fn func() *ReplicationJSON) {
	s.replStats.Store(&fn)
}

// replicationJSON resolves the registered stats hook, if any.
func (s *Server) replicationJSON() *ReplicationJSON {
	if p := s.replStats.Load(); p != nil && *p != nil {
		return (*p)()
	}
	return nil
}

// TableNames returns every hosted table name, sorted. The replication
// stream uses it to resolve a shard reset into the local tables to drop.
func (s *Server) TableNames() []string { return s.reg.names() }

// ApplyPut installs tuples as table name's full contents — the replication
// apply path for a put record. Like RestoreTable it validates but never
// logs (the record is already durable on the leader) and never triggers a
// checkpoint; unlike the HTTP path it bypasses the read-only guard, which
// exists to keep CLIENT writes off a follower, not replicated ones.
func (s *Server) ApplyPut(name string, tuples []probtopk.Tuple) error {
	tab := probtopk.NewTable()
	for _, tp := range tuples {
		tab.Add(tp)
	}
	_, _, err := s.installTable(name, tab, false)
	return err
}

// ApplyAppend applies a replicated append record through the HTTP path's
// appendTuples, minus logging and the durability mutex (the follower has
// no WAL to order against; per-table order comes from the entry lock, and
// the replication stream is single-threaded per shard anyway). An append
// that does not validate against the local state means the follower has
// diverged — the caller treats the error as "resync".
func (s *Server) ApplyAppend(name string, tuples []probtopk.Tuple) error {
	_, err := s.appendTuples(name, tuples, false)
	return err
}

// ApplyDelete applies a replicated delete record (or a shard reset's
// table drop).
func (s *Server) ApplyDelete(name string) error {
	if !s.reg.remove(name) {
		return fmt.Errorf("no table %q", name)
	}
	s.cache.InvalidateTable(name)
	return nil
}
