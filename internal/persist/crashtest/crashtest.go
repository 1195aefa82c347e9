// Package crashtest is the crash-injection harness for the durability
// layer: a failure-injecting file implementation that the WAL and snapshot
// writers accept through their OpenFile hooks, plus the shared error it
// raises. The property test in this package drives randomized
// mutate/checkpoint/crash/recover interleavings through internal/persist
// and asserts recovered tables answer queries bit-identically to an
// in-memory oracle.
package crashtest

import (
	"errors"
	"os"
	"sync"

	"probtopk/internal/wal"
)

// ErrInjected is returned by a FailingFile once its write budget is
// exhausted — the simulated moment the machine dies mid-write.
var ErrInjected = errors.New("crashtest: injected write failure")

// Budget is a write allowance shared by every file of one injected
// "process": once Remaining hits zero, every further write fails, exactly
// like a process that lost its disk. A partial write consumes the rest of
// the budget and leaves torn bytes behind — the case recovery must
// truncate away. LimitSyncs adds an independent fsync allowance for
// injecting the other way a disk dies: writes land but fsyncs fail.
type Budget struct {
	mu        sync.Mutex
	remaining int64
	syncs     int64 // fsyncs still allowed; -1 = unlimited
	tripped   bool
}

// NewBudget returns a budget allowing n written bytes and unlimited
// fsyncs.
func NewBudget(n int64) *Budget { return &Budget{remaining: n, syncs: -1} }

// LimitSyncs caps the fsyncs this budget's files will perform from now
// on: after n more successful Syncs, every further Sync (file or
// directory) returns ErrInjected.
func (b *Budget) LimitSyncs(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncs = n
}

// Refill grants n more written bytes: the disk comes back, so a log whose
// failed write was rolled back can accept appends again.
func (b *Budget) Refill(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.remaining += n
}

// Tripped reports whether a write or fsync has failed against this budget.
func (b *Budget) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped
}

// OpenFile is the wal/persist OpenFile hook: real files whose writes spend
// the shared budget.
func (b *Budget) OpenFile(path string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &FailingFile{f: f, budget: b}, nil
}

// FailingFile is a real file that errors — after writing a torn prefix —
// once its budget runs out. Reads never fail: crash injection models a
// dying writer, and recovery reads whatever bytes actually landed.
type FailingFile struct {
	f      *os.File
	budget *Budget
}

// Write spends the budget. Under budget it writes fully; over it, it
// writes whatever allowance remains (the torn prefix a real crash leaves)
// and returns ErrInjected.
func (w *FailingFile) Write(p []byte) (int, error) {
	w.budget.mu.Lock()
	allowed := w.budget.remaining
	if int64(len(p)) <= allowed {
		w.budget.remaining -= int64(len(p))
		w.budget.mu.Unlock()
		return w.f.Write(p)
	}
	w.budget.remaining = 0
	w.budget.tripped = true
	w.budget.mu.Unlock()
	n, _ := w.f.Write(p[:allowed])
	return n, ErrInjected
}

// Sync passes through unless the budget's fsync allowance (LimitSyncs) is
// exhausted; by default durability failures are injected at the write, so
// the acknowledged-bytes accounting in the property test stays exact.
func (w *FailingFile) Sync() error {
	w.budget.mu.Lock()
	switch {
	case w.budget.syncs < 0:
		w.budget.mu.Unlock()
		return w.f.Sync()
	case w.budget.syncs == 0:
		w.budget.tripped = true
		w.budget.mu.Unlock()
		return ErrInjected
	default:
		w.budget.syncs--
		w.budget.mu.Unlock()
		return w.f.Sync()
	}
}

// Close passes through.
func (w *FailingFile) Close() error { return w.f.Close() }
