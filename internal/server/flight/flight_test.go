package flight

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// followers reports how many callers have joined key's in-progress flight
// as followers: 0 when key is not in flight.
func followers[V any](g *Group[V], key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// N concurrent callers on one cold key execute fn exactly once and all see
// the leader's value.
func TestCoalesce(t *testing.T) {
	var g Group[int]
	var execs atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	vals := make([]int, n)
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], shared[i] = g.Do("k", func() int {
				<-gate
				return int(execs.Add(1)) * 100
			})
		}(i)
	}
	// Hold the leader until every other caller has joined its flight as a
	// follower; a caller arriving after the leader finished would rightly
	// run fn again.
	for followers(&g, "k") < n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	var leaders int
	for i := 0; i < n; i++ {
		if vals[i] != 100 {
			t.Fatalf("caller %d got %d, want 100", i, vals[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if g.InFlight() != 0 {
		t.Fatalf("key leaked: %d in flight", g.InFlight())
	}
}

// Sequential calls re-execute: the group is a stampede absorber, not a
// cache.
func TestSequentialCallsRecompute(t *testing.T) {
	var g Group[int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, shared := g.Do("k", func() int { calls++; return calls })
		if shared || v != i+1 {
			t.Fatalf("call %d: v=%d shared=%v", i, v, shared)
		}
	}
}

// Distinct keys never coalesce.
func TestDistinctKeys(t *testing.T) {
	var g Group[string]
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if v, _ := g.Do(k, func() string { return k }); v != k {
				t.Errorf("key %q got %q", k, v)
			}
		}(k)
	}
	wg.Wait()
}

// A panicking leader must not strand followers: they unblock with the zero
// value and the key is forgotten.
func TestLeaderPanicUnblocksFollowers(t *testing.T) {
	var g Group[int]
	gate := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		defer func() { recover() }()
		g.Do("k", func() int { <-gate; panic("boom") })
	}()
	for g.InFlight() == 0 {
	}
	var followerRan atomic.Bool
	go func() {
		v, _ := g.Do("k", func() int { followerRan.Store(true); return 7 })
		done <- v
	}()
	// Give the follower time to join the flight; if it loses the race and
	// becomes a fresh leader instead, the assertions below account for it.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	v := <-done
	if followerRan.Load() {
		if v != 7 {
			t.Fatalf("late caller ran fn but got %d", v)
		}
	} else if v != 0 {
		t.Fatalf("follower of panicked leader got %d, want zero value", v)
	}
	if v, shared := g.Do("k", func() int { return 7 }); shared || v != 7 {
		t.Fatalf("key not forgotten after panic: v=%d shared=%v", v, shared)
	}
}
