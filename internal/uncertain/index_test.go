package uncertain

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"
)

// dynN sizes the randomized differential harness; nightly CI raises it
// (-dynamic.n 10000) for a long soak.
var dynN = flag.Int("dynamic.n", 2000, "steps for the dynamic-index differential harness")

// mirrorEntry pairs a live tuple with its index sequence number. The mirror
// slice is kept in ascending-seq (insertion) order, which is exactly the
// tie-break Prepare's stable sort applies, so prepareTuples over the mirror
// is a from-scratch oracle for the index contents.
type mirrorEntry struct {
	seq uint64
	t   Tuple
}

// comparePrepared checks that got (materialized from an Index) and want
// (from-scratch oracle) are identical in every query-visible way. Orig is
// excluded: index-materialized tables use the prepared position itself,
// batch-prepared ones the insertion position; no query result depends on it.
func comparePrepared(t *testing.T, step int, got, want *Prepared) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: len %d != oracle %d", step, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.ID != w.ID || g.Score != w.Score || g.Prob != w.Prob || g.Group != w.Group || g.Lead != w.Lead {
			t.Fatalf("step %d: position %d: got %+v, oracle %+v", step, i, g, w)
		}
	}
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("step %d: groups %d != oracle %d", step, got.NumGroups(), want.NumGroups())
	}
	for g := 0; g < want.NumGroups(); g++ {
		gm, wm := got.GroupMembers(g), want.GroupMembers(g)
		if len(gm) != len(wm) {
			t.Fatalf("step %d: group %d members %v != oracle %v", step, g, gm, wm)
		}
		for j := range wm {
			if gm[j] != wm[j] {
				t.Fatalf("step %d: group %d members %v != oracle %v", step, g, gm, wm)
			}
		}
		for j := range got.groupCum[g] {
			if got.groupCum[g][j] != want.groupCum[g][j] {
				t.Fatalf("step %d: group %d cum[%d] = %v != oracle %v",
					step, g, j, got.groupCum[g][j], want.groupCum[g][j])
			}
		}
	}
	for i := 0; i <= want.Len(); i++ {
		if got.PrefixProbability(i) != want.PrefixProbability(i) {
			t.Fatalf("step %d: cumProb[%d] = %v != oracle %v",
				step, i, got.PrefixProbability(i), want.PrefixProbability(i))
		}
	}
	for i := 0; i < want.Len(); i++ {
		gs, ge := got.TieGroup(i)
		ws, we := want.TieGroup(i)
		if gs != ws || ge != we {
			t.Fatalf("step %d: tie group at %d = [%d,%d) != oracle [%d,%d)", step, i, gs, ge, ws, we)
		}
	}
}

// checkTreeAccessors validates the index's O(log n) tree-native answers
// against the oracle Prepared. Tree aggregates sum floats in a different
// association order than the flat prefix arrays, so these use a tolerance,
// unlike the bit-exact materialized comparison.
func checkTreeAccessors(t *testing.T, step int, ix *Index, want *Prepared, mirror []mirrorEntry) {
	t.Helper()
	const tol = 1e-9
	if ix.Len() != want.Len() {
		t.Fatalf("step %d: index len %d != oracle %d", step, ix.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		at := ix.At(i)
		w := want.Tuples[i]
		if at.ID != w.ID || at.Score != w.Score || at.Prob != w.Prob {
			t.Fatalf("step %d: At(%d) = %+v, oracle %+v", step, i, at, w)
		}
		gs, ge := ix.TieGroup(i)
		ws, we := want.TieGroup(i)
		if gs != ws || ge != we {
			t.Fatalf("step %d: index tie group at %d = [%d,%d) != oracle [%d,%d)", step, i, gs, ge, ws, we)
		}
	}
	probe := []int{0, want.Len() / 3, want.Len() / 2, want.Len()}
	for _, pos := range probe {
		if d := ix.PrefixProbability(pos) - want.PrefixProbability(pos); d > tol || d < -tol {
			t.Fatalf("step %d: index PrefixProbability(%d) = %v, oracle %v",
				step, pos, ix.PrefixProbability(pos), want.PrefixProbability(pos))
		}
	}
	// Per-group masses: resolve each named group to its dense oracle id via
	// any member, then compare GroupMass and PrefixMass at the probes.
	names := make(map[string]int)
	for pos, me := range mirrorByRank(want, mirror) {
		if g := me.t.Group; g != "" {
			if _, ok := names[g]; !ok {
				names[g] = want.Tuples[pos].Group
			}
		}
	}
	for name, g := range names {
		full := want.PrefixMass(g, want.Len())
		if d := ix.GroupMass(name) - full; d > tol || d < -tol {
			t.Fatalf("step %d: GroupMass(%q) = %v, oracle %v", step, name, ix.GroupMass(name), full)
		}
		for _, pos := range probe {
			if d := ix.PrefixMass(name, pos) - want.PrefixMass(g, pos); d > tol || d < -tol {
				t.Fatalf("step %d: PrefixMass(%q, %d) = %v, oracle %v",
					step, name, pos, ix.PrefixMass(name, pos), want.PrefixMass(g, pos))
			}
		}
	}
}

// checkPrefixes checks IndexView.MaterializePrefix on an unmaterialized view
// of ix's current contents against the oracle want (nil when the contents
// are invalid). An invalid index must refuse every prefix, so the whole
// form reports the error. Otherwise, for a spread of scan bounds, a prefix
// must end a tie group, be the shortest such prefix reaching mass
// bound+1+tolerance, and agree with the oracle over its ranks on rows,
// group ids, lead flags, PrefixProbability, PrefixMass and TieGroup.
func checkPrefixes(t *testing.T, step int, ix *Index, want *Prepared) {
	t.Helper()
	unbounded := 0
	for _, g := range ix.groups {
		if !provablyBounded(g) {
			unbounded++
		}
	}
	if unbounded != ix.unbounded {
		t.Fatalf("step %d: index counts %d unbounded groups, recount %d", step, ix.unbounded, unbounded)
	}
	view := func() *IndexView {
		return &IndexView{root: ix.root, n: ix.Len(), gen: ix.gen, bounded: ix.unbounded == 0}
	}
	if want == nil {
		if p := view().MaterializePrefix(0); p != nil {
			t.Fatalf("step %d: invalid contents served a %d-rank prefix", step, p.Len())
		}
		return
	}
	const slack = 1e-9 // tree aggregates against the oracle's running sums
	total := want.PrefixProbability(want.Len())
	for _, bound := range []float64{0, 0.5, 2, total / 3, total/2 - 1, total - 2} {
		v := view()
		p := v.MaterializePrefix(bound)
		if p == nil {
			continue
		}
		d := p.Len()
		if d >= want.Len() {
			t.Fatalf("step %d: bound %v: prefix of %d ranks spans the %d-tuple table", step, bound, d, want.Len())
		}
		if want.Tuples[d].Score == want.Tuples[d-1].Score {
			t.Fatalf("step %d: bound %v: prefix of %d ranks splits a tie group", step, bound, d)
		}
		target := bound + 1 + probSumTolerance
		start, _ := want.TieGroup(d - 1)
		if want.PrefixProbability(d-1) < target-slack || (start > 0 && want.PrefixProbability(start-1) >= target+slack) {
			t.Fatalf("step %d: bound %v: %d ranks is not the shortest prefix reaching mass %v", step, bound, d, target)
		}
		for i := 0; i < d; i++ {
			g, w := p.Tuples[i], want.Tuples[i]
			if g.ID != w.ID || g.Score != w.Score || g.Prob != w.Prob || g.Group != w.Group || g.Lead != w.Lead {
				t.Fatalf("step %d: bound %v: prefix position %d: got %+v, oracle %+v", step, bound, i, g, w)
			}
			if gs, ge := p.TieGroup(i); [2]int{gs, ge} != [2]int{want.tieStart[i], want.tieEnd[i]} {
				t.Fatalf("step %d: bound %v: prefix tie group at %d = [%d,%d), oracle [%d,%d)",
					step, bound, i, gs, ge, want.tieStart[i], want.tieEnd[i])
			}
		}
		for i := 0; i <= d; i++ {
			if p.PrefixProbability(i) != want.PrefixProbability(i) {
				t.Fatalf("step %d: bound %v: prefix cumProb[%d] = %v, oracle %v",
					step, bound, i, p.PrefixProbability(i), want.PrefixProbability(i))
			}
			for g := 0; g < p.NumGroups(); g++ {
				if p.PrefixMass(g, i) != want.PrefixMass(g, i) {
					t.Fatalf("step %d: bound %v: prefix PrefixMass(%d, %d) = %v, oracle %v",
						step, bound, g, i, p.PrefixMass(g, i), want.PrefixMass(g, i))
				}
			}
		}
		// A smaller bound needs no more ranks: the memo serves it.
		if again := v.MaterializePrefix(bound - 1); again != p {
			t.Fatalf("step %d: bound %v: prefix not memoized", step, bound)
		}
	}
}

// mirrorByRank reorders the mirror entries into the oracle's prepared order
// (the oracle's Orig is the mirror index).
func mirrorByRank(want *Prepared, mirror []mirrorEntry) []mirrorEntry {
	out := make([]mirrorEntry, len(mirror))
	for pos, pt := range want.Tuples {
		out[pos] = mirror[pt.Orig]
	}
	return out
}

func oracleTuples(mirror []mirrorEntry) []Tuple {
	out := make([]Tuple, len(mirror))
	for i, me := range mirror {
		out[i] = me.t
	}
	return out
}

// randTuple draws from small score/probability palettes so duplicate-score
// runs, (score, prob) ties, and exact canonical ties (seq-broken) all occur
// constantly, and from a small group pool so ME membership churns.
func randTuple(rng *rand.Rand, id int) Tuple {
	t := Tuple{
		ID:    fmt.Sprintf("t%d", id),
		Score: float64(rng.Intn(12)),
		Prob:  []float64{0.05, 0.1, 0.1, 0.15, 0.2, 0.3}[rng.Intn(6)],
	}
	if rng.Intn(10) < 3 {
		t.Group = fmt.Sprintf("g%d", rng.Intn(5))
	}
	return t
}

// TestDynamicIndexDifferential drives thousands of interleaved
// Insert/Delete/Update/query steps against the from-scratch Prepare oracle,
// proving the materialized view and the tree-native accessors bit-identical
// (resp. tolerance-identical) to batch preparation at every step — including
// overfull-ME-group episodes, where both sides must fail together.
func TestDynamicIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := NewIndex()
	var mirror []mirrorEntry
	nextID := 0
	mutations := uint64(0)

	for step := 0; step < *dynN; step++ {
		op := rng.Intn(100)
		switch {
		case op < 50 || len(mirror) == 0: // insert
			tp := randTuple(rng, nextID)
			nextID++
			seq, err := ix.Insert(tp)
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			mirror = append(mirror, mirrorEntry{seq: seq, t: tp})
			mutations++
		case op < 75: // delete
			i := rng.Intn(len(mirror))
			got, ok := ix.Delete(mirror[i].seq)
			if !ok || got != mirror[i].t {
				t.Fatalf("step %d: delete seq %d: got %+v ok=%v, want %+v",
					step, mirror[i].seq, got, ok, mirror[i].t)
			}
			mirror = append(mirror[:i], mirror[i+1:]...)
			mutations++
		default: // update in place (same seq keeps the canonical tie-break)
			i := rng.Intn(len(mirror))
			tp := randTuple(rng, nextID)
			tp.ID = mirror[i].t.ID
			nextID++
			if err := ix.Update(mirror[i].seq, tp); err != nil {
				t.Fatalf("step %d: update seq %d: %v", step, mirror[i].seq, err)
			}
			mirror[i].t = tp
			mutations++
		}

		want, werr := prepareTuples(oracleTuples(mirror))
		got, gerr := ix.Materialize()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("step %d: oracle err %v, index err %v", step, werr, gerr)
		}
		checkPrefixes(t, step, ix, want)
		if werr != nil {
			continue // overfull in-window group: both sides agree it's invalid
		}
		comparePrepared(t, step, got, want)
		checkTreeAccessors(t, step, ix, want, mirror)

		// Unchanged index: the memoized *Prepared pointer (and its units
		// memo) must be returned as-is, and Freeze must hand the same view
		// (carrying that same pointer) on every call.
		again, err := ix.Materialize()
		if err != nil || again != got {
			t.Fatalf("step %d: re-materialize got %p err %v, want memoized %p", step, again, err, got)
		}
		v := ix.Freeze()
		if ix.Freeze() != v {
			t.Fatalf("step %d: Freeze not memoized across unchanged index", step)
		}
		vp, err := v.Materialize()
		if err != nil || vp != got {
			t.Fatalf("step %d: view materialize got %p err %v, want owner's %p", step, vp, err, got)
		}
	}

	st := ix.Stats()
	if st.Mutations != mutations {
		t.Fatalf("stats.Mutations = %d, want %d", st.Mutations, mutations)
	}
	if st.FullMaterializations == 0 || st.SuffixMaterializations == 0 || st.MemoHits == 0 {
		t.Fatalf("expected all materialization modes exercised, got %+v", st)
	}
}

// TestIndexViewFrozenUnderMutation freezes a view, then keeps mutating the
// owner: the view must still materialize exactly the contents at freeze
// time (persistence), and a clean owner's later view must share the owner's
// memoized Prepared.
func TestIndexViewFrozenUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := NewIndex()
	var mirror []mirrorEntry
	for i := 0; i < 200; i++ {
		tp := randTuple(rng, i)
		tp.Group = "" // keep every episode valid
		seq, err := ix.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, mirrorEntry{seq: seq, t: tp})
	}
	v := ix.Freeze()
	want, err := prepareTuples(oracleTuples(mirror))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		switch rng.Intn(2) {
		case 0:
			tp := randTuple(rng, 1000+i)
			tp.Group = ""
			if _, err := ix.Insert(tp); err != nil {
				t.Fatal(err)
			}
		case 1:
			j := rng.Intn(len(mirror))
			ix.Delete(mirror[j].seq)
			mirror = append(mirror[:j], mirror[j+1:]...)
		}
	}
	got, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	comparePrepared(t, 0, got, want)
	if again, _ := v.Materialize(); again != got {
		t.Fatal("view materialization not memoized")
	}

	if _, err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	v2 := ix.Freeze()
	p2, err := v2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if own, _ := ix.Materialize(); own != p2 {
		t.Fatal("clean-owner view should share the owner's memoized Prepared")
	}
}

// TestIndexViewConcurrentMaterialize hammers one dirty view from many
// goroutines while the owner keeps mutating — the race detector guards the
// persistence and sync.Once contracts.
func TestIndexViewConcurrentMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex()
	for i := 0; i < 500; i++ {
		if _, err := ix.Insert(randTuple(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	v := ix.Freeze()
	done := make(chan *Prepared, 8)
	for g := 0; g < 8; g++ {
		go func() {
			p, err := v.Materialize()
			if err != nil {
				p = nil
			}
			done <- p
		}()
	}
	for i := 0; i < 500; i++ {
		if _, err := ix.Insert(randTuple(rng, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if p := <-done; p != first {
			t.Fatalf("concurrent view materializations disagree: %p vs %p", p, first)
		}
	}
	if first == nil {
		t.Skip("frozen contents happened to be group-overfull; covered elsewhere")
	}
	if first.Len() != 500 {
		t.Fatalf("view len %d, want the 500 frozen tuples", first.Len())
	}
}

// TestIndexOverfullGroupHeals mirrors the window semantics: an overfull ME
// group errors at Materialize and heals once a member is deleted, with the
// suffix memo still usable afterwards.
func TestIndexOverfullGroupHeals(t *testing.T) {
	ix := NewIndex()
	if _, err := ix.Insert(Tuple{ID: "a", Score: 9, Prob: 0.4}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(Tuple{ID: "b", Score: 8, Prob: 0.7, Group: "g"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	seq, err := ix.Insert(Tuple{ID: "c", Score: 7, Prob: 0.6, Group: "g"})
	if err != nil {
		t.Fatal(err) // Insert is permissive; the error belongs to Materialize
	}
	if _, err := ix.Materialize(); err == nil {
		t.Fatal("overfull group should fail Materialize")
	}
	if _, err := ix.Materialize(); err == nil {
		t.Fatal("error must not be memoized as success")
	}
	if _, ok := ix.Delete(seq); !ok {
		t.Fatal("delete of overfull member failed")
	}
	p, err := ix.Materialize()
	if err != nil {
		t.Fatalf("group should have healed: %v", err)
	}
	if p.Len() != 2 {
		t.Fatalf("len %d, want 2", p.Len())
	}
}

func TestIndexEmptyAndErrors(t *testing.T) {
	ix := NewIndex()
	if _, err := ix.Materialize(); err != ErrEmptyTable {
		t.Fatalf("empty Materialize err = %v, want ErrEmptyTable", err)
	}
	if _, err := ix.Freeze().Materialize(); err != ErrEmptyTable {
		t.Fatalf("empty view Materialize err = %v, want ErrEmptyTable", err)
	}
	if _, err := ix.Insert(Tuple{ID: "x", Score: 1, Prob: 0}); err == nil {
		t.Fatal("invalid probability must be rejected at Insert")
	}
	if err := ix.Update(99, Tuple{ID: "x", Score: 1, Prob: 0.5}); err == nil {
		t.Fatal("update of unknown seq must fail")
	}
	if _, ok := ix.Delete(99); ok {
		t.Fatal("delete of unknown seq must report absence")
	}
	seq, err := ix.Insert(Tuple{ID: "x", Score: 1, Prob: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Update(seq, Tuple{ID: "x", Score: 1, Prob: 2}); err == nil {
		t.Fatal("invalid replacement must be rejected at Update")
	}
	if got, ok := ix.Get(seq); !ok || got.ID != "x" || got.Prob != 0.5 {
		t.Fatalf("failed Update must leave the tuple untouched, got %+v ok=%v", got, ok)
	}
	ix.Delete(seq)
	if ix.Len() != 0 {
		t.Fatalf("len %d after deleting everything", ix.Len())
	}
	if _, err := ix.Materialize(); err != ErrEmptyTable {
		t.Fatalf("emptied Materialize err = %v, want ErrEmptyTable", err)
	}
	if _, err := ix.Freeze().Materialize(); err != ErrEmptyTable {
		t.Fatalf("emptied view err = %v, want ErrEmptyTable", err)
	}
}

// TestIndexAdoptsViewMaterialization checks the serving-layer flow where the
// owner never calls Materialize itself: views are frozen, handed to a query
// engine, and materialized there. The owner must adopt those results back
// into its memo so successive views rebuild from the freshest basis (suffix
// reuse) instead of from scratch every time.
func TestIndexAdoptsViewMaterialization(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 50; i++ {
		if _, err := ix.Insert(Tuple{ID: fmt.Sprintf("a%d", i), Score: float64(i), Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	v1 := ix.Freeze()
	if v1.Ready() != nil {
		t.Fatal("Ready must be nil before the view materializes")
	}
	p1, err := v1.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Ready() != p1 {
		t.Fatal("Ready must return the materialized Prepared")
	}

	// No mutations since the freeze: the owner adopts v1's work outright and
	// its own Materialize becomes a memo hit on the very same pointer.
	p, err := ix.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if p != p1 {
		t.Fatal("owner did not adopt the view's materialization")
	}
	if got := ix.Stats(); got.MemoHits != 1 || got.FullMaterializations != 0 || got.SuffixMaterializations != 0 {
		t.Fatalf("adoption must memo-hit without any owner rebuild, stats %+v", got)
	}

	// Mutate and freeze again without touching the owner's Materialize: the
	// new view must carry the adopted prep as its suffix hint and still agree
	// with the from-scratch oracle.
	if _, err := ix.Insert(Tuple{ID: "mid", Score: 24.5, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	v2 := ix.Freeze()
	if v2 == v1 {
		t.Fatal("mutation must mint a fresh view")
	}
	if v2.hintPrep != p1 {
		t.Fatalf("second view must reuse the adopted prep as hint, got %p want %p", v2.hintPrep, p1)
	}
	if v2.hintFrom != 25 {
		t.Fatalf("second view hintFrom = %d, want 25 (rank of the mid insert)", v2.hintFrom)
	}
	p2, err := v2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := prepareTuples(ix.Tuples())
	if err != nil {
		t.Fatal(err)
	}
	comparePrepared(t, 0, p2, want)

	// And the adoption chain keeps extending: a third round adopts v2's
	// result the same way.
	if _, err := ix.Insert(Tuple{ID: "mid2", Score: 30.5, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	v3 := ix.Freeze()
	if v3.hintPrep != p2 {
		t.Fatal("third view must chain off the previously adopted prep")
	}
	if _, err := v3.Materialize(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexInsertDuplicateSeqRefused(t *testing.T) {
	ix := NewIndex()
	seq, err := ix.Insert(Tuple{ID: "a", Score: 9, Prob: 0.4, Group: "g"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := ix.insert(Tuple{ID: "b", Score: 8, Prob: 0.3, Group: "g"}, seq); err == nil {
		t.Fatalf("insert accepted a duplicate sequence number")
	}
	// The refused insert must not have touched either treap: the group
	// aggregate still sees exactly one member.
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after refused duplicate, want 1", ix.Len())
	}
	if got, ok := ix.Get(seq); !ok || got.ID != "a" {
		t.Fatalf("Get(%d) = %+v, %v; want tuple a", seq, got, ok)
	}
	snap, err := ix.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if snap.Len() != 1 {
		t.Fatalf("materialized %d tuples, want 1", snap.Len())
	}
	// The index stays fully usable: the same seq can be updated and new
	// inserts mint fresh seqs past it.
	if err := ix.Update(seq, Tuple{ID: "a", Score: 10, Prob: 0.5, Group: "g"}); err != nil {
		t.Fatalf("Update after refused duplicate: %v", err)
	}
	if _, err := ix.Insert(Tuple{ID: "c", Score: 7, Prob: 0.2}); err != nil {
		t.Fatalf("Insert after refused duplicate: %v", err)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}
