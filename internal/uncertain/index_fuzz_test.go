package uncertain

import (
	"fmt"
	"testing"
)

// FuzzDynamicIndex decodes the input as a mutation program over a dynamic
// Index (2 bytes per op: opcode+target, payload) and cross-checks every
// intermediate state against the from-scratch Prepare oracle — the fuzzing
// twin of TestDynamicIndexDifferential. Scores, probabilities and groups are
// drawn from tiny palettes so the interesting collisions (duplicate-score
// runs, (score, prob) ties, ME churn, overfull groups) are dense in the
// input space.
func FuzzDynamicIndex(f *testing.F) {
	seeds := [][]byte{
		{},
		{0x00, 0x00},                         // single insert
		{0x00, 0x00, 0x01, 0x00},             // insert then delete it
		{0x00, 0x11, 0x00, 0x11, 0x00, 0x11}, // exact canonical ties (seq-broken)
		{0x00, 0x13, 0x04, 0x17, 0x08, 0x1b, 0x01, 0x01, 0x02, 0x3f}, // grouped churn + update
		{0x00, 0x1f, 0x00, 0x1f, 0x00, 0x1f, 0x00, 0x1f},             // overfull ME group
		{0x00, 0x20, 0x04, 0x21, 0x08, 0x22, 0x0c, 0x23, 0x01, 0x02, 0x01, 0x01, 0x02, 0x24},
		{0xff, 0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 128
		ix := NewIndex()
		var mirror []mirrorEntry
		nextID := 0
		decodeTuple := func(payload byte, id int) Tuple {
			tp := Tuple{
				ID:    fmt.Sprintf("f%d", id),
				Score: float64(payload & 0x07),
				Prob:  []float64{0.1, 0.2, 0.3, 0.7}[(payload>>3)&0x03],
			}
			if g := (payload >> 5) & 0x03; g != 0 {
				tp.Group = fmt.Sprintf("g%d", g)
			}
			return tp
		}
		for i := 0; i+1 < len(data) && i/2 < maxOps; i += 2 {
			op, payload := data[i], data[i+1]
			switch {
			case op&0x03 == 1 && len(mirror) > 0: // delete
				j := int(payload) % len(mirror)
				got, ok := ix.Delete(mirror[j].seq)
				if !ok || got != mirror[j].t {
					t.Fatalf("delete seq %d: got %+v ok=%v, want %+v", mirror[j].seq, got, ok, mirror[j].t)
				}
				mirror = append(mirror[:j], mirror[j+1:]...)
			case op&0x03 == 2 && len(mirror) > 0: // update
				j := int(op>>2) % len(mirror)
				tp := decodeTuple(payload, nextID)
				tp.ID = mirror[j].t.ID
				nextID++
				if err := ix.Update(mirror[j].seq, tp); err != nil {
					t.Fatalf("update seq %d: %v", mirror[j].seq, err)
				}
				mirror[j].t = tp
			default: // insert
				tp := decodeTuple(payload, nextID)
				nextID++
				seq, err := ix.Insert(tp)
				if err != nil {
					t.Fatalf("insert %+v: %v", tp, err)
				}
				mirror = append(mirror, mirrorEntry{seq: seq, t: tp})
			}

			want, werr := prepareTuples(oracleTuples(mirror))
			got, gerr := ix.Materialize()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("after op %d: oracle err %v, index err %v", i/2, werr, gerr)
			}
			checkPrefixes(t, i/2, ix, want)
			if werr != nil {
				continue
			}
			comparePrepared(t, i/2, got, want)
			if again, err := ix.Materialize(); err != nil || again != got {
				t.Fatalf("after op %d: memo broken (%p vs %p, err %v)", i/2, again, got, err)
			}
			if vp, err := ix.Freeze().Materialize(); err != nil || vp != got {
				t.Fatalf("after op %d: view disagrees with owner (%p vs %p, err %v)", i/2, vp, got, err)
			}
		}
	})
}
