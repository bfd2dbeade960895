package ooo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cisim/internal/isa"
)

func mkDyn(seq uint64) *dyn {
	return &dyn{seq: seq, inst: isa.Inst{Op: isa.NOP}, doneC: -1}
}

func TestWindowAppendAndCapacity(t *testing.T) {
	w := newWindow(8, 1, getRunMem())
	var last *dyn
	for i := 0; i < 8; i++ {
		d := mkDyn(uint64(i))
		if !w.appendTail(d) {
			t.Fatalf("append %d failed with capacity left", i)
		}
		last = d
	}
	if w.appendTail(mkDyn(99)) {
		t.Fatal("append past capacity succeeded")
	}
	if w.count != 8 {
		t.Fatalf("count = %d", w.count)
	}
	if w.tailLive() != last {
		t.Fatal("tailLive wrong")
	}
	// Retiring the head frees one segment (segment size 1).
	w.retire(w.headLive())
	if !w.appendTail(mkDyn(100)) {
		t.Fatal("append after retire failed")
	}
}

func TestWindowSegmentGranularity(t *testing.T) {
	w := newWindow(16, 4, getRunMem())
	for i := 0; i < 6; i++ {
		if !w.appendTail(mkDyn(uint64(i))) {
			t.Fatal("append failed")
		}
	}
	if w.liveSegs != 2 {
		t.Fatalf("liveSegs = %d, want 2 (6 dyns / 4-slot segments)", w.liveSegs)
	}
	// Retiring the first 4 dyns drains the first segment entirely.
	for i := 0; i < 4; i++ {
		w.retire(w.headLive())
	}
	if w.liveSegs != 1 {
		t.Fatalf("liveSegs after draining head segment = %d, want 1", w.liveSegs)
	}
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowInsertAfterOrder(t *testing.T) {
	w := newWindow(32, 1, getRunMem())
	a, b, c := mkDyn(1), mkDyn(2), mkDyn(3)
	w.appendTail(a)
	w.appendTail(b)
	w.appendTail(c)
	// Insert two dyns after a, as a restart gap fill does.
	x, y := mkDyn(10), mkDyn(11)
	seg := w.insertAfter(a, nil, x)
	if seg == nil {
		t.Fatal("insertAfter failed")
	}
	seg = w.insertAfter(x, seg, y)
	if seg == nil {
		t.Fatal("second insertAfter failed")
	}
	var order []uint64
	w.forEach(func(d *dyn) bool {
		order = append(order, d.seq)
		return true
	})
	want := []uint64{1, 10, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	// prevLive / nextLive navigate across the insertion.
	if w.nextLive(a) != x || w.nextLive(y) != b {
		t.Error("nextLive navigation wrong")
	}
	if w.prevLive(b) != y || w.prevLive(x) != a {
		t.Error("prevLive navigation wrong")
	}
}

func TestWindowSquashReclaim(t *testing.T) {
	w := newWindow(8, 2, getRunMem())
	var ds []*dyn
	for i := 0; i < 8; i++ {
		d := mkDyn(uint64(i))
		w.appendTail(d)
		ds = append(ds, d)
	}
	// Squash a full middle segment: dyns 2 and 3.
	w.squash(ds[2])
	w.squash(ds[3])
	if w.liveSegs != 3 {
		t.Fatalf("liveSegs = %d after draining a middle segment, want 3", w.liveSegs)
	}
	// Squashing one slot of a segment does not free it.
	w.squash(ds[4])
	if w.liveSegs != 3 {
		t.Fatalf("liveSegs = %d after partial squash, want 3", w.liveSegs)
	}
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	// Double squash is a no-op.
	before := w.count
	w.squash(ds[4])
	if w.count != before {
		t.Error("double squash changed count")
	}
}

func TestWindowHeadTail(t *testing.T) {
	w := newWindow(8, 1, getRunMem())
	if w.headLive() != nil || w.tailLive() != nil {
		t.Error("empty window has live entries")
	}
	a, b := mkDyn(1), mkDyn(2)
	w.appendTail(a)
	w.appendTail(b)
	w.squash(a)
	if w.headLive() != b || w.tailLive() != b {
		t.Error("head/tail after squash wrong")
	}
}

func TestWindowForEachAfter(t *testing.T) {
	w := newWindow(16, 4, getRunMem())
	var ds []*dyn
	for i := 0; i < 10; i++ {
		d := mkDyn(uint64(i))
		w.appendTail(d)
		ds = append(ds, d)
	}
	w.squash(ds[5])
	var seen []uint64
	w.forEachAfter(ds[3], func(d *dyn) bool {
		seen = append(seen, d.seq)
		return len(seen) < 3
	})
	want := []uint64{4, 6, 7} // 5 squashed, stop after 3
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("forEachAfter = %v, want %v", seen, want)
		}
	}
}

// Property: under random append/insert/squash/retire operations, the window
// keeps order, accurate counts, and capacity bounds, with a plain slice as
// the reference model.
func TestWindowRandomOpsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfgSegs := []int{1, 2, 4}
	f := func() bool {
		segSize := cfgSegs[rng.Intn(len(cfgSegs))]
		w := newWindow(32, segSize, getRunMem())
		var model []*dyn // live dyns in order
		var seq uint64
		fills := map[*dyn]*segment{} // per-anchor fill segment
		lastIns := map[*dyn]*dyn{}   // per-anchor last inserted dyn
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 1: // append
				seq++
				d := mkDyn(seq)
				if w.appendTail(d) {
					model = append(model, d)
				}
			case 2: // insert after a random live dyn. Production only
				// inserts after an instruction whose same-segment
				// successors are squashed (the restart squashes them
				// first), so respect that precondition: the first live
				// entry after the anchor lies in another segment.
				if len(model) == 0 {
					continue
				}
				anchor := model[rng.Intn(len(model))]
				if next := w.nextLive(anchor); next != nil && next.seg == anchor.seg {
					continue
				}
				// The fill chain appends: d goes right after the last
				// dyn inserted for this anchor (or the anchor itself).
				after := anchor
				if li := lastIns[anchor]; li != nil {
					after = li
				}
				seq++
				d := mkDyn(seq)
				seg := w.insertAfter(after, fills[anchor], d)
				if seg == nil {
					continue
				}
				fills[anchor] = seg
				lastIns[anchor] = d
				j := -1
				for i, m := range model {
					if m == after {
						j = i + 1
					}
				}
				if j < 0 {
					return false
				}
				model = append(model, nil)
				copy(model[j+1:], model[j:])
				model[j] = d
			case 3: // squash a random live dyn. Squashing can reclaim a
				// fill segment, so retire all fill chains (production
				// seals fills when a restart ends or is abandoned).
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				for _, seg := range fills {
					w.sealAndSweep(seg)
				}
				fills = map[*dyn]*segment{}
				lastIns = map[*dyn]*dyn{}
				w.squash(model[i])
				model = append(model[:i], model[i+1:]...)
			case 4: // retire the head
				h := w.headLive()
				if h == nil {
					continue
				}
				if len(model) == 0 || model[0] != h {
					return false // head mismatch
				}
				w.retire(h)
				model = model[1:]
			}
			w.compact() // once per op, as the machine does once per cycle
			if err := w.check(); err != nil {
				t.Log(err)
				return false
			}
			if w.count != len(model) {
				t.Logf("count %d != model %d", w.count, len(model))
				return false
			}
			// Order check.
			var got []*dyn
			w.forEach(func(d *dyn) bool {
				got = append(got, d)
				return true
			})
			if len(got) != len(model) {
				return false
			}
			for i := range got {
				if got[i] != model[i] {
					t.Logf("order mismatch at %d", i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWindowSpliceReindex(t *testing.T) {
	w := newWindow(64, 1, getRunMem())
	a := mkDyn(1)
	w.appendTail(a)
	w.appendTail(mkDyn(2))
	// Chain many insertions after the same anchor: each splice shifts the
	// entries after it, and check verifies every shifted index.
	var seg *segment
	last := a
	for i := 0; i < 40; i++ {
		d := mkDyn(uint64(10 + i))
		seg = w.insertAfter(last, seg, d)
		if seg == nil {
			t.Fatal("insert failed")
		}
		last = d
		if err := w.check(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
}
