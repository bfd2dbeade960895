package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistoryPush(t *testing.T) {
	var h History
	h = h.Push(true)
	if h != 1 {
		t.Errorf("history = %b, want 1", h)
	}
	h = h.Push(false).Push(true)
	if h != 0b101 {
		t.Errorf("history = %b, want 101", h)
	}
	// Width-limited.
	for i := 0; i < 40; i++ {
		h = h.Push(true)
	}
	if h != 1<<HistoryBits-1 {
		t.Errorf("history overflowed width: %b", h)
	}
}

func TestGShareLearnsBias(t *testing.T) {
	g := NewGShare(10)
	pc := uint64(0x1040)
	var h History
	for i := 0; i < 10; i++ {
		g.Update(pc, h, true)
	}
	if !g.Predict(pc, h) {
		t.Error("gshare should predict taken after taken training")
	}
	for i := 0; i < 10; i++ {
		g.Update(pc, h, false)
	}
	if g.Predict(pc, h) {
		t.Error("gshare should predict not-taken after not-taken training")
	}
}

func TestGShareLearnsCorrelation(t *testing.T) {
	// A periodic taken-taken-not-taken pattern: a single 2-bit counter
	// cannot get this right (it would always predict taken), but history
	// separates the three phases into three counters.
	g := NewGShare(12)
	pc := uint64(0x2000)
	var h History
	correct := 0
	const n, warmup = 4000, 100
	for i := 0; i < n; i++ {
		outcome := i%3 != 2
		if i >= warmup && g.Predict(pc, h) == outcome {
			correct++
		}
		g.Update(pc, h, outcome)
		h = h.Push(outcome)
	}
	if acc := float64(correct) / (n - warmup); acc < 0.99 {
		t.Errorf("periodic pattern accuracy = %.3f, want > 0.99", acc)
	}
}

func TestGShareCounterSaturation(t *testing.T) {
	g := NewGShare(4)
	for i := 0; i < 100; i++ {
		g.Update(0, 0, true)
	}
	// One not-taken must not flip a saturated counter.
	g.Update(0, 0, false)
	if !g.Predict(0, 0) {
		t.Error("one contrary outcome flipped a saturated counter")
	}
}

func TestTargetBuffer(t *testing.T) {
	tb := NewTargetBuffer(10)
	if _, ok := tb.Predict(0x100, 0); ok {
		t.Error("empty buffer should miss")
	}
	tb.Update(0x100, 0, 0x5000)
	if tgt, ok := tb.Predict(0x100, 0); !ok || tgt != 0x5000 {
		t.Errorf("predict = %#x, %v", tgt, ok)
	}
	// Correlation: same PC, different history can hold a different target.
	tb.Update(0x100, 0b1, 0x6000)
	if tgt, _ := tb.Predict(0x100, 0b1); tgt != 0x6000 {
		t.Errorf("correlated target = %#x, want 0x6000", tgt)
	}
	if tgt, _ := tb.Predict(0x100, 0); tgt != 0x5000 {
		t.Errorf("original target clobbered: %#x", tgt)
	}
	// Tag check: an aliasing PC (same index, different tag) misses.
	alias := uint64(0x100 + 4<<10)
	if _, ok := tb.Predict(alias, 0); ok {
		t.Error("aliasing PC should miss on tag")
	}
}

func TestRAS(t *testing.T) {
	r := &RAS{}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS should underflow")
	}
	r.Push(0x104)
	r.Push(0x208)
	snap := r.Snapshot()
	if a, ok := r.Pop(); !ok || a != 0x208 {
		t.Errorf("pop = %#x, %v", a, ok)
	}
	r.Push(0x300)
	r.Push(0x304)
	r.Restore(snap)
	if r.Depth() != 2 {
		t.Fatalf("depth after restore = %d", r.Depth())
	}
	if a, _ := r.Pop(); a != 0x208 {
		t.Errorf("restored top = %#x, want 0x208", a)
	}
	if a, _ := r.Pop(); a != 0x104 {
		t.Errorf("restored bottom = %#x, want 0x104", a)
	}
}

// Property: RAS behaves like a simple stack under random push/pop, and
// Snapshot/Restore is a true checkpoint.
func TestRASStackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		r := &RAS{}
		var model []uint64
		var snap Snap
		var hasSnap bool
		var modelSnap []uint64
		for i := 0; i < 50; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64()
				r.Push(v)
				model = append(model, v)
			case 2:
				got, ok := r.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if !ok || got != want {
						return false
					}
				}
			case 3:
				if !hasSnap {
					snap = r.Snapshot()
					hasSnap = true
					modelSnap = append([]uint64(nil), model...)
				} else {
					r.Restore(snap)
					model = append([]uint64(nil), modelSnap...)
					hasSnap = false
				}
			}
			if r.Depth() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConfidence(t *testing.T) {
	c := NewConfidence(8, 15, 8)
	pc := uint64(0x400)
	if c.Confident(pc, 0) {
		t.Error("fresh estimator should not be confident")
	}
	for i := 0; i < 8; i++ {
		c.Update(pc, 0, true)
	}
	if !c.Confident(pc, 0) {
		t.Error("should be confident after 8 correct predictions")
	}
	c.Update(pc, 0, false)
	if c.Confident(pc, 0) {
		t.Error("misprediction must reset confidence")
	}
	// Saturation at max.
	for i := 0; i < 100; i++ {
		c.Update(pc, 0, true)
	}
	if !c.Confident(pc, 0) {
		t.Error("saturated counter should be confident")
	}
}

func TestTFR(t *testing.T) {
	tf := NewTFR(8)
	idx := tf.Index(0x500, 0)
	if tf.Pattern(idx) != 0 {
		t.Error("fresh TFR should be zero")
	}
	tf.Record(idx, true)
	tf.Record(idx, false)
	tf.Record(idx, true)
	if got := tf.Pattern(idx); got != 0b101 {
		t.Errorf("pattern = %b, want 101", got)
	}
	// PC-only and XOR indexing differ when history is nonzero.
	if tf.Index(0x500, 0) == tf.Index(0x500, 0xff) {
		t.Error("xor indexing should depend on history")
	}
}

// Property: gshare index stays in range and depends on both pc and history.
func TestGShareIndexRange(t *testing.T) {
	g := NewGShare(16)
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		pc := rng.Uint64()
		h := History(rng.Uint32()).Push(true)
		i := g.index(pc, h)
		return i < 1<<16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBimodal(t *testing.T) {
	b := NewBimodal(8)
	pc := uint64(0x1230)
	if b.Predict(pc) {
		t.Error("cold bimodal should predict not-taken")
	}
	for i := 0; i < 4; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("trained bimodal should predict taken")
	}
	// Saturation: one contrary outcome does not flip.
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Error("saturated counter flipped on one outcome")
	}
	// History-free: a correlated pattern stays at its bias.
	b2 := NewBimodal(8)
	correct := 0
	for i := 0; i < 300; i++ {
		outcome := i%3 != 2 // taken 2/3 of the time
		if b2.Predict(pc) == outcome {
			correct++
		}
		b2.Update(pc, outcome)
	}
	acc := float64(correct) / 300
	if acc < 0.55 || acc > 0.75 {
		t.Errorf("bimodal accuracy on 2/3-biased pattern = %.2f, want ~2/3", acc)
	}
}
