// Package bpred implements the branch prediction hardware of the paper's
// machine models (§2.2, §4.1, Appendix A):
//
//   - a gshare conditional-branch predictor with 2-bit counters,
//   - a correlated target buffer for indirect calls and jumps,
//   - a return address stack with checkpointing (used as the paper's
//     "perfect" RAS: unbounded and precisely restored on recovery),
//   - a branch-confidence estimator with resetting counters (after
//     Jacobsen/Rotenberg/Smith), and
//   - TFR ("True/False misprediction Register") tables used in §A.2.2 to
//     identify false mispredictions.
//
// Global branch history is owned by the caller and passed to each lookup,
// because the simulators must manage speculative histories, checkpoint
// them across mispredictions, and (for the §A.3.1 experiment) substitute
// an oracle history.
package bpred

// History is a global branch history shift register. Histories are
// maintained by the fetch engine: pushed speculatively at prediction time
// and repaired on mispredictions.
type History uint32

// HistoryBits is the number of history bits used to index the tables.
const HistoryBits = 16

// Push shifts an outcome into the history register.
func (h History) Push(taken bool) History {
	h <<= 1
	if taken {
		h |= 1
	}
	return h & (1<<HistoryBits - 1)
}

// GShare is a two-level adaptive predictor indexing a table of 2-bit
// saturating counters with PC XOR global history (McFarling).
type GShare struct {
	bits uint
	ctr  []uint8
}

// NewGShare returns a gshare predictor with 2^bits counters, initialized
// weakly not-taken.
func NewGShare(bits uint) *GShare {
	return &GShare{bits: bits, ctr: make([]uint8, 1<<bits)}
}

func (g *GShare) index(pc uint64, h History) uint64 {
	return (pc>>2 ^ uint64(h)) & (1<<g.bits - 1)
}

// Predict returns the predicted direction for the branch at pc under
// global history h.
func (g *GShare) Predict(pc uint64, h History) bool {
	return g.ctr[g.index(pc, h)] >= 2
}

// Update trains the counter for (pc, h) toward the actual outcome.
func (g *GShare) Update(pc uint64, h History, taken bool) {
	i := g.index(pc, h)
	c := g.ctr[i]
	if taken {
		if c < 3 {
			g.ctr[i] = c + 1
		}
	} else {
		if c > 0 {
			g.ctr[i] = c - 1
		}
	}
}

// TargetBuffer is a correlated target buffer for indirect calls and jumps
// (Chang/Hao/Patt): a direct-mapped table of targets indexed by PC XOR
// global history, with a partial tag to filter aliases.
type TargetBuffer struct {
	bits    uint
	targets []uint64
	tags    []uint32

	// Lookups/Hits count Predict calls and tag matches; Aliases counts
	// lookups that found a valid entry installed by a *different* branch
	// (partial-tag conflict) — the destructive interference the
	// correlated index trades against history sensitivity.
	Lookups uint64
	Hits    uint64
	Aliases uint64
}

// NewTargetBuffer returns a buffer with 2^bits entries.
func NewTargetBuffer(bits uint) *TargetBuffer {
	return &TargetBuffer{
		bits:    bits,
		targets: make([]uint64, 1<<bits),
		tags:    make([]uint32, 1<<bits),
	}
}

func (t *TargetBuffer) index(pc uint64, h History) (uint64, uint32) {
	i := (pc>>2 ^ uint64(h)) & (1<<t.bits - 1)
	return i, uint32(pc>>2) | 1<<31 // bit 31 marks a valid entry
}

// Predict returns the predicted target, or ok=false on a miss.
func (t *TargetBuffer) Predict(pc uint64, h History) (uint64, bool) {
	t.Lookups++
	i, tag := t.index(pc, h)
	if t.tags[i] != tag {
		if t.tags[i] != 0 {
			t.Aliases++
		}
		return 0, false
	}
	t.Hits++
	return t.targets[i], true
}

// Update installs the actual target for (pc, h).
func (t *TargetBuffer) Update(pc uint64, h History, target uint64) {
	i, tag := t.index(pc, h)
	t.tags[i] = tag
	t.targets[i] = target
}

// RAS is a return address stack. With no depth limit and Snapshot/Restore
// around every recovery it behaves as the paper's perfect RAS: returns on
// the correct path always predict correctly.
//
// The stack is a persistent linked list of immutable nodes: Push
// allocates one node, Pop moves the top pointer, and Snapshot/Restore
// are O(1) pointer copies. The detailed simulator checkpoints the RAS at
// every fetched control instruction, so cheap snapshots matter far more
// than the pointer chase a deep Restore-then-Pop might cost. The zero
// value is an empty stack, and because nodes are never mutated, copying
// a RAS value copies the stack.
type RAS struct {
	top   *rasNode
	depth int
}

type rasNode struct {
	addr uint64
	prev *rasNode
}

// Snap is an immutable RAS checkpoint: a reference into the persistent
// stack. The zero value is an empty stack.
type Snap struct {
	top   *rasNode
	depth int
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.top = &rasNode{addr: addr, prev: r.top}
	r.depth++
}

// Pop predicts (and consumes) the target of a return. It returns 0, false
// on underflow (a return with no matching call in view).
func (r *RAS) Pop() (uint64, bool) {
	if r.top == nil {
		return 0, false
	}
	a := r.top.addr
	r.top = r.top.prev
	r.depth--
	return a, true
}

// Depth returns the current stack depth.
func (r *RAS) Depth() int { return r.depth }

// Snapshot captures the stack for later Restore. Nodes are never
// mutated, so sharing the spine is safe and allocation-free.
func (r *RAS) Snapshot() Snap { return Snap{top: r.top, depth: r.depth} }

// Restore rewinds the stack to a snapshot.
func (r *RAS) Restore(s Snap) {
	r.top = s.top
	r.depth = s.depth
}

// Confidence is a branch-confidence estimator: a table of resetting
// counters indexed like gshare. A counter increments on a correct
// prediction and resets on a misprediction; predictions are "confident"
// when the counter has saturated past a threshold.
type Confidence struct {
	bits      uint
	ctr       []uint8
	max       uint8
	threshold uint8
}

// NewConfidence returns an estimator with 2^bits resetting counters
// saturating at max; predictions are confident at or above threshold.
func NewConfidence(bits uint, max, threshold uint8) *Confidence {
	return &Confidence{bits: bits, ctr: make([]uint8, 1<<bits), max: max, threshold: threshold}
}

func (c *Confidence) index(pc uint64, h History) uint64 {
	return (pc>>2 ^ uint64(h)) & (1<<c.bits - 1)
}

// Confident reports whether the prediction for (pc, h) is high-confidence.
func (c *Confidence) Confident(pc uint64, h History) bool {
	return c.ctr[c.index(pc, h)] >= c.threshold
}

// Update trains the resetting counter with the prediction outcome.
func (c *Confidence) Update(pc uint64, h History, correct bool) {
	i := c.index(pc, h)
	if !correct {
		c.ctr[i] = 0
	} else if c.ctr[i] < c.max {
		c.ctr[i]++
	}
}

// TFR is the true/false misprediction history table of §A.2.2: per entry a
// 16-bit shift register recording, for mispredictions only, whether each
// was a false misprediction ('1') or a true one ('0'). The table may be
// indexed by PC alone (dynamic(pc)) or by PC XOR global history
// (dynamic(xor)), selected per lookup.
type TFR struct {
	bits uint
	reg  []uint16
}

// NewTFR returns a table of 2^bits TFR registers.
func NewTFR(bits uint) *TFR {
	return &TFR{bits: bits, reg: make([]uint16, 1<<bits)}
}

// Index computes the table index; pass h = 0 for PC-only indexing.
func (t *TFR) Index(pc uint64, h History) uint64 {
	return (pc>>2 ^ uint64(h)) & (1<<t.bits - 1)
}

// Pattern returns the current TFR contents for an index.
func (t *TFR) Pattern(idx uint64) uint16 { return t.reg[idx] }

// Record shifts a misprediction kind into the register at idx.
func (t *TFR) Record(idx uint64, falseMisp bool) {
	r := t.reg[idx] << 1
	if falseMisp {
		r |= 1
	}
	t.reg[idx] = r
}

// Bimodal is a simple per-PC table of 2-bit saturating counters, the
// history-free predictor the paper contrasts with gshare when discussing
// corrupted global history (§A.3: without re-predict sequences, gshare
// "may actually worsen with respect to a simpler, local-history branch
// predictor").
type Bimodal struct {
	bits uint
	ctr  []uint8
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	return &Bimodal{bits: bits, ctr: make([]uint8, 1<<bits)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & (1<<b.bits - 1) }

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc uint64) bool { return b.ctr[b.index(pc)] >= 2 }

// Update trains the counter toward the actual outcome.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	c := b.ctr[i]
	if taken {
		if c < 3 {
			b.ctr[i] = c + 1
		}
	} else if c > 0 {
		b.ctr[i] = c - 1
	}
}
