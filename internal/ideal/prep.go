// Shared-prep fast path: the six models of a window sweep all walk the
// same annotated trace, and everything they derive per entry — issue
// latency, source-register sets, load classification — is a pure function
// of the trace. Prepare hoists those derivations into dense read-only
// arrays computed once per (workload, trace-config); RunPrepared then
// walks them for every (model, window) point. The Prep also pools the
// engine's per-run scratch (per-entry run state, window storage, slot and
// wait-node pools, the wheel), so a sweep's second run allocates almost
// nothing.

package ideal

import (
	"fmt"
	"hash/fnv"
	"sync"

	"cisim/internal/isa"
	"cisim/internal/trace"
)

// noSrc marks an absent source-register operand in Prep.src.
const noSrc = 0xFF

// Prep is the model-independent preparation of one trace, shared by every
// RunPrepared call over it. The dense arrays are read-only after Prepare,
// so one Prep is safe for concurrent RunPrepared calls; the scratch pool
// is internally synchronized.
type Prep struct {
	// Trace is the golden stream the models schedule (with its CFG).
	Trace *trace.Trace

	// lat[i] is entry i's issue-to-complete latency in cycles, with the
	// perfect data cache's 1-cycle access folded into loads.
	lat []uint8
	// src[i] are entry i's source registers (noSrc = absent). Reads of
	// r0 are recorded but never create dependences.
	src [][2]uint8
	// isLoad[i] marks loads, the only consumers of false memory deps.
	isLoad []bool
	// wheelSize is the issue wheel's bucket count: a power of two above
	// the longest lead a ready cycle can have, the longest latency + 1
	// (a floor lifts the cycle after its branch completes).
	wheelSize int

	pool sync.Pool // *scratch
}

// Prepare derives the shared per-entry arrays from a trace.
func Prepare(tr *trace.Trace) *Prep {
	n := len(tr.Entries)
	p := &Prep{
		Trace:  tr,
		lat:    make([]uint8, n),
		src:    make([][2]uint8, n),
		isLoad: make([]bool, n),
	}
	maxLat := 1
	for i := range tr.Entries {
		en := &tr.Entries[i]
		lat := isa.Latency(en.Inst.Op)
		if isa.ClassOf(en.Inst.Op) == isa.ClassLoad {
			lat++ // perfect data cache: 1-cycle access after address generation
			p.isLoad[i] = true
		}
		maxLat = max(maxLat, lat)
		p.lat[i] = uint8(lat)
		p.src[i] = [2]uint8{noSrc, noSrc}
		for si, r := range en.Inst.SrcRegs() {
			if si < 2 {
				p.src[i][si] = uint8(r)
			}
		}
	}
	p.wheelSize = 4
	for p.wheelSize <= maxLat+1 {
		p.wheelSize *= 2
	}
	return p
}

// Fingerprint returns a structural checksum for the runner's artifact
// cache: the array lengths plus the trace's prediction statistics. Like
// ooo.Prep's, it is deliberately shallow — it catches a swapped or
// truncated prep without re-hashing the arrays on every cache hit.
func (p *Prep) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%+v", len(p.lat), len(p.Trace.Entries), p.Trace.Stats)
	return h.Sum64()
}

// slotChunk is the slot-arena chunk size. Slots are recycled through a
// free list, so a run touches about window/slotChunk chunks.
const slotChunk = 256

// scratch is one engine's worth of reusable run state. getScratch resets
// everything a run reads before writing, so reuse cannot leak one run's
// schedule into the next.
type scratch struct {
	ent        []entState
	mispOf     []*mispRec
	window     []*slot
	streams    []*stream
	squashAt   []pendingSquash
	activeMisp []*mispRec

	// Slot arena: chunks[ci][off] is the next never-used slot. Pointers
	// into chunks are held by the window, so chunks are never
	// reallocated. Slots that leave the window go to freeSlot, which
	// newSlot drains first.
	chunks   [][]slot
	ci, off  int
	freeSlot *slot

	// Issue scheduling (sched.go): the wait-node pool with its free
	// list, the timing wheel, and the ready heap.
	nodes    []waitNode
	freeNode int32
	wheel    [][]parked
	ready    []parked

	// Stream and misprediction-record arenas. Unlike slots, these carry
	// no zero-value guarantee: every allocation site fully initializes
	// the struct with a literal assignment, so recycled chunks are
	// reused as-is.
	streamChunks [][]stream
	sci, soff    int
	mispChunks   [][]mispRec
	mci, moff    int
}

// getScratch borrows (or builds) a scratch sized for the prep's trace,
// with every buffer reset to its zero state.
func (p *Prep) getScratch() *scratch {
	sc, _ := p.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	n := len(p.Trace.Entries)
	if cap(sc.ent) < n {
		sc.ent = make([]entState, n)
		sc.mispOf = make([]*mispRec, n)
	} else {
		sc.ent = sc.ent[:n]
		sc.mispOf = sc.mispOf[:n]
		clear(sc.ent)
		clear(sc.mispOf)
	}
	sc.window = sc.window[:0]
	sc.streams = sc.streams[:0]
	sc.squashAt = sc.squashAt[:0]
	sc.activeMisp = sc.activeMisp[:0]
	sc.ci, sc.off, sc.freeSlot = 0, 0, nil
	// Node 0 is the "no node" sentinel.
	sc.nodes, sc.freeNode = append(sc.nodes[:0], waitNode{}), 0
	if len(sc.wheel) != p.wheelSize {
		sc.wheel = make([][]parked, p.wheelSize)
	}
	for i := range sc.wheel {
		sc.wheel[i] = sc.wheel[i][:0]
	}
	sc.ready = sc.ready[:0]
	sc.sci, sc.soff = 0, 0
	sc.mci, sc.moff = 0, 0
	return sc
}

// putScratch returns the engine's (possibly regrown) buffers to the pool.
func (p *Prep) putScratch(sc *scratch, e *engine) {
	sc.window = e.window[:0]
	sc.streams = e.streams[:0]
	sc.squashAt = e.squashAt[:0]
	sc.activeMisp = e.activeMisp[:0]
	p.pool.Put(sc)
}

// allocSlot bump-allocates a window slot from the scratch arena; newSlot
// clears it.
func (e *engine) allocSlot() *slot {
	sc := e.sc
	if sc.ci == len(sc.chunks) {
		sc.chunks = append(sc.chunks, make([]slot, slotChunk))
	}
	s := &sc.chunks[sc.ci][sc.off]
	sc.off++
	if sc.off == slotChunk {
		sc.ci++
		sc.off = 0
	}
	return s
}

// streamChunk is the stream/mispRec arena chunk size; a quick run opens
// a few hundred streams, so chunks stay small.
const streamChunk = 64

// allocStream bump-allocates a stream; the caller must fully initialize
// it (recycled chunks are not cleared).
func (e *engine) allocStream() *stream {
	sc := e.sc
	if sc.sci == len(sc.streamChunks) {
		sc.streamChunks = append(sc.streamChunks, make([]stream, streamChunk))
	}
	s := &sc.streamChunks[sc.sci][sc.soff]
	sc.soff++
	if sc.soff == streamChunk {
		sc.sci++
		sc.soff = 0
	}
	return s
}

// allocMisp bump-allocates a misprediction record; the caller must fully
// initialize it (recycled chunks are not cleared).
func (e *engine) allocMisp() *mispRec {
	sc := e.sc
	if sc.mci == len(sc.mispChunks) {
		sc.mispChunks = append(sc.mispChunks, make([]mispRec, streamChunk))
	}
	m := &sc.mispChunks[sc.mci][sc.moff]
	sc.moff++
	if sc.moff == streamChunk {
		sc.mci++
		sc.moff = 0
	}
	return m
}
