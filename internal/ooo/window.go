package ooo

import (
	"fmt"

	"cisim/internal/bpred"
	"cisim/internal/isa"
)

// dynState tracks an in-flight instruction's pipeline status.
type dynState uint8

const (
	stWaiting   dynState = iota // dispatched, waiting to (re)issue
	stExecuting                 // issued, completion scheduled
	stDone                      // completed; val holds the latest result
)

// dyn is a dynamic instruction instance. Its identity doubles as its
// physical-register tag: consumers hold *dyn pointers, and a destination
// keeps its tag across reissues (§3.2.3).
type dyn struct {
	seq  uint64
	pc   uint64
	inst isa.Inst
	gold int // index into the golden stream; -1 on a wrong path

	// Renaming: src[i] is the producing instruction for the i'th source
	// register, nil when the value comes from committed state.
	srcReg [2]isa.Reg
	src    [2]*dyn
	nsrc   int
	dest   isa.Reg
	hasRd  bool

	st         dynState
	stale      bool // an input changed while executing: reissue on completion
	val        uint64
	hasVal     bool
	issues     int
	doneC      int64
	fetchC     int64
	renameC    int64 // window entry; -1 until then
	lastIssueC int64

	// Memory state.
	isLoad, isStore bool
	ea              uint64
	esize           uint8
	eaValid         bool
	fwdFrom         *dyn // store a load forwarded from; nil = committed memory

	// Control state.
	isCtl         bool // consumes a prediction (cond branch / indirect / return)
	isCond        bool
	predTaken     bool
	assumedTaken  bool   // direction fetch currently assumes
	assumedTarget uint64 // target fetch currently assumes
	ctlDone       bool   // branch has completed (control resolved)
	ctlDoneC      int64  // cycle control resolved (completion-model gated)
	compTaken     bool
	compTarget    uint64
	histBefore    bpred.History
	rasSnap       bpred.Snap

	stableFlag bool // data-stability flag (spec-C/non-spec gating)

	// Window bookkeeping. liveIdx is the instruction's index in the
	// window's live-order array, which is also its order key (window.before).
	seg      *segment
	squashed bool
	retired  bool
	liveIdx  int32

	// cons heads the list of instructions that named this one as a source
	// (incremental.go); 0 when empty.
	cons int32

	// Table 3 accounting: saved records whether this instruction was
	// preserved across a recovery, and in what state.
	saved         savedState
	reissuedAfter bool // reissued after being preserved
}

type savedState uint8

const (
	savedNo savedState = iota
	savedFetched
	savedIssued
)

func (d *dyn) String() string {
	return fmt.Sprintf("#%d pc=%#x %v", d.seq, d.pc, d.inst)
}

// operandsCommitted reports whether every register source reads committed
// state — no producer (r0, or renamed after its producer retired) or a
// retired one — so its value is architectural.
func (d *dyn) operandsCommitted() bool {
	for i := 0; i < d.nsrc; i++ {
		if p := d.src[i]; p != nil && !p.retired {
			return false
		}
	}
	return true
}

// ready reports whether every source value is available.
func (d *dyn) ready() bool {
	for i := 0; i < d.nsrc; i++ {
		if d.src[i] != nil && d.src[i].st != stDone {
			return false
		}
	}
	return true
}

// segment is one ROB block (§A.4): it takes entries in order until it is
// full, and squashed entries stay dead until the whole segment is
// reclaimed (internal fragmentation). Window order lives in the window's
// live-order array; a segment only counts its entries.
type segment struct {
	size int // capacity in entries
	used int // entries placed in it
	live int // of those, neither retired nor squashed
	// prev and next chain the segments; the chain decides where a new
	// segment goes, and so which segment takes the next dispatch.
	prev, next *segment
	// sealed marks a segment that will receive no more dispatches (it is
	// neither the tail nor an active restart's fill target).
	sealed bool
	// unlinked marks a reclaimed segment; reclaiming is idempotent.
	unlinked bool
}

func (s *segment) full() bool { return s.used == s.size }

// drained reports whether every entry placed in s is retired or squashed.
func (s *segment) drained() bool { return s.live == 0 }

// window is the segmented reorder buffer.
type window struct {
	segSize  int
	maxSegs  int
	liveSegs int
	head     *segment
	tail     *segment

	count int // live (non-retired, non-squashed) instructions

	// Slab arena for segments. With the default SegmentSize of 1 every
	// dispatched instruction allocates a segment, which made newSegment
	// the single largest allocation site of the whole simulator (>80% of
	// objects). Segments are never reused after being unlinked — stale
	// seg pointers held by retired dyns must keep pointing at
	// dead-but-intact memory — so a bump allocator over one slab is safe.
	// Chunks come from rm, which recycles them across runs.
	segArena []segment
	rm       *runMem

	// The live-order array is the window's one order: every instruction
	// placed in the window sits in it, oldest first, and its liveIdx names
	// its index there, so an order comparison is an index comparison and
	// the per-cycle walks (forEach, forEachAfter, the rename chains) scan
	// a dense array instead of chasing segment links.
	// It is struct-of-arrays: liveCache holds the *dyn in window order,
	// and liveFlags mirrors, entry for entry, the byte of state the hot
	// filters test (dead, pipeline state, pending control, load/store,
	// address validity) — so the issue, resolve, stability and
	// store-forward scans reject the common case from a dense byte array
	// without dereferencing the instruction at all, and goldSync resumes
	// its walk at an array index. (Wakeup walks consumer lists instead;
	// see incremental.go.)
	// The flag byte is re-mirrored by noteFlags at every state
	// transition; all transition sites funnel through a handful of
	// machine methods (issue, complete, forceReissue, reissueLoad,
	// resolveStep, squash, retire).
	//
	// appendTail extends both arrays, insertAfter splices a restart's
	// instruction in after its predecessor and rewrites the indexes it
	// shifts, and squash/retire leave their entry behind as a tombstone
	// that every walker skips by flag, counted in dead. compact squeezes
	// the tombstones out once they dominate; the machine calls it once a
	// cycle, between retirement and the first stage scan, so nothing is
	// compacted during a walk and an instruction that dies in a cycle keeps
	// its index until the next one. lo is a watermark below which every
	// entry is known dead (liveness flags are never cleared), advanced by
	// headLive so the retired prefix is skipped in amortized O(1).
	liveCache []*dyn
	liveFlags []uint8
	dead      int
	lo        int
}

// Flag bits of the live-order array's SoA filter byte. The pipeline
// state occupies bits 1-2 so a masked compare tests it without a shift.
const (
	fDead    uint8 = 1 << 0 // squashed or retired
	fStShift       = 1
	fStMask  uint8 = 3 << fStShift // dynState << fStShift
	fPendCtl uint8 = 1 << 3        // control, not yet resolved
	fIsLoad  uint8 = 1 << 4
	fIsStore uint8 = 1 << 5
	fEAValid uint8 = 1 << 6
)

// flagsOf derives a dyn's filter byte from its authoritative fields.
func flagsOf(d *dyn) uint8 {
	f := uint8(d.st) << fStShift
	if d.squashed || d.retired {
		f |= fDead
	}
	if d.isCtl && !d.ctlDone {
		f |= fPendCtl
	}
	if d.isLoad {
		f |= fIsLoad
	}
	if d.isStore {
		f |= fIsStore
	}
	if d.eaValid {
		f |= fEAValid
	}
	return f
}

// noteFlags re-mirrors d's filter byte into the SoA array after a state
// transition. O(1).
func (w *window) noteFlags(d *dyn) {
	w.liveFlags[w.index(d)] = flagsOf(d)
}

func newWindow(size, segSize int, rm *runMem) *window {
	return &window{
		segSize:   segSize,
		maxSegs:   size / segSize,
		rm:        rm,
		liveCache: rm.liveCache[:0],
		liveFlags: rm.liveFlags[:0],
	}
}

// segsAvailable reports how many more segments can be allocated.
func (w *window) segsAvailable() int { return w.maxSegs - w.liveSegs }

func (w *window) newSegment() *segment {
	w.liveSegs++
	if len(w.segArena) == 0 {
		w.segArena = w.rm.segChunk()
	}
	seg := &w.segArena[0]
	w.segArena = w.segArena[1:]
	seg.size = w.segSize
	return seg
}

// place counts d into seg.
func (w *window) place(seg *segment, d *dyn) {
	d.seg = seg
	seg.used++
	seg.live++
	w.count++
}

// appendTail adds a dyn at the window tail, allocating a segment if
// needed. Returns false when the window is out of segments.
func (w *window) appendTail(d *dyn) bool {
	if w.tail == nil || w.tail.full() || w.tail.sealed {
		if w.segsAvailable() == 0 {
			return false
		}
		seg := w.newSegment()
		if w.tail == nil {
			w.head, w.tail = seg, seg
		} else {
			old := w.tail
			seg.prev = old
			old.next = seg
			w.tail = seg
			// The displaced tail loses its exemption; reclaim it if it
			// already drained while it was the tail.
			w.maybeFree(old)
		}
	}
	w.place(w.tail, d)
	d.liveIdx = int32(len(w.liveCache))
	w.liveCache = append(w.liveCache, d)
	w.liveFlags = append(w.liveFlags, flagsOf(d))
	return true
}

// insertAfter places d immediately after prev in window order, allocating
// insertion segments as needed. The fill segment for a restart is passed
// back and forth by the caller: when fillSeg is non-nil and not full, d
// goes into it; otherwise a fresh segment is linked after fillSeg, or
// after prev's segment on a restart's first fill. Returns the (possibly
// new) fill segment, or nil when out of segments.
//
// prev must still be in the live-order array: the restart's branch, or
// its last insertion. The array puts d right after prev while the chain
// links a new segment after prev's whole segment; the two agree because
// no live instruction of that segment follows prev. A plain restart has
// squashed the gap after its branch, a search squashes the branch's
// same-segment successors first, and later fills follow the last
// insertion, which ends its fill segment.
func (w *window) insertAfter(prev *dyn, fillSeg *segment, d *dyn) *segment {
	if fillSeg == nil || fillSeg.full() {
		if w.segsAvailable() == 0 {
			return nil
		}
		seg := w.newSegment()
		after := prev.seg
		if fillSeg != nil {
			after = fillSeg
			// The displaced fill segment will receive no more inserts.
			fillSeg.sealed = true
			defer w.maybeFree(fillSeg)
		}
		seg.prev = after
		seg.next = after.next
		if after.next != nil {
			after.next.prev = seg
		}
		after.next = seg
		if w.tail == after {
			w.tail = seg
		}
		fillSeg = seg
	}
	w.place(fillSeg, d)
	i := w.index(prev) + 1
	w.liveCache = append(w.liveCache, nil)
	w.liveFlags = append(w.liveFlags, 0)
	copy(w.liveCache[i+1:], w.liveCache[i:])
	copy(w.liveFlags[i+1:], w.liveFlags[i:])
	w.liveCache[i] = d
	w.liveFlags[i] = flagsOf(d)
	for j, c := range w.liveCache[i:] {
		c.liveIdx = int32(i + j)
	}
	if i < w.lo {
		w.lo = i
	}
	return fillSeg
}

// compact squeezes the tombstones out of the array, preserving order,
// once they make up at least half of it. It moves every entry it keeps
// to a new index, so no walk may be in progress.
//
//cisim:hot
func (w *window) compact() {
	if w.dead < 32 || 2*w.dead < len(w.liveCache) {
		return
	}
	n := 0
	for i, d := range w.liveCache {
		if w.liveFlags[i]&fDead != 0 {
			continue
		}
		d.liveIdx = int32(n)
		w.liveCache[n] = d
		w.liveFlags[n] = w.liveFlags[i]
		n++
	}
	w.liveCache = w.liveCache[:n]
	w.liveFlags = w.liveFlags[:n]
	w.dead = 0
	w.lo = 0
}

// live returns the array above the dead-prefix watermark as parallel
// slices (tombstones included — callers must skip by the dead flag,
// exactly as forEach does) for direct, inlinable iteration by the hot
// per-cycle stages: flags[i] is the filter byte of ptr[i]. Callers must
// not append or insert while they iterate, the same contract forEach
// imposes on its callbacks.
func (w *window) live() (ptr []*dyn, flags []uint8) {
	return w.liveCache[w.lo:], w.liveFlags[w.lo:]
}

// liveAfter returns the array suffix strictly after d under the same
// contract as live.
func (w *window) liveAfter(d *dyn) (ptr []*dyn, flags []uint8) {
	i := w.index(d) + 1
	return w.liveCache[i:], w.liveFlags[i:]
}

// has reports whether d is in the live-order array: live, or dead since
// the last compaction.
func (w *window) has(d *dyn) bool {
	i := int(d.liveIdx)
	return i >= 0 && i < len(w.liveCache) && w.liveCache[i] == d
}

// index returns d's index in the live-order array. An instruction that has
// left the array has no place in the window order, so asking for one is
// an engine bug.
func (w *window) index(d *dyn) int {
	if !w.has(d) {
		panic(fmt.Sprintf("ooo: %v has left the window", d))
	}
	return int(d.liveIdx)
}

// before reports whether a precedes b in window order.
func (w *window) before(a, b *dyn) bool { return w.index(a) < w.index(b) }

// prevLive returns the live dyn before d in window order.
func (w *window) prevLive(d *dyn) *dyn {
	for j := w.index(d) - 1; j >= w.lo; j-- {
		if w.liveFlags[j]&fDead == 0 {
			return w.liveCache[j]
		}
	}
	return nil
}

// nextLive returns the live dyn after d in window order.
func (w *window) nextLive(d *dyn) *dyn {
	for j := w.index(d) + 1; j < len(w.liveCache); j++ {
		if w.liveFlags[j]&fDead == 0 {
			return w.liveCache[j]
		}
	}
	return nil
}

// forEach visits every live (non-squashed, non-retired) dyn in order.
// Returning false stops the walk. Callbacks may squash or retire — the
// flags are re-checked at visit time — but must not append or insert
// (nothing does: dispatch and restart fill run outside window walks).
func (w *window) forEach(f func(d *dyn) bool) {
	w.walk(w.lo, f)
}

// forEachAfter visits live dyns strictly after d in window order.
func (w *window) forEachAfter(d *dyn, f func(d *dyn) bool) {
	w.walk(w.index(d)+1, f)
}

// walk visits the live dyns from array index i on, for forEach and
// forEachAfter.
func (w *window) walk(i int, f func(d *dyn) bool) {
	cache, flags := w.liveCache, w.liveFlags
	for ; i < len(cache); i++ {
		if flags[i]&fDead == 0 && !f(cache[i]) {
			return
		}
	}
}

// squash marks d dead and reclaims its segment if fully drained.
func (w *window) squash(d *dyn) {
	if d.squashed || d.retired {
		return
	}
	d.squashed = true
	w.leave(d)
}

// retire marks d retired and reclaims its segment if fully drained.
func (w *window) retire(d *dyn) {
	d.retired = true
	w.leave(d)
}

// leave turns a just-squashed or just-retired d into a tombstone.
func (w *window) leave(d *dyn) {
	w.count--
	w.dead++
	w.noteFlags(d)
	d.seg.live--
	w.maybeFree(d.seg)
}

// maybeFree reclaims a drained segment. The tail segment (or an unsealed
// partially-filled segment) is kept: it may still receive dispatches.
func (w *window) maybeFree(seg *segment) {
	if !seg.drained() {
		return
	}
	if seg == w.tail && !seg.sealed {
		return
	}
	if !seg.full() && !seg.sealed {
		return
	}
	w.unlink(seg)
}

func (w *window) unlink(seg *segment) {
	if seg.unlinked {
		return
	}
	seg.unlinked = true
	if seg.prev != nil {
		seg.prev.next = seg.next
	} else {
		w.head = seg.next
	}
	if seg.next != nil {
		seg.next.prev = seg.prev
	} else {
		w.tail = seg.prev
	}
	w.liveSegs--
}

// sealAndSweep seals a segment and frees it if already drained.
func (w *window) sealAndSweep(seg *segment) {
	if seg == nil {
		return
	}
	seg.sealed = true
	w.maybeFree(seg)
}

// headLive returns the oldest live dyn, advancing the dead-prefix
// watermark past retired tombstones as it scans.
func (w *window) headLive() *dyn {
	for ; w.lo < len(w.liveCache); w.lo++ {
		if w.liveFlags[w.lo]&fDead == 0 {
			return w.liveCache[w.lo]
		}
	}
	return nil
}

// tailLive returns the youngest live dyn.
func (w *window) tailLive() *dyn {
	for i := len(w.liveCache) - 1; i >= w.lo; i-- {
		if w.liveFlags[i]&fDead == 0 {
			return w.liveCache[i]
		}
	}
	return nil
}

// check validates window invariants (enabled by Config.Check). The order
// itself has no second copy to compare against; the machine's rename and
// continuity checks and the commit-time golden checks cover it.
func (w *window) check() error {
	segs, live := 0, 0
	for seg := w.head; seg != nil; seg = seg.next {
		segs++
		if seg.next != nil && seg.next.prev != seg {
			return fmt.Errorf("window: broken segment links")
		}
		if seg.live < 0 || seg.live > seg.used || seg.used > seg.size {
			return fmt.Errorf("window: segment holds %d live of %d used, size %d", seg.live, seg.used, seg.size)
		}
		live += seg.live
	}
	if segs != w.liveSegs {
		return fmt.Errorf("window: segment count %d != tracked %d", segs, w.liveSegs)
	}
	if segs > w.maxSegs {
		return fmt.Errorf("window: %d segments exceed capacity %d", segs, w.maxSegs)
	}
	if live != w.count {
		return fmt.Errorf("window: segments count %d live instructions, tracked %d", live, w.count)
	}
	// Every entry must sit at its own index, tombstone and watermark
	// accounting must match, and the SoA flag bytes must mirror the dyn
	// fields they summarize (a stale byte would silently skip or
	// mis-filter an instruction in the hot scans).
	if len(w.liveFlags) != len(w.liveCache) {
		return fmt.Errorf("window: %d flag bytes for %d array entries", len(w.liveFlags), len(w.liveCache))
	}
	dead := 0
	for i, d := range w.liveCache {
		if int(d.liveIdx) != i {
			return fmt.Errorf("window: %v at array index %d has liveIdx %d", d, i, d.liveIdx)
		}
		if d.squashed || d.retired {
			if w.liveFlags[i]&fDead == 0 {
				return fmt.Errorf("window: dead %v not flagged dead in SoA array", d)
			}
			dead++
			continue
		}
		if w.liveFlags[i] != flagsOf(d) {
			return fmt.Errorf("window: stale SoA flags %#x for %v (want %#x)", w.liveFlags[i], d, flagsOf(d))
		}
		if i < w.lo {
			return fmt.Errorf("window: live %v below dead-prefix watermark %d", d, w.lo)
		}
		if d.seg.unlinked {
			return fmt.Errorf("window: live %v sits in a reclaimed segment", d)
		}
	}
	if dead != w.dead {
		return fmt.Errorf("window: %d tombstones in array, tracked %d", dead, w.dead)
	}
	if n := len(w.liveCache) - dead; n != w.count {
		return fmt.Errorf("window: array holds %d live instructions, tracked %d", n, w.count)
	}
	return nil
}
