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

	// Window bookkeeping.
	seg      *segment
	slot     int
	pos      int64
	squashed bool
	retired  bool
	liveIdx  int32 // index in the window's live-order cache; see refresh

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

// operandsCommitted reports whether every register source other than r0
// comes from a retired producer, so its value is architectural.
func (d *dyn) operandsCommitted() bool {
	for i := 0; i < d.nsrc; i++ {
		if p := d.src[i]; d.srcReg[i] != isa.RZero && (p == nil || !p.retired) {
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

// segment is one ROB block (§A.4): slots fill in order; squashed slots
// stay dead until the whole segment is reclaimed (internal fragmentation).
type segment struct {
	slots      []*dyn
	used       int
	prev, next *segment
	// sealed marks a segment that will receive no more dispatches (it is
	// neither the tail nor an active restart's fill target).
	sealed bool
	// unlinked marks a reclaimed segment; reclaiming is idempotent.
	unlinked bool
}

func (s *segment) full() bool { return s.used == cap(s.slots) }

// drained reports whether every used slot is retired or squashed.
func (s *segment) drained() bool {
	for _, d := range s.slots[:s.used] {
		if !d.retired && !d.squashed {
			return false
		}
	}
	return true
}

// window is the segmented reorder buffer.
type window struct {
	segSize  int
	maxSegs  int
	liveSegs int
	head     *segment
	tail     *segment

	nextPos int64
	count   int // live (non-retired, non-squashed) instructions

	// Slab arenas for segments and their slot arrays. With the default
	// SegmentSize of 1 every dispatched instruction allocates a segment,
	// which made newSegment the single largest allocation site of the
	// whole simulator (>80% of objects). Segments are never reused after
	// being unlinked — stale seg pointers held by retired dyns must keep
	// pointing at dead-but-intact memory — so a bump allocator is safe:
	// slots carved from one big backing array, structs from one slab.
	// Chunks come from rm, which recycles them across runs.
	segArena  []segment
	slotArena []*dyn
	rm        *runMem

	// The live-order cache is the in-order snapshot of the window that
	// the per-cycle walks (forEach, forEachAfter, the rename chains)
	// iterate instead of chasing segment links slot by slot — with the
	// default SegmentSize of 1 a segment walk is a pointer chase per
	// instruction, and the walks dominated the simulator's CPU profile.
	// It is struct-of-arrays: liveCache holds the *dyn in window order,
	// and liveFlags mirrors, entry for entry, the byte of state the hot
	// filters test (dead, pipeline state, pending control, load/store,
	// address validity) — so the issue, resolve, stability and
	// store-forward scans reject the common case from a dense byte array
	// without dereferencing the instruction at all, and goldSync resumes
	// its walk at a cache index. (Wakeup walks consumer lists instead; see
	// incremental.go.)
	// The flag byte is re-mirrored by noteFlags at every state
	// transition; all transition sites funnel through a handful of
	// machine methods (issue, complete, forceReissue, reissueLoad,
	// resolveStep, squash, retire).
	//
	// The cache is maintained incrementally: appendTail extends both
	// arrays in place (tail appends preserve order), and squash/retire
	// leave their entry behind as a tombstone that every walker skips by
	// flag — exactly the check the segment walk performed — counted in
	// dead and compacted away once tombstones dominate. Only insertAfter
	// breaks cache order; it sets dirty, and refresh rebuilds from the
	// authoritative segment chain. lo is a watermark below which every
	// entry is known dead (liveness flags are never cleared), advanced by
	// headLive so the retired prefix is skipped in amortized O(1).
	// Mutations *during* a cached walk are handled the same way the
	// segment walk handled them: flags are re-checked at visit time, and
	// nested walks fall back to the segment path while a cached walk is
	// in progress (walking > 0) so the snapshot under the outer iteration
	// is never rebuilt or compacted in place.
	liveCache []*dyn
	liveFlags []uint8
	dirty     bool
	dead      int
	lo        int
	walking   int
}

// Flag bits of the live-order cache's SoA filter byte. The pipeline
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

// noteFlags re-mirrors d's filter byte into the SoA cache after a state
// transition. O(1); a no-op when the cache is dirty (the rebuild
// recomputes every byte) or d is not in the current snapshot.
func (w *window) noteFlags(d *dyn) {
	if w.dirty {
		return
	}
	if i := int(d.liveIdx); i >= 0 && i < len(w.liveCache) && w.liveCache[i] == d {
		w.liveFlags[i] = flagsOf(d)
	}
}

const posGap = int64(1) << 20

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
	if len(w.slotArena) < w.segSize {
		n := 64 * w.segSize
		if n < 1024 {
			n = 1024
		}
		w.slotArena = w.rm.slotChunk(n)
	}
	seg.slots = w.slotArena[:0:w.segSize]
	w.slotArena = w.slotArena[w.segSize:]
	return seg
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
	seg := w.tail
	d.seg = seg
	d.slot = seg.used
	seg.slots = seg.slots[:seg.used+1]
	seg.slots[seg.used] = d
	seg.used++
	w.nextPos += posGap
	d.pos = w.nextPos
	w.count++
	if !w.dirty && w.walking == 0 {
		d.liveIdx = int32(len(w.liveCache))
		w.liveCache = append(w.liveCache, d)
		w.liveFlags = append(w.liveFlags, flagsOf(d))
	} else {
		w.dirty = true
	}
	return true
}

// insertAfter places d immediately after prev in window order, allocating
// insertion segments as needed. The fill segment for a restart is passed
// back and forth by the caller: when fillSeg is non-nil and not full, d
// goes into it; otherwise a fresh segment is linked after prevSeg.
// Returns the (possibly new) fill segment, or nil when out of segments.
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
	d.seg = fillSeg
	d.slot = fillSeg.used
	fillSeg.slots = fillSeg.slots[:fillSeg.used+1]
	fillSeg.slots[fillSeg.used] = d
	fillSeg.used++
	w.count++
	w.dirty = true
	w.assignPos(d)
	return fillSeg
}

// assignPos gives d a position strictly between its window neighbours,
// renumbering the whole window if the gap is exhausted.
func (w *window) assignPos(d *dyn) {
	prev := w.prevLive(d, true)
	next := w.nextLive(d, true)
	var lo, hi int64
	if prev != nil {
		lo = prev.pos
	}
	if next != nil {
		hi = next.pos
	} else {
		hi = w.nextPos + 2*posGap
		w.nextPos = hi
	}
	if hi-lo < 2 {
		w.renumber()
		w.assignPos(d)
		return
	}
	d.pos = lo + (hi-lo)/2
}

func (w *window) renumber() {
	p := int64(0)
	for seg := w.head; seg != nil; seg = seg.next {
		for _, d := range seg.slots[:seg.used] {
			p += posGap
			d.pos = p
		}
	}
	w.nextPos = p
}

// refresh makes the order cache usable: a dirty cache (an insertAfter
// broke order) is rebuilt from the segment chain, and a clean one is
// compacted when tombstones dominate. ok is false only when the cache is
// dirty inside an ongoing cached walk and the caller must take the
// segment path.
//
//cisim:hot
func (w *window) refresh() (cache []*dyn, ok bool) {
	if w.dirty {
		if w.walking > 0 {
			return nil, false
		}
		w.liveCache = w.liveCache[:0]
		w.liveFlags = w.liveFlags[:0]
		for seg := w.head; seg != nil; seg = seg.next {
			for _, d := range seg.slots[:seg.used] {
				if !d.squashed && !d.retired {
					d.liveIdx = int32(len(w.liveCache))
					w.liveCache = append(w.liveCache, d)
					w.liveFlags = append(w.liveFlags, flagsOf(d))
				}
			}
		}
		w.dirty = false
		w.dead = 0
		w.lo = 0
	} else if w.walking == 0 && w.dead >= 32 && 2*w.dead >= len(w.liveCache) {
		w.compact()
	}
	return w.liveCache, true
}

// compact squeezes tombstones out of a clean cache, preserving order.
//
//cisim:hot
func (w *window) compact() {
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

// live returns the order cache as parallel arrays (tombstones included —
// callers must skip by the dead flag, exactly as forEach does) for
// direct, inlinable iteration by the hot per-cycle stages: flags[i] is
// the filter byte of ptr[i]. ok is false only when the cache is dirty
// inside an ongoing walk, which the stages, running outside any walk,
// never are (machine.stageLive). Callers bracket their loop with
// walking++/-- and must not append or insert, the same contract forEach
// imposes on its callbacks.
func (w *window) live() (ptr []*dyn, flags []uint8, ok bool) {
	cache, ok := w.refresh()
	if !ok {
		return nil, nil, false
	}
	return cache[w.lo:], w.liveFlags[w.lo:], true
}

// liveAfter returns the cache suffix strictly after d under the same
// contract as live. ok is false when the cache is dirty or d has been
// compacted away (dead anchor); the caller then takes the forEachAfter
// path.
func (w *window) liveAfter(d *dyn) (ptr []*dyn, flags []uint8, ok bool) {
	cache, ok := w.refresh()
	if !ok {
		return nil, nil, false
	}
	if i := w.cacheIndex(cache, d); i >= 0 {
		return cache[i+1:], w.liveFlags[i+1:], true
	}
	return nil, nil, false
}

// cacheIndex returns d's position in a current cache, or -1 when d is not
// in it (dead, or a stale liveIdx from an earlier rebuild — the identity
// check catches both).
func (w *window) cacheIndex(cache []*dyn, d *dyn) int {
	if i := int(d.liveIdx); i >= 0 && i < len(cache) && cache[i] == d {
		return i
	}
	return -1
}

// prevLive returns the dyn before d in window order; includeAll also
// visits squashed/retired slots (used for position assignment). A clean
// cache answers live queries in O(1); dead anchors and dirty windows take
// the segment walk.
func (w *window) prevLive(d *dyn, includeAll bool) *dyn {
	if !includeAll && !w.dirty {
		if i := w.cacheIndex(w.liveCache, d); i >= 0 {
			for j := i - 1; j >= w.lo; j-- {
				if w.liveFlags[j]&fDead == 0 {
					return w.liveCache[j]
				}
			}
			return nil
		}
	}
	seg, slot := d.seg, d.slot-1
	for seg != nil {
		for ; slot >= 0; slot-- {
			c := seg.slots[slot]
			if includeAll || (!c.squashed && !c.retired) {
				return c
			}
		}
		seg = seg.prev
		if seg != nil {
			slot = seg.used - 1
		}
	}
	return nil
}

// nextLive returns the dyn after d in window order.
func (w *window) nextLive(d *dyn, includeAll bool) *dyn {
	if !includeAll && !w.dirty {
		if i := w.cacheIndex(w.liveCache, d); i >= 0 {
			for j := i + 1; j < len(w.liveCache); j++ {
				if w.liveFlags[j]&fDead == 0 {
					return w.liveCache[j]
				}
			}
			return nil
		}
	}
	seg, slot := d.seg, d.slot+1
	for seg != nil {
		for ; slot < seg.used; slot++ {
			c := seg.slots[slot]
			if includeAll || (!c.squashed && !c.retired) {
				return c
			}
		}
		seg = seg.next
		slot = 0
	}
	return nil
}

// forEach visits every live (non-squashed, non-retired) dyn in order.
// Returning false stops the walk. Callbacks may squash or retire — the
// flags are re-checked at visit time, matching the segment walk — but
// must not append or insert (nothing does: dispatch and restart fill run
// outside window walks).
func (w *window) forEach(f func(d *dyn) bool) {
	cache, ok := w.refresh()
	if !ok {
		for seg := w.head; seg != nil; seg = seg.next {
			for _, d := range seg.slots[:seg.used] {
				if d.squashed || d.retired {
					continue
				}
				if !f(d) {
					return
				}
			}
		}
		return
	}
	w.walking++
	flags := w.liveFlags
	for i := w.lo; i < len(cache); i++ {
		if flags[i]&fDead != 0 {
			continue
		}
		if !f(cache[i]) {
			break
		}
	}
	w.walking--
}

// forEachAfter visits live dyns strictly after d in window order.
func (w *window) forEachAfter(d *dyn, f func(d *dyn) bool) {
	if cache, ok := w.refresh(); ok {
		if i := w.cacheIndex(cache, d); i >= 0 {
			w.walking++
			flags := w.liveFlags
			for j := i + 1; j < len(cache); j++ {
				if flags[j]&fDead != 0 {
					continue
				}
				if !f(cache[j]) {
					break
				}
			}
			w.walking--
			return
		}
	}
	// Dead anchor or mid-walk mutation: the segment walk navigates from
	// dead slots exactly as the pre-cache implementation did.
	seg, slot := d.seg, d.slot+1
	for seg != nil {
		for ; slot < seg.used; slot++ {
			c := seg.slots[slot]
			if c.squashed || c.retired {
				continue
			}
			if !f(c) {
				return
			}
		}
		seg = seg.next
		slot = 0
	}
}

// squash marks d dead and reclaims its segment if fully drained.
func (w *window) squash(d *dyn) {
	if d.squashed || d.retired {
		return
	}
	d.squashed = true
	w.count--
	if !w.dirty {
		w.dead++ // now a tombstone in the cache; walkers skip by flag
		w.noteFlags(d)
	}
	w.maybeFree(d.seg)
}

// retire marks d retired and reclaims its segment if fully drained.
func (w *window) retire(d *dyn) {
	d.retired = true
	w.count--
	if !w.dirty {
		w.dead++ // now a tombstone in the cache; walkers skip by flag
		w.noteFlags(d)
	}
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
	if !w.dirty {
		for ; w.lo < len(w.liveCache); w.lo++ {
			if w.liveFlags[w.lo]&fDead == 0 {
				return w.liveCache[w.lo]
			}
		}
		return nil
	}
	for seg := w.head; seg != nil; seg = seg.next {
		for _, d := range seg.slots[:seg.used] {
			if !d.squashed && !d.retired {
				return d
			}
		}
	}
	return nil
}

// tailLive returns the youngest live dyn.
func (w *window) tailLive() *dyn {
	if !w.dirty {
		for i := len(w.liveCache) - 1; i >= w.lo; i-- {
			if w.liveFlags[i]&fDead == 0 {
				return w.liveCache[i]
			}
		}
		return nil
	}
	for seg := w.tail; seg != nil; seg = seg.prev {
		for i := seg.used - 1; i >= 0; i-- {
			d := seg.slots[i]
			if !d.squashed && !d.retired {
				return d
			}
		}
	}
	return nil
}

// check validates window invariants (enabled by Config.Check).
func (w *window) check() error {
	segs := 0
	var lastPos int64 = -1
	live := 0
	for seg := w.head; seg != nil; seg = seg.next {
		segs++
		if seg.next != nil && seg.next.prev != seg {
			return fmt.Errorf("window: broken segment links")
		}
		for _, d := range seg.slots[:seg.used] {
			if d.pos <= lastPos {
				return fmt.Errorf("window: position order violated at %v (%d after %d)", d, d.pos, lastPos)
			}
			lastPos = d.pos
			if !d.squashed && !d.retired {
				live++
			}
		}
	}
	if segs != w.liveSegs {
		return fmt.Errorf("window: segment count %d != tracked %d", segs, w.liveSegs)
	}
	if live != w.count {
		return fmt.Errorf("window: live count %d != tracked %d", live, w.count)
	}
	if segs > w.maxSegs {
		return fmt.Errorf("window: %d segments exceed capacity %d", segs, w.maxSegs)
	}
	if !w.dirty {
		// A clean cache, with tombstones skipped, must be exactly the live
		// segment walk in order; tombstone and watermark accounting must
		// match, and the SoA flag bytes must mirror the dyn fields they
		// summarize (a stale byte would silently skip or mis-filter an
		// instruction in the hot scans).
		if len(w.liveFlags) != len(w.liveCache) {
			return fmt.Errorf("window: %d flag bytes for %d cache entries", len(w.liveFlags), len(w.liveCache))
		}
		dead := 0
		var liveIn []*dyn
		for i, d := range w.liveCache {
			if d.squashed || d.retired {
				if w.liveFlags[i]&fDead == 0 {
					return fmt.Errorf("window: dead %v not flagged dead in SoA cache", d)
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
			if w.cacheIndex(w.liveCache, d) != i {
				return fmt.Errorf("window: stale liveIdx for %v at cache slot %d", d, i)
			}
			liveIn = append(liveIn, d)
		}
		if dead != w.dead {
			return fmt.Errorf("window: %d tombstones in cache, tracked %d", dead, w.dead)
		}
		i := 0
		for seg := w.head; seg != nil; seg = seg.next {
			for _, d := range seg.slots[:seg.used] {
				if d.squashed || d.retired {
					continue
				}
				if i >= len(liveIn) || liveIn[i] != d {
					return fmt.Errorf("window: live cache diverges from segment order at %d (%v)", i, d)
				}
				i++
			}
		}
		if i != len(liveIn) {
			return fmt.Errorf("window: live cache has %d live entries, segment walk %d", len(liveIn), i)
		}
	}
	return nil
}
