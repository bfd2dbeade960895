package ooo

import (
	"cisim/internal/bpred"
	"cisim/internal/cfg"
	"cisim/internal/isa"
)

// restartSeq is an in-progress restart sequence (§3.1 / Figure 4): the
// incorrect control dependent instructions have been squashed and the
// sequencer is fetching the correct control dependent path into the gap
// between the branch and the reconvergent point.
type restartSeq struct {
	branch *dyn
	reconv *dyn // first preserved control independent instruction
	// search marks an associative-search restart (§A.5.1): reconv is not
	// known up front; incoming PCs are matched against the window
	// content after the branch (instructions older than seqFloor), and
	// the first hit becomes the reconvergent point.
	search   bool
	seqFloor uint64
	fetchPC  uint64
	hist     bpred.History
	ras      *bpred.RAS
	rmap     regMap // scratch rename array, filled by rmapAt
	fillSeg  *segment
	lastIns  *dyn
	goldCur  int
	started  int64
	insert   int
}

// redispSeq is a pending or in-progress redispatch sequence: a walk over
// the control independent instructions that remaps register sources,
// re-predicts branches with corrected history, and selectively reissues
// anything whose mapping changed (§3.2.3, §A.3.2).
type redispSeq struct {
	cur       *dyn
	hist      bpred.History
	ras       *bpred.RAS
	gold      int
	rmap      regMap // scratch rename array, filled when the walk starts
	rmapValid bool
}

// pendingRec is a detected misprediction (or re-prediction flip) awaiting
// sequencer service.
type pendingRec struct {
	d      *dyn
	taken  bool
	target uint64
	// repred marks a re-prediction flip rather than an execution-driven
	// misprediction.
	repred bool
}

// serviceRecoveries is the per-cycle sequencer step: it picks recoveries
// to service (with preemption per §A.1), advances the active restart
// sequence, or advances the redispatch walk.
func (m *machine) serviceRecoveries() {
	m.prunePending()
	if len(m.pendingRecs) > 0 {
		nb := m.oldestPending()
		switch {
		case m.active == nil:
			// Preempting a redispatch walk is always safe (§A.1.1): the
			// recovery's own redispatch re-covers the region.
			m.takePending(nb)
			m.beginRecovery(nb)
		case m.active.search:
			// A search restart has no reconvergent point yet; only a
			// recovery logically before its branch can displace it.
			if !m.active.branch.retired && nb.d.pos < m.active.branch.pos {
				m.abandonRestart(m.active)
				m.takePending(nb)
				m.beginRecovery(nb)
			}
		case nb.d.pos < m.active.reconv.pos:
			// Logically before the remaining restart work (§A.1).
			m.preempt(nb)
		default:
			// Logically after the active restart region: wait.
		}
	}
	if m.active == nil && len(m.suspended) > 0 {
		m.resumeSuspended()
	}
	if m.active != nil {
		m.continueRestart()
	}
	// Redispatch overlaps with restart fetch (§3.1 allows overlapping the
	// recovery steps): the walk may only proceed through instructions
	// older than the active gap, which is exactly what its cursor
	// guarantees (walks start at a reconvergent point older than any
	// newer restart's region, and pause when preempted).
	if m.redisp != nil {
		m.continueWalk()
	}
}

func (m *machine) prunePending() {
	out := m.pendingRecs[:0]
	for _, pr := range m.pendingRecs {
		d := pr.d
		if d.squashed || d.retired {
			continue
		}
		if d.isCond && d.assumedTaken == pr.taken {
			continue // already redirected this way
		}
		if !d.isCond && d.assumedTarget == pr.target {
			continue
		}
		out = append(out, pr)
	}
	m.pendingRecs = out
}

func (m *machine) oldestPending() pendingRec {
	best := m.pendingRecs[0]
	for _, pr := range m.pendingRecs[1:] {
		if pr.d.pos < best.d.pos {
			best = pr
		}
	}
	return best
}

func (m *machine) takePending(pr pendingRec) {
	out := m.pendingRecs[:0]
	for _, p := range m.pendingRecs {
		if p.d != pr.d {
			out = append(out, p)
		}
	}
	m.pendingRecs = out
}

// preempt handles a misprediction detected logically before the active
// restart sequence (§A.1.1, Figure 7).
func (m *machine) preempt(nb pendingRec) {
	m.stats.Preemptions++
	nr := m.findReconv(nb.d, nb.taken, nb.target)
	act := m.active
	// CASE 2 when the new reconvergent point falls inside or beyond the
	// active restart's region. If the active branch already retired, any
	// live dyn older than the reconv point is in the gap, so it is CASE 2
	// as well (retired positions are unreliable across renumbering).
	caseTwo := nr != nil && (act.branch.retired || nr.pos > act.branch.pos)
	switch {
	case nr == nil || caseTwo:
		// CASE 1 and CASE 2: the new recovery removes the active
		// restart's region; abandon it entirely.
		m.abandonRestart(act)
		m.takePending(nb)
		m.beginRecovery(nb)
	default:
		// CASE 3: the new reconvergent point precedes the active restart.
		m.debugf("preempt CASE3 nb=%v act.branch=%v", nb.d, act.branch)
		m.stats.Case3Preemptions++
		if m.cfg.Preempt == PreemptOptimal {
			m.suspended = append(m.suspended, act)
			m.active = nil
		} else {
			// Simple preemption: forget the active restart and squash
			// everything beyond the partially filled gap, so fetch can
			// later continue sequentially without gap state (§A.1.1).
			m.abandonRestart(act)
		}
		m.takePending(nb)
		m.beginRecovery(nb)
	}
}

// abandonRestart discards an incomplete restart sequence. The unfilled
// remainder of its gap would otherwise leave a hole of missing
// instructions, so everything after the last inserted instruction is
// squashed; sequential fetch will eventually refetch it.
func (m *machine) abandonRestart(act *restartSeq) {
	m.debugf("abandonRestart branch=%v lastIns=%v", act.branch, act.lastIns)
	m.active = nil
	if next := m.win.nextLive(act.lastIns, false); next != nil {
		m.squashFrom(next)
	}
	m.win.sealAndSweep(act.fillSeg)
}

// beginRecovery services one misprediction, measuring the squash depth —
// instructions discarded in its immediate service (selective or full
// squash, fetch-buffer drops) — when metrics are enabled.
func (m *machine) beginRecovery(pr pendingRec) {
	before := m.stats.WrongPathFetched
	m.beginRecoveryInner(pr)
	if m.mx != nil {
		m.mx.squashDepth.Observe(int64(m.stats.WrongPathFetched - before))
	}
}

// beginRecoveryInner services one misprediction: selective squash and
// restart setup (CI machines), or complete squash (BASE / no
// reconvergence).
func (m *machine) beginRecoveryInner(pr pendingRec) {
	d := pr.d
	if m.cfg.hookRecovery != nil {
		m.cfg.hookRecovery(m, pr)
	}
	m.debugf("beginRecovery %v repred=%v taken=%v", d, pr.repred, pr.taken)
	m.stats.Recoveries++
	if !pr.repred {
		m.stats.Mispredicts++
		if d.gold >= 0 && m.falseOutcome(d) {
			m.stats.FalseMisp++
		}
		if m.cfg.RecordMisps {
			m.mispEvents = append(m.mispEvents, MispEvent{
				PC: d.pc, Hist: d.histBefore,
				False: d.gold >= 0 && m.falseOutcome(d),
			})
		}
	} else {
		m.stats.RepredictFlips++
		if d.ctlDone {
			m.stats.RepredictOverturn++
		}
	}

	// Redirect the branch's assumed direction. If the branch has a
	// current computed outcome that disagrees with the new direction
	// (a re-prediction applied after the branch re-completed), queue the
	// execution-driven recovery immediately so the mismatch cannot
	// stand silently.
	d.assumedTaken = pr.taken
	d.assumedTarget = pr.target
	m.dropGoldPrefix(d)
	if pr.repred && d.ctlDone && d.st == stDone && !d.stale {
		m.checkResolved(d)
	}

	nr := m.findReconv(d, pr.taken, pr.target)
	// Drop any redispatch state that the squash will invalidate; the
	// recovery's own redispatch re-covers everything younger.
	if m.redisp != nil && (m.redisp.cur == nil || m.redisp.cur.pos > d.pos) {
		// A finished-but-unretired walk (cur == nil) is superseded too:
		// the recovery re-establishes fetch state itself.
		m.debugf("  drop walk (branch older or walk drained)")
		m.redisp = nil
	}
	m.dropFetchBuf()

	if nr == nil && m.cfg.Machine != Base && !m.cfg.Reconv.PostDom && m.cfg.Reconv.Assoc {
		if m.beginSearchRecovery(d, pr) {
			return
		}
	}
	if nr == nil {
		m.debugf("  fullSquash")
		m.fullSquash(d)
		return
	}
	m.debugf("  restart: reconv=%v", nr)

	// Selective squash of the incorrect control dependent instructions.
	m.stats.Reconverged++
	removed := uint64(0)
	squashedStores := m.storeScratch[:0]
	m.win.forEachAfter(d, func(c *dyn) bool {
		if c == nr {
			return false
		}
		if c.isStore && c.eaValid {
			squashedStores = append(squashedStores, c)
		}
		m.countWrongPath(c)
		m.squashDyn(c)
		removed++
		return true
	})
	// Segment granularity: if the reconvergent point shares the branch's
	// segment, the whole rest of that segment must go too (§A.4).
	for nr != nil && nr.seg == d.seg {
		next := m.win.nextLive(nr, false)
		if nr.isStore && nr.eaValid {
			squashedStores = append(squashedStores, nr)
		}
		m.countWrongPath(nr)
		m.squashDyn(nr)
		removed++
		nr = next
	}
	if nr == nil {
		// Everything after the branch fell in its segment: degenerate to
		// a complete squash.
		m.storeScratch = squashedStores[:0]
		m.stats.Reconverged--
		m.fullSquash(d)
		return
	}
	m.stats.RemovedCD += removed

	// Loads in the preserved region that read squashed stores' data must
	// reissue (memory dependences broken by the restart, §3.2.3).
	m.reissueLoadsAfterStoreSquash(d, squashedStores)
	m.storeScratch = squashedStores[:0]

	// Mark preserved control independent instructions (Table 2/3).
	ci := uint64(0)
	for c := nr; c != nil; c = m.win.nextLive(c, false) {
		ci++
		if c.saved == savedNo {
			if c.st == stWaiting && c.issues == 0 {
				c.saved = savedFetched
			} else {
				c.saved = savedIssued
			}
		}
	}
	m.stats.CIInstructions += ci

	// Start the restart sequence.
	hist := d.histBefore
	if d.isCond {
		hist = hist.Push(pr.taken)
	}
	ras := bpred.NewRAS()
	ras.Restore(d.rasSnap)
	m.adjustRASFor(d, ras)
	goldCur := -1
	if d.gold >= 0 && pr.target == m.golden.at(d.gold).nextPC {
		goldCur = d.gold + 1
	}
	m.active = &restartSeq{
		branch:  d,
		reconv:  nr,
		fetchPC: pr.target,
		hist:    hist,
		ras:     ras,
		lastIns: d,
		goldCur: goldCur,
		started: m.cycle,
	}
	m.rmapAt(&m.active.rmap, d)
	m.rebuildTailRmap()
}

// beginSearchRecovery starts an associative-search restart (§A.5.1):
// nothing is squashed yet; the fill proceeds and each incoming PC is
// matched against the surviving window content after the branch. Returns
// false when there is nothing after the branch to search.
func (m *machine) beginSearchRecovery(d *dyn, pr pendingRec) bool {
	// Segment granularity (§A.4): the fill segment links after the
	// branch's segment, so any live same-segment successors must go
	// first — they cannot be preserved across a mid-segment insertion.
	squashedStores := m.storeScratch[:0]
	for i := d.slot + 1; i < d.seg.used; i++ {
		c := d.seg.slots[i]
		if !c.squashed && !c.retired {
			if c.isStore && c.eaValid {
				squashedStores = append(squashedStores, c)
			}
			m.countWrongPath(c)
			m.squashDyn(c)
		}
	}
	m.reissueLoadsAfterStoreSquash(d, squashedStores)
	m.storeScratch = squashedStores[:0]
	if m.win.nextLive(d, false) == nil {
		return false
	}
	hist := d.histBefore
	if d.isCond {
		hist = hist.Push(pr.taken)
	}
	ras := bpred.NewRAS()
	ras.Restore(d.rasSnap)
	m.adjustRASFor(d, ras)
	goldCur := -1
	if d.gold >= 0 && pr.target == m.golden.at(d.gold).nextPC {
		goldCur = d.gold + 1
	}
	m.active = &restartSeq{
		branch:   d,
		search:   true,
		seqFloor: m.seq + 1,
		fetchPC:  pr.target,
		hist:     hist,
		ras:      ras,
		lastIns:  d,
		goldCur:  goldCur,
		started:  m.cycle,
	}
	m.rmapAt(&m.active.rmap, d)
	m.rebuildTailRmap()
	return true
}

// adjustRASFor replays the branch's own RAS effect on a restored snapshot
// (the snapshot was taken before a return's pop, after a call's push).
func (m *machine) adjustRASFor(d *dyn, ras *bpred.RAS) {
	if isa.ClassOf(d.inst.Op) == isa.ClassReturn {
		ras.Pop()
	}
}

// fullSquash implements complete-squash recovery: everything after the
// branch is removed and fetch restarts on the corrected path.
func (m *machine) fullSquash(d *dyn) {
	m.stats.FullSquashes++
	m.win.forEachAfter(d, func(c *dyn) bool {
		m.countWrongPath(c)
		m.squashDyn(c)
		return true
	})
	m.active = nil
	m.filterSuspended()
	m.dropFetchBuf()

	m.fetchPC = d.assumedTarget
	m.fetchOn = true
	m.fetchHist = d.histBefore
	if d.isCond {
		m.fetchHist = m.fetchHist.Push(d.assumedTaken)
	}
	m.ras.Restore(d.rasSnap)
	m.adjustRASFor(d, m.ras)
	if d.gold >= 0 && d.assumedTarget == m.golden.at(d.gold).nextPC {
		m.goldCur = d.gold + 1
	} else {
		m.goldCur = -1
	}
	m.rebuildTailRmap()
}

// observeRestartPenalty accounts a finished (or abandoned) restart
// sequence's cycle cost: the Table 2 aggregate, plus the
// recovery-penalty histogram when metrics are enabled.
func (m *machine) observeRestartPenalty(act *restartSeq) {
	m.stats.RestartCycles += uint64(m.cycle - act.started + 1)
	if m.mx != nil {
		m.mx.recoveryPenalty.Observe(m.cycle - act.started + 1)
	}
}

func (m *machine) countWrongPath(c *dyn) {
	m.stats.WrongPathFetched++
	m.stats.WrongPathIssues += uint64(c.issues)
	if m.cfg.RecordPipeline && m.cfg.RecordSquashed {
		m.recordSquashedPipe(c)
	}
}

// dropFetchBuf discards fetched-but-undispatched instructions (they are
// logically younger than any recovery point).
func (m *machine) dropFetchBuf() {
	for _, c := range m.fetchBuf {
		m.countWrongPath(c)
		if m.trc != nil {
			m.trc.TraceSquash(c.seq, m.cycle)
		}
	}
	m.fetchBuf = m.fetchBuf[:0]
}

// squashFrom squashes d and everything after it.
func (m *machine) squashFrom(d *dyn) {
	m.countWrongPath(d)
	m.win.forEachAfter(d, func(c *dyn) bool {
		m.countWrongPath(c)
		m.squashDyn(c)
		return true
	})
	m.squashDyn(d)
	m.rebuildTailRmap()
}

// findReconv locates the first control independent instruction in the
// window for a recovery at d, per the configured reconvergence source.
// Returns nil when none is usable (complete squash).
func (m *machine) findReconv(d *dyn, taken bool, target uint64) *dyn {
	if m.cfg.Machine == Base {
		return nil
	}
	if m.cfg.Reconv.PostDom {
		rpc, ok := m.graph.ReconvergentPC(d.pc)
		if !ok {
			return nil
		}
		return m.findPCAfter(d, rpc)
	}
	// Hardware heuristics (§A.5.2). ltb takes priority for mispredicted
	// backward branches.
	if m.cfg.Reconv.Ltb && d.isCond && cfg.IsBackwardBranch(d.inst) {
		if nr := m.findPCAfter(d, d.pc+4); nr != nil {
			return nr
		}
	}
	if !m.cfg.Reconv.Return && !m.cfg.Reconv.Loop {
		return nil
	}
	var found *dyn
	m.win.forEachAfter(d, func(c *dyn) bool {
		if (m.cfg.Reconv.Return && m.isRetTarget(c.pc)) ||
			(m.cfg.Reconv.Loop && m.isLoopTarget(c.pc)) {
			found = c
			return false
		}
		return true
	})
	return found
}

func (m *machine) findPCAfter(d *dyn, pc uint64) *dyn {
	var found *dyn
	m.win.forEachAfter(d, func(c *dyn) bool {
		if c.pc == pc {
			found = c
			return false
		}
		return true
	})
	return found
}

// continueRestart advances the active restart sequence: fetch the correct
// control dependent path into the gap, up to Width per cycle.
func (m *machine) continueRestart() {
	act := m.active
	if act.search {
		m.continueSearchRestart()
		return
	}
	if act.reconv.squashed || act.reconv.retired {
		// The preserved region was lost (for example to a suspended
		// restart's cleanup); give up control independence for this
		// recovery and continue as sequential fetch.
		m.convertRestartToPlain(false)
		return
	}
	for n := 0; n < m.cfg.Width; n++ {
		if act.fetchPC == act.reconv.pc {
			m.finishRestart()
			return
		}
		in, ok := m.p.InstAt(act.fetchPC)
		if !ok {
			// The correct path fetches garbage before reconverging (a
			// wrong heuristic choice); squash the preserved region and
			// fall back to sequential fetch.
			m.convertRestartToPlain(false)
			return
		}
		// Make room, squashing control independent instructions youngest
		// first (§3.2.2); give up CI if the reconvergent point itself
		// must go.
		for m.win.segsAvailable() == 0 && (act.fillSeg == nil || act.fillSeg.full()) {
			tail := m.win.tailLive()
			if tail == nil || tail == act.reconv || tail.pos <= act.reconv.pos {
				m.convertRestartToPlain(false)
				return
			}
			m.stats.EvictedCI++
			m.countWrongPath(tail)
			m.squashDyn(tail)
		}
		if !m.fillGap(act, m.newDynAt(act.fetchPC, in, act)) {
			return // could not place this cycle; retry next
		}
		if in.Op == isa.HALT {
			// The correct path exits before reconverging: anything
			// preserved beyond this point is architecturally
			// unreachable. Keep the halt, squash the rest.
			m.convertRestartToPlain(true)
			return
		}
	}
}

// continueSearchRestart advances an associative-search restart: fetch the
// correct path into the gap, matching each next PC against the surviving
// instructions after the branch. A match converts the restart into a
// normal one (squash the skipped incorrect control dependent instructions
// and redispatch from the match).
func (m *machine) continueSearchRestart() {
	act := m.active
	for n := 0; n < m.cfg.Width; n++ {
		// Match the next fetch PC against old (pre-recovery) window
		// content after the gap.
		var match *dyn
		m.win.forEachAfter(act.lastIns, func(c *dyn) bool {
			if c.seq < act.seqFloor && c.pc == act.fetchPC {
				match = c
				return false
			}
			return true
		})
		if match != nil {
			// Found the reconvergent point: squash the old instructions
			// between the gap and the match (the incorrect control
			// dependent path) and finish as a normal restart.
			removed := uint64(0)
			squashedStores := m.storeScratch[:0]
			m.win.forEachAfter(act.lastIns, func(c *dyn) bool {
				if c == match {
					return false
				}
				if c.isStore && c.eaValid {
					squashedStores = append(squashedStores, c)
				}
				m.countWrongPath(c)
				m.squashDyn(c)
				removed++
				return true
			})
			m.reissueLoadsAfterStoreSquash(act.branch, squashedStores)
			m.storeScratch = squashedStores[:0]
			m.stats.Reconverged++
			m.stats.RemovedCD += removed
			ci := uint64(0)
			for c := match; c != nil; c = m.win.nextLive(c, false) {
				ci++
				if c.saved == savedNo {
					if c.st == stWaiting && c.issues == 0 {
						c.saved = savedFetched
					} else {
						c.saved = savedIssued
					}
				}
			}
			m.stats.CIInstructions += ci
			act.reconv = match
			act.search = false
			m.finishRestart()
			return
		}
		in, ok := m.p.InstAt(act.fetchPC)
		if !ok {
			m.convertSearchToPlain(false)
			return
		}
		// Out of space: reclaim from the tail — §A.5.1's noted drawback
		// is precisely that buffers are reclaimed from the tail, possibly
		// squashing control independent instructions unnecessarily.
		for m.win.segsAvailable() == 0 && (act.fillSeg == nil || act.fillSeg.full()) {
			tail := m.win.tailLive()
			if tail == nil || tail == act.lastIns {
				m.convertSearchToPlain(false)
				return
			}
			m.stats.EvictedCI++
			m.countWrongPath(tail)
			m.squashDyn(tail)
		}
		if !m.fillGap(act, m.newDynAt(act.fetchPC, in, act)) {
			return
		}
		if in.Op == isa.HALT {
			m.convertSearchToPlain(true)
			return
		}
	}
}

// fillGap inserts a restart-fetched instruction after the restart's last
// insertion and renames it from the restart's map. It returns false when
// no segment is free this cycle; the instruction is then dropped.
func (m *machine) fillGap(act *restartSeq, d *dyn) bool {
	seg := m.win.insertAfter(act.lastIns, act.fillSeg, d)
	if seg == nil {
		return false
	}
	m.dropGoldPrefix(d)
	act.fillSeg = seg
	act.lastIns = d
	act.insert++
	m.renameWith(d, &act.rmap)
	act.fetchPC = d.assumedTarget
	return true
}

// reissueLoadsAfterStoreSquash reissues every live load after from whose
// address range overlaps a squashed store: its value may have come from
// that store (loads merge bytes from several stores, so tracking one
// forwarding source is not enough — overlap is the safe test).
func (m *machine) reissueLoadsAfterStoreSquash(from *dyn, squashed []*dyn) {
	if len(squashed) == 0 {
		return
	}
	m.win.forEachAfter(from, func(c *dyn) bool {
		if !c.isLoad || !c.eaValid || c.st == stWaiting {
			return true
		}
		for _, s := range squashed {
			if overlaps(s.ea, s.esize, c.ea, c.esize) {
				m.reissueLoad(c)
				return true
			}
		}
		return true
	})
}

// convertSearchToPlain gives up the associative search: the old window
// content after the gap is squashed and sequential fetch continues.
func (m *machine) convertSearchToPlain(halted bool) {
	act := m.active
	m.active = nil
	if next := m.win.nextLive(act.lastIns, false); next != nil {
		m.squashFrom(next)
	}
	m.win.sealAndSweep(act.fillSeg)
	m.stats.InsertedCD += uint64(act.insert)
	m.observeRestartPenalty(act)
	m.stats.FullSquashes++

	m.filterSuspended()
	m.fetchPC = act.fetchPC
	m.fetchOn = !halted && m.p.InCode(act.fetchPC)
	m.fetchHist = act.hist
	m.ras.Restore(act.ras.Snapshot())
	m.goldCur = act.goldCur
	m.rebuildTailRmap()
}

// newDynAt creates and predicts a dyn for restart fetch, using the
// restart's own history, RAS, and golden cursor.
func (m *machine) newDynAt(pc uint64, in isa.Inst, act *restartSeq) *dyn {
	m.seq++
	d := m.allocDyn()
	d.seq, d.pc, d.inst, d.gold = m.seq, pc, in, -1
	d.fetchC, d.doneC = m.cycle, -1
	if act.goldCur >= 0 && act.goldCur < m.golden.n && m.golden.at(act.goldCur).pc == pc {
		d.gold = act.goldCur
	}
	srcs := in.SrcRegs()
	d.nsrc = len(srcs)
	for i, r := range srcs {
		d.srcReg[i] = r
	}
	if rd, ok := in.WritesReg(); ok {
		d.dest, d.hasRd = rd, true
	}
	switch isa.ClassOf(in.Op) {
	case isa.ClassLoad:
		d.isLoad = true
		d.esize = 8
		if in.Op == isa.LB {
			d.esize = 1
		}
	case isa.ClassStore:
		d.isStore = true
		d.esize = 8
		if in.Op == isa.SB {
			d.esize = 1
		}
	}
	d.histBefore = act.hist
	next := pc + 4
	switch isa.ClassOf(in.Op) {
	case isa.ClassCondBr:
		d.isCtl, d.isCond = true, true
		hist := act.hist
		if m.cfg.OracleGlobalHistory && d.gold >= 0 {
			hist = m.golden.at(d.gold).hist
		}
		d.predTaken = m.predictDir(pc, hist)
		d.assumedTaken = d.predTaken
		if d.predTaken {
			next = in.BranchTarget(pc)
		}
		act.hist = act.hist.Push(d.predTaken)
		d.rasSnap = act.ras.Snapshot()
		if m.cfg.Reconv.Loop && cfg.IsBackwardBranch(in) {
			m.addLoopTarget(next)
		}
	case isa.ClassJump:
		next = in.Target
	case isa.ClassCall:
		act.ras.Push(pc + 4)
		next = in.Target
	case isa.ClassIndJump, isa.ClassIndCall:
		d.isCtl = true
		if t, ok := m.ctb.Predict(pc, act.hist); ok {
			next = t
		}
		if isa.ClassOf(in.Op) == isa.ClassIndCall {
			act.ras.Push(pc + 4)
		}
		d.rasSnap = act.ras.Snapshot()
	case isa.ClassReturn:
		d.isCtl = true
		d.rasSnap = act.ras.Snapshot()
		if t, ok := act.ras.Pop(); ok {
			next = t
		}
		if m.cfg.Reconv.Return {
			m.addRetTarget(next)
		}
	}
	d.assumedTarget = next
	if d.gold >= 0 && act.goldCur == d.gold {
		if next == m.golden.at(d.gold).nextPC {
			act.goldCur = d.gold + 1
		} else {
			act.goldCur = -1
		}
	}
	if m.trc != nil {
		m.trc.TraceFetch(d.seq, pc, in, m.cycle)
	}
	return d
}

func (m *machine) renameWith(d *dyn, rmap *regMap) {
	for i := 0; i < d.nsrc; i++ {
		if d.srcReg[i] == isa.RZero {
			continue
		}
		d.src[i] = rmap[d.srcReg[i]]
		m.addConsumer(d.src[i], d)
	}
	if d.hasRd {
		rmap[d.dest] = d
	}
	if m.trc != nil {
		m.trc.TraceRename(d.seq, m.cycle)
	}
}

// finishRestart completes the restart sequence and schedules redispatch.
func (m *machine) finishRestart() {
	act := m.active
	m.debugf("finishRestart branch=%v inserted=%d lastIns=%v", act.branch, act.insert, act.lastIns)
	m.active = nil
	m.win.sealAndSweep(act.fillSeg)
	m.stats.InsertedCD += uint64(act.insert)
	m.observeRestartPenalty(act)

	nd := &redispSeq{cur: act.reconv, hist: act.hist, ras: act.ras, gold: act.goldCur}
	if m.redisp == nil || nd.cur.pos < m.redisp.cur.pos {
		m.redisp = nd
	} else {
		m.debugf("  keep older walk at %v over %v", m.redisp.cur, nd.cur)
	}
	m.resumeSuspended()
}

// filterSuspended drops suspended restarts whose surroundings were
// squashed by an intervening recovery.
func (m *machine) filterSuspended() {
	keep := m.suspended[:0]
	for _, s := range m.suspended {
		// A suspended restart is superseded only when a later recovery
		// squashed its region (the squasher refetches it). The branch
		// merely having retired is fine: the gap still needs filling.
		if s.branch.squashed || s.lastIns.squashed ||
			s.reconv.squashed || s.reconv.retired {
			m.debugf("drop suspended branch=%v(sq=%v) lastIns=%v(sq=%v) reconv=%v(sq=%v,rt=%v)",
				s.branch, s.branch.squashed, s.lastIns, s.lastIns.squashed,
				s.reconv, s.reconv.squashed, s.reconv.retired)
			// If the partial gap fill survives, its tail dangles into a
			// hole of never-fetched instructions; squash the remnant and
			// restore the suspension's own fetch cursor so sequential
			// fetch can refill it. (A pending redispatch walk, if any,
			// re-derives this state when it finishes.)
			if !s.lastIns.squashed && !s.lastIns.retired {
				if next := m.win.nextLive(s.lastIns, false); next != nil {
					m.squashFrom(next)
				}
				m.fetchPC = s.fetchPC
				m.fetchHist = s.hist
				m.ras.Restore(s.ras.Snapshot())
				m.goldCur = s.goldCur
				m.fetchOn = m.p.InCode(s.fetchPC)
			}
			continue
		}
		keep = append(keep, s)
	}
	m.suspended = keep
}

// resumeSuspended reactivates the most recently suspended valid restart
// (optimal preemption, §A.1.2).
func (m *machine) resumeSuspended() {
	m.filterSuspended()
	if len(m.suspended) == 0 {
		return
	}
	s := m.suspended[len(m.suspended)-1]
	m.suspended = m.suspended[:len(m.suspended)-1]
	m.rmapAt(&s.rmap, s.lastIns)
	m.debugf("resume suspended branch=%v lastIns=%v", s.branch, s.lastIns)
	m.active = s
}

// convertRestartToPlain abandons control independence for the active
// restart: the preserved region is squashed and fetch continues
// sequentially from the restart cursor.
func (m *machine) convertRestartToPlain(halted bool) {
	act := m.active
	m.debugf("convertRestartToPlain branch=%v reconv=%v lastIns=%v halted=%v", act.branch, act.reconv, act.lastIns, halted)
	m.active = nil
	// Squash everything past the filled portion of the gap: the
	// preserved region is being given up, and any remnant would leave a
	// hole of missing instructions.
	if next := m.win.nextLive(act.lastIns, false); next != nil {
		m.squashFrom(next)
	}
	m.win.sealAndSweep(act.fillSeg)
	m.stats.InsertedCD += uint64(act.insert)
	m.observeRestartPenalty(act)
	// Degrades to a full squash for statistics purposes.
	m.stats.Reconverged--
	m.stats.FullSquashes++

	m.filterSuspended()
	// A pending redispatch walk over an older region survives: it will
	// finish and restore sequential fetch itself.
	m.fetchPC = act.fetchPC
	m.fetchOn = !halted
	m.fetchHist = act.hist
	m.ras.Restore(act.ras.Snapshot())
	m.goldCur = act.goldCur
	m.rebuildTailRmap()
}

// continueWalk advances the redispatch sequence: remap sources,
// re-predict branches, reissue changed instructions (§3.2.3, §A.3.2).
// CI-I walks the entire window in one cycle.
func (m *machine) continueWalk() {
	rd := m.redisp
	if !rd.rmapValid {
		if prev := m.win.prevLive(rd.cur, false); prev == nil {
			rd.rmap = regMap{}
		} else {
			m.rmapAt(&rd.rmap, prev)
		}
		rd.rmapValid = true
		m.debugf("walk start cur=%v rmap[r11]=%v", rd.cur, rd.rmap[11])
	}
	steps := m.cfg.Width
	if m.cfg.Machine == CIInstant {
		steps = 1 << 30
	}
	for n := 0; n < steps; n++ {
		d := rd.cur
		if d == nil {
			m.finishWalk()
			return
		}
		if d.squashed || d.retired {
			rd.cur = m.win.nextLive(d, false)
			continue
		}
		m.stats.RedispatchWalked++
		// Remap register sources; a changed mapping forces reissue. A
		// mapping that stays "committed state" (nil) can still be stale:
		// a producer inserted by the restart may have retired before the
		// walk got here, so compare the register's last commit time with
		// the instruction's last read.
		changed := false
		for i := 0; i < d.nsrc; i++ {
			if d.srcReg[i] == isa.RZero {
				continue
			}
			p := rd.rmap[d.srcReg[i]]
			if d.src[i] != p {
				d.src[i] = p
				m.addConsumer(p, d)
				changed = true
			} else if p == nil && d.issues > 0 && m.regCommitC[d.srcReg[i]] > d.lastIssueC {
				changed = true
			}
		}
		if changed {
			m.debugf("walk remap %v", d)
			m.forceReissue(d)
			if d.issues > 0 {
				m.stats.RegViolations++
				m.stats.CINewNames++
			}
		}
		if d.hasRd {
			rd.rmap[d.dest] = d
		}
		if d.isCtl {
			if stop := m.repredict(d, rd); stop {
				// A re-prediction flip redirects fetch: the pending
				// recovery covers everything younger.
				m.redisp = nil
				return
			}
		} else {
			switch isa.ClassOf(d.inst.Op) {
			case isa.ClassCall:
				rd.ras.Push(d.pc + 4)
			}
		}
		if d.gold < 0 && rd.gold >= 0 && rd.gold < m.golden.n && m.golden.at(rd.gold).pc == d.pc {
			d.gold = rd.gold
		}
		if rd.gold >= 0 {
			if d.gold == rd.gold && d.assumedTarget == m.golden.at(rd.gold).nextPC {
				rd.gold++
			} else {
				rd.gold = -1
			}
		}
		rd.cur = m.win.nextLive(d, false)
	}
}

// repredict applies the configured re-prediction policy to a walked
// control instruction. Returns true when the walk must stop because the
// new prediction redirects fetch.
func (m *machine) repredict(d *dyn, rd *redispSeq) bool {
	class := isa.ClassOf(d.inst.Op)
	// Keep the walk's RAS consistent regardless of policy.
	if class == isa.ClassReturn {
		rd.ras.Pop()
	}
	if class == isa.ClassIndCall {
		rd.ras.Push(d.pc + 4)
	}

	hist := rd.hist
	if m.cfg.OracleGlobalHistory && d.gold >= 0 {
		hist = m.golden.at(d.gold).hist
	}
	// Refresh the branch's recovery context: a later recovery at this
	// branch must rebuild fetch state from the *corrected* history and
	// return-stack, not the pre-repair speculative ones.
	d.histBefore = rd.hist
	d.rasSnap = rd.ras.Snapshot()
	newTaken, newTarget := d.assumedTaken, d.assumedTarget
	switch {
	case m.cfg.Repredict == RepredictNone:
		// Initial predictions stand (CI-NR).
	case m.cfg.Repredict == RepredictOracle && d.gold >= 0:
		g := m.golden.at(d.gold)
		newTaken, newTarget = g.taken, g.nextPC
	case d.ctlDone:
		// Completed branches force the predictor (§A.3.2) — possibly
		// with a wrong (speculative) outcome.
		newTaken, newTarget = d.compTaken, d.compTarget
	default:
		switch {
		case d.isCond:
			newTaken = m.predictDir(d.pc, hist)
			if newTaken {
				newTarget = d.inst.BranchTarget(d.pc)
			} else {
				newTarget = d.pc + 4
			}
		default:
			// Indirect control keeps its initial target prediction until
			// it completes: re-predict sequences correct the *direction*
			// predictor's history-sensitive predictions (§A.3.2);
			// overturning indirect targets from the CTB mid-window churns
			// without the corrected-history benefit.
		}
	}

	flip := false
	if d.isCond {
		flip = newTaken != d.assumedTaken
		rd.hist = rd.hist.Push(newTaken)
	} else {
		flip = newTarget != d.assumedTarget
	}
	if flip {
		m.pendingRecs = append(m.pendingRecs, pendingRec{d: d, taken: newTaken, target: newTarget, repred: true})
		return true
	}
	return false
}

// finishWalk restores normal sequencing after redispatch: the tail rename
// map, fetch history, RAS and cursor all come from the walk.
func (m *machine) finishWalk() {
	rd := m.redisp
	m.debugf("finishWalk")
	m.redisp = nil
	m.tailRmap = rd.rmap
	if m.shadow != nil {
		m.shadow.setTailFrom(&rd.rmap)
	}
	m.fetchHist = rd.hist
	m.ras.Restore(rd.ras.Snapshot())
	m.goldCur = rd.gold

	tail := m.win.tailLive()
	if tail == nil {
		return
	}
	m.fetchPC = tail.assumedTarget
	m.fetchOn = tail.inst.Op != isa.HALT && m.p.InCode(m.fetchPC)
}
