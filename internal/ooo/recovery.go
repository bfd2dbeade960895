package ooo

import (
	"cisim/internal/bpred"
	"cisim/internal/cfg"
	"cisim/internal/isa"
)

// fetchCtx is the state one fetch sequence carries: the next PC, the
// speculative global history, the return address stack, and the golden
// index fetch believes it is at (-1 on a wrong path). Sequential fetch,
// each restart sequence and the redispatch walk own one apiece; a
// sequence hands its context back to sequential fetch by assignment. The
// RAS is a persistent stack, so copying a context copies its stack.
type fetchCtx struct {
	pc   uint64
	hist bpred.History
	ras  bpred.RAS
	gold int
}

// restartSeq is an in-progress restart sequence (§3.1 / Figure 4): the
// incorrect control dependent instructions have been squashed and the
// sequencer is fetching the correct control dependent path into the gap
// between the branch and the reconvergent point, with its own fetch
// context.
type restartSeq struct {
	fetchCtx
	branch *dyn
	// reconv is the first preserved control independent instruction. It
	// is nil while an associative search (§A.5.1) looks for it: incoming
	// PCs are matched against the window content after the gap
	// (instructions older than seqFloor), and the first hit becomes the
	// reconvergent point.
	reconv   *dyn
	seqFloor uint64
	rmap     regMap // scratch rename array, filled by rmapAt
	fillSeg  *segment
	lastIns  *dyn
	started  int64
	insert   int
}

// redispSeq is a pending or in-progress redispatch sequence: a walk over
// the control independent instructions that remaps register sources,
// re-predicts branches with corrected history, and selectively reissues
// anything whose mapping changed (§3.2.3, §A.3.2). Its fetch context
// carries the repaired history, RAS and golden cursor; the PC is set
// when the walk finishes.
type redispSeq struct {
	fetchCtx
	cur       *dyn
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
		case m.active.reconv == nil:
			// A search restart has no reconvergent point yet; only a
			// recovery logically before its branch can displace it.
			if !m.active.branch.retired && m.win.before(nb.d, m.active.branch) {
				m.abandonRestart(m.active)
				m.takePending(nb)
				m.beginRecovery(nb)
			}
		case m.win.before(nb.d, m.active.reconv):
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
	// recovery steps). Nothing stops the walk at an active restart's gap:
	// each cycle it advances Width live instructions (CI-I: the rest of
	// the window) from its cursor, so it can step past the active
	// restart's last insertion and remap the region behind the unfilled
	// gap without the gap's producers, and on reaching the window tail
	// finishWalk installs its rename map and fetch context while that
	// restart is still active. Only a recovery whose branch is older than
	// the cursor drops the walk (beginRecoveryInner).
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
		if m.win.before(pr.d, best.d) {
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
// restart sequence (§A.1.1, Figure 7). It runs only once the active
// restart has its reconvergent point.
func (m *machine) preempt(nb pendingRec) {
	m.stats.Preemptions++
	nr := m.findReconv(nb.d, nb.taken, nb.target)
	act := m.active
	// CASE 2 when the new reconvergent point falls inside or beyond the
	// active restart's region. If the active branch already retired, any
	// live dyn older than the reconv point is in the gap, so it is CASE 2
	// as well (a retired branch may have left the window order).
	caseTwo := nr != nil && (act.branch.retired || m.win.before(act.branch, nr))
	switch {
	case nr == nil || caseTwo:
		// CASE 1 and CASE 2: the new recovery removes the active
		// restart's region; abandon it entirely.
		m.abandonRestart(act)
		m.takePending(nb)
		m.beginRecovery(nb)
	default:
		// CASE 3: the new reconvergent point precedes the active restart.
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
	m.active = nil
	if next := m.win.nextLive(act.lastIns); next != nil {
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

	// Redirect the branch's assumed direction; every fetch context built
	// below resumes on it. If the branch has a current computed outcome
	// that disagrees with the new direction (a re-prediction applied
	// after the branch re-completed), queue the execution-driven recovery
	// immediately so the mismatch cannot stand silently.
	d.assumedTaken = pr.taken
	d.assumedTarget = pr.target
	m.dropGoldPrefix(d)
	if pr.repred && d.ctlDone && d.st == stDone && !d.stale {
		m.checkResolved(d)
	}

	nr := m.findReconv(d, pr.taken, pr.target)
	// Drop any redispatch state that the squash will invalidate; the
	// recovery's own redispatch re-covers everything younger.
	if m.redisp != nil && (m.redisp.cur == nil || m.win.before(d, m.redisp.cur)) {
		// A finished-but-unretired walk (cur == nil) is superseded too:
		// the recovery re-establishes fetch state itself.
		m.redisp = nil
	}
	m.dropFetchBuf()

	if nr == nil && m.cfg.Machine != Base && !m.cfg.Reconv.PostDom && m.cfg.Reconv.Assoc {
		if m.beginSearchRecovery(d) {
			return
		}
	}
	// Segment granularity: if the reconvergent point shares the branch's
	// segment, the whole rest of that segment must go too (§A.4).
	for nr != nil && nr.seg == d.seg {
		nr = m.win.nextLive(nr)
	}
	if nr == nil {
		// No reconvergent point, or everything after the branch falls in
		// its segment: a complete squash.
		m.fullSquash(d)
		return
	}
	m.reconverge(d, d, nr)
	m.startRestart(d, nr)
}

// beginSearchRecovery starts an associative-search restart (§A.5.1): a
// restart with no reconvergent point yet. Nothing past the branch's
// segment is squashed; the fill matches each incoming PC against the
// surviving window content after the branch. Returns false when there is
// nothing after the branch to search.
func (m *machine) beginSearchRecovery(d *dyn) bool {
	// Segment granularity (§A.4): the fill segment links after the
	// branch's segment, so any live same-segment successors must go
	// first — they cannot be preserved across a mid-segment insertion. A
	// segment's entries are contiguous in window order.
	for c := m.win.nextLive(d); c != nil && c.seg == d.seg; c = m.win.nextLive(c) {
		m.squashCD(c)
	}
	m.reissueLoadsAfterStoreSquash(d)
	if m.win.nextLive(d) == nil {
		return false
	}
	m.startRestart(d, nil)
	return true
}

// redirect returns the fetch context that resumes just after branch d on
// its assumed path: d's history with its direction pushed, the RAS from
// d's snapshot with a return's pop replayed (the snapshot was taken
// before a return's pop, after a call's push), and the golden cursor
// when the target is the architectural successor.
func (m *machine) redirect(d *dyn) fetchCtx {
	fc := fetchCtx{pc: d.assumedTarget, hist: d.histBefore, gold: -1}
	if d.isCond {
		fc.hist = fc.hist.Push(d.assumedTaken)
	}
	fc.ras.Restore(d.rasSnap)
	if isa.ClassOf(d.inst.Op) == isa.ClassReturn {
		fc.ras.Pop()
	}
	if d.gold >= 0 && d.assumedTarget == m.golden.at(d.gold).nextPC {
		fc.gold = d.gold + 1
	}
	return fc
}

// startRestart makes a restart sequence after branch d active: it
// fetches d's corrected path into the gap before reconv (nil for an
// associative search), renaming from the map just after d.
func (m *machine) startRestart(d, reconv *dyn) {
	m.active = &restartSeq{
		fetchCtx: m.redirect(d),
		branch:   d,
		reconv:   reconv,
		seqFloor: m.seq + 1,
		lastIns:  d,
		started:  m.cycle,
	}
	m.rmapAt(&m.active.rmap, d)
	m.rebuildTailRmap()
}

// reconverge commits a restart after branch to reconvergent point
// reconv: the incorrect control dependent instructions between after and
// reconv are squashed, loads past the branch that may have read a
// squashed store reissue (§3.2.3), and the preserved control independent
// instructions are marked for Tables 2 and 3.
func (m *machine) reconverge(branch, after, reconv *dyn) {
	removed := uint64(0)
	m.win.forEachAfter(after, func(c *dyn) bool {
		if c == reconv {
			return false
		}
		m.squashCD(c)
		removed++
		return true
	})
	m.reissueLoadsAfterStoreSquash(branch)
	m.stats.Reconverged++
	m.stats.RemovedCD += removed

	ci := uint64(0)
	for c := reconv; c != nil; c = m.win.nextLive(c) {
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

	m.fetch = m.redirect(d)
	m.fetchOn = true
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
	if m.trc != nil {
		m.traceEnd(c, true)
	}
}

// squashCD squashes one incorrect control dependent instruction in a
// selective squash. A squashed store with a known address joins
// storeScratch, so reissueLoadsAfterStoreSquash can find its readers.
func (m *machine) squashCD(c *dyn) {
	if c.isStore && c.eaValid {
		m.storeScratch = append(m.storeScratch, c)
	}
	m.countWrongPath(c)
	m.squashDyn(c)
}

// dropFetchBuf discards fetched-but-undispatched instructions (they are
// logically younger than any recovery point).
func (m *machine) dropFetchBuf() {
	for _, c := range m.fetchBuf {
		m.countWrongPath(c)
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
// control dependent path into the gap, up to Width per cycle. An
// associative search first matches each fetch PC against the old window
// content after the gap; a match becomes the reconvergent point, the
// skipped incorrect control dependent instructions are squashed, and the
// restart finishes like a plain one.
func (m *machine) continueRestart() {
	act := m.active
	if act.reconv != nil && (act.reconv.squashed || act.reconv.retired) {
		// The preserved region was lost (for example to a suspended
		// restart's cleanup); give up control independence for this
		// recovery and continue as sequential fetch.
		m.convertRestartToPlain(false)
		return
	}
	for n := 0; n < m.cfg.Width; n++ {
		if act.reconv == nil {
			var match *dyn
			m.win.forEachAfter(act.lastIns, func(c *dyn) bool {
				if c.seq < act.seqFloor && c.pc == act.pc {
					match = c
					return false
				}
				return true
			})
			if match != nil {
				m.reconverge(act.branch, act.lastIns, match)
				act.reconv = match
			}
		}
		if act.reconv != nil && act.pc == act.reconv.pc {
			m.finishRestart()
			return
		}
		in, ok := m.p.InstAt(act.pc)
		if !ok {
			// The correct path fetches garbage before reconverging (a
			// wrong heuristic choice); squash the preserved region and
			// fall back to sequential fetch.
			m.convertRestartToPlain(false)
			return
		}
		// Make room, squashing control independent instructions youngest
		// first (§3.2.2); give up CI if the instruction to keep — the
		// reconvergent point, or while searching the last insertion —
		// must go. §A.5.1's noted drawback of the search is precisely
		// that buffers are reclaimed from the tail, possibly squashing
		// control independent instructions unnecessarily.
		keep := act.reconv
		if keep == nil {
			keep = act.lastIns
		}
		for m.win.segsAvailable() == 0 && (act.fillSeg == nil || act.fillSeg.full()) {
			tail := m.win.tailLive()
			if tail == nil || tail == keep || m.win.before(tail, keep) {
				m.convertRestartToPlain(false)
				return
			}
			m.stats.EvictedCI++
			m.countWrongPath(tail)
			m.squashDyn(tail)
		}
		m.fillGap(act, m.newDyn(&act.fetchCtx, in))
		if in.Op == isa.HALT {
			// The correct path exits before reconverging: anything
			// preserved beyond this point is architecturally
			// unreachable. Keep the halt, squash the rest.
			m.convertRestartToPlain(true)
			return
		}
	}
}

// fillGap inserts a restart-fetched instruction after the restart's last
// insertion and renames it from the restart's map. The caller's
// make-room loop leaves a free segment or a fill segment with space,
// exactly what insertAfter needs, so a nil segment is an engine bug.
func (m *machine) fillGap(act *restartSeq, d *dyn) {
	seg := m.win.insertAfter(act.lastIns, act.fillSeg, d)
	if seg == nil {
		panic("ooo: restart fill has no room after the make-room loop")
	}
	m.dropGoldPrefix(d)
	act.fillSeg = seg
	act.lastIns = d
	act.insert++
	m.renameWith(d, &act.rmap)
	act.pc = d.assumedTarget
}

// reissueLoadsAfterStoreSquash reissues every live load after from whose
// address range overlaps a store collected in storeScratch, and empties
// it: the load's value may have come from that store (loads merge bytes
// from several stores, so tracking one forwarding source is not enough —
// overlap is the safe test).
func (m *machine) reissueLoadsAfterStoreSquash(from *dyn) {
	squashed := m.storeScratch
	m.storeScratch = squashed[:0]
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
	d.renameC = m.cycle
	if m.trc != nil {
		m.trc.TraceRename(d.seq, m.cycle)
	}
}

// finishRestart completes the restart sequence and schedules redispatch.
func (m *machine) finishRestart() {
	act := m.active
	m.active = nil
	m.win.sealAndSweep(act.fillSeg)
	m.stats.InsertedCD += uint64(act.insert)
	m.observeRestartPenalty(act)

	nd := &redispSeq{fetchCtx: act.fetchCtx, cur: act.reconv}
	if m.redisp == nil || m.win.before(nd.cur, m.redisp.cur) {
		m.redisp = nd
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
			// If the partial gap fill survives, its tail dangles into a
			// hole of never-fetched instructions; squash the remnant and
			// restore the suspension's own fetch context so sequential
			// fetch can refill it. (A pending redispatch walk, if any,
			// re-derives this state when it finishes.)
			if !s.lastIns.squashed && !s.lastIns.retired {
				if next := m.win.nextLive(s.lastIns); next != nil {
					m.squashFrom(next)
				}
				m.fetch = s.fetchCtx
				m.fetchOn = m.p.InCode(s.pc)
			}
			continue
		}
		keep = append(keep, s)
	}
	// A cleanup above squashes the whole region of every younger
	// suspension the loop already kept; drop those too, so none is
	// resumed with its reconvergent point gone.
	m.suspended = keep[:0]
	for _, s := range keep {
		if !s.reconv.squashed {
			m.suspended = append(m.suspended, s)
		}
	}
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
	m.active = s
}

// convertRestartToPlain abandons control independence for the active
// restart: everything past the filled portion of the gap (the preserved
// region, or a search's old window content) is squashed, and sequential
// fetch continues from the restart's context.
func (m *machine) convertRestartToPlain(halted bool) {
	act := m.active
	m.abandonRestart(act)
	m.stats.InsertedCD += uint64(act.insert)
	m.observeRestartPenalty(act)
	// Degrades to a full squash for statistics purposes; a search that
	// never matched was never counted as reconverged.
	if act.reconv != nil {
		m.stats.Reconverged--
	}
	m.stats.FullSquashes++

	m.filterSuspended()
	// A pending redispatch walk over an older region survives: it will
	// finish and restore sequential fetch itself.
	m.fetch = act.fetchCtx
	m.fetchOn = !halted && m.p.InCode(act.pc)
	m.rebuildTailRmap()
}

// continueWalk advances the redispatch sequence: remap sources,
// re-predict branches, reissue changed instructions (§3.2.3, §A.3.2).
// CI-I walks the entire window in one cycle.
func (m *machine) continueWalk() {
	rd := m.redisp
	if !rd.rmapValid {
		if prev := m.win.prevLive(rd.cur); prev == nil {
			rd.rmap = regMap{}
		} else {
			m.rmapAt(&rd.rmap, prev)
		}
		rd.rmapValid = true
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
			rd.cur = m.win.nextLive(d)
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
		rd.cur = m.win.nextLive(d)
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
// map and the fetch context come from the walk, with the PC after the
// window's tail. An empty window leaves the PC and fetchOn as they were.
func (m *machine) finishWalk() {
	rd := m.redisp
	m.redisp = nil
	m.tailRmap = rd.rmap
	if m.shadow != nil {
		m.shadow.setTailFrom(&rd.rmap)
	}
	rd.pc = m.fetch.pc
	if tail := m.win.tailLive(); tail != nil {
		rd.pc = tail.assumedTarget
		m.fetchOn = tail.inst.Op != isa.HALT && m.p.InCode(rd.pc)
	}
	m.fetch = rd.fetchCtx
}
