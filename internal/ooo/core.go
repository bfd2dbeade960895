package ooo

import (
	"errors"
	"fmt"

	"cisim/internal/bpred"
	"cisim/internal/cache"
	"cisim/internal/cfg"
	"cisim/internal/emu"
	"cisim/internal/isa"
	"cisim/internal/mem"
	"cisim/internal/metrics"
	"cisim/internal/prog"
)

// MispEvent records one serviced recovery, for the §A.2.2 true/false
// misprediction analysis (Figure 10).
type MispEvent struct {
	PC    uint64
	Hist  bpred.History
	False bool // recovery caused by speculative operands
}

// Result is a completed simulation.
type Result struct {
	Stats      Stats
	MispEvents []MispEvent  // populated when Config.RecordMisps is set
	Pipeline   []PipeRecord // populated when Config.RecordPipeline is set
	// Metrics is the deterministic counter/histogram snapshot, populated
	// when Config.CollectMetrics is set. It is part of the Result proper
	// — a pure function of program and configuration — so cached results
	// carry it.
	Metrics *metrics.Snapshot
}

type machine struct {
	cfg    Config
	p      *prog.Program
	graph  *cfg.Graph
	golden *goldStream

	// Predictors and front-end state.
	gsh     *bpred.GShare
	bim     *bpred.Bimodal
	ctb     *bpred.TargetBuffer
	conf    *bpred.Confidence
	fetch   fetchCtx // sequential fetch's context (recovery.go)
	fetchOn bool     // false once HALT (or garbage) is fetched, until recovery

	fetchBuf []*dyn // fetched this cycle, dispatched next; reused in place

	win      *window
	tailRmap regMap

	// Instruction-cache state (Config.ICache). fetchStallUntil blocks
	// sequential fetch while a line fill is outstanding.
	icache          *cache.Cache
	fetchStallUntil int64

	events eventWheel

	// Committed architectural state. regCommitC records the cycle each
	// register was last committed, for redispatch staleness detection.
	regs       [isa.NumRegs]uint64
	regCommitC [isa.NumRegs]int64
	mem        *mem.Memory
	dcache     *cache.Cache
	retireCur  int
	retireHist bpred.History

	// Recovery machinery (recovery.go).
	pendingRecs []pendingRec
	active      *restartSeq
	suspended   []*restartSeq
	redisp      *redispSeq

	// Reconvergence-heuristic candidate tables (§A.5.2): program counters
	// recorded by the decoder as likely reconvergent points.
	retTargets  pcSet
	loopTargets pcSet

	// storeScratch is the reusable squash worklist: stores squashed by one
	// recovery, collected so dependent loads can reissue. Recoveries never
	// nest within a cycle, so one buffer serves them all.
	storeScratch []*dyn

	// shadow carries the map-based reference implementations when
	// Config.refCheck is set (refcheck.go); nil in normal runs.
	shadow *refShadow

	mispEvents []MispEvent
	pipeRecs   []PipeRecord

	// Observability hooks (tracer.go). trc mirrors cfg.Tracer; mx is
	// non-nil when cfg.CollectMetrics is set. Both are checked with one
	// nil test per pipeline stage.
	trc Tracer
	mx  *machineMetrics

	// arena batch-allocates dyns: the simulator creates one per fetched
	// instruction (wrong paths included), and individual heap
	// allocations dominated the garbage collector's workload. Slots are
	// never reused within a run; allocDyn zeroes each one as it hands it
	// out, so a recycled chunk from rm needs no clear. rm owns every slab
	// of the run and returns to the pool via release.
	arena []dyn
	rm    *runMem

	// Consumer lists (incremental.go): cons is the node slab, with index
	// 0 standing for the empty list, and consFree heads its free list.
	cons     []consNode
	consFree int32

	// goldSync's verified prefix: gsLast is the youngest entry the sync
	// matched to the golden stream (nil when none is kept) and gsNext the
	// golden index after it.
	gsLast *dyn
	gsNext int

	seq       uint64
	cycle     int64
	maxCycles int64
	stats     Stats
	done      bool
}

func (m *machine) allocDyn() *dyn {
	if len(m.arena) == 0 {
		m.arena = m.rm.dynChunk()
	}
	d := &m.arena[0]
	m.arena = m.arena[1:]
	*d = dyn{}
	return d
}

// ErrDeadlock reports a hung simulation (an engine bug, surfaced rather
// than spun on).
var ErrDeadlock = errors.New("ooo: cycle limit exceeded")

// Prep holds the per-program artifacts Run derives before simulating: the
// golden stream at an instruction budget, and the CFG with its
// post-dominator analysis. Both are deterministic functions of the
// program and are never written during simulation, so one Prep may be
// shared by any number of Runs — including concurrent ones — that use
// the same program and MaxInstrs.
type Prep struct {
	maxInstrs uint64
	golden    *goldStream
	graph     *cfg.Graph
}

// Prepare computes the shared pre-simulation artifacts for a program at
// an instruction budget (0 = unbounded, as in Config.MaxInstrs).
func Prepare(p *prog.Program, maxInstrs uint64) (*Prep, error) {
	g, err := goldenStream(p, maxInstrs)
	if err != nil {
		return nil, err
	}
	return &Prep{maxInstrs: maxInstrs, golden: g, graph: cfg.Build(p)}, nil
}

// Run simulates the program to completion under the configuration.
func Run(p *prog.Program, c Config) (*Result, error) {
	return RunPrepared(p, c, nil)
}

// RunPrepared is Run with the pre-simulation artifacts supplied by the
// caller. A nil prep is computed on the spot; a non-nil prep must come
// from Prepare with the same program and the configuration's MaxInstrs.
func RunPrepared(p *prog.Program, c Config, pre *Prep) (*Result, error) {
	c.defaults()
	if pre == nil {
		var err error
		if pre, err = Prepare(p, c.MaxInstrs); err != nil {
			return nil, err
		}
	} else if pre.maxInstrs != c.MaxInstrs {
		return nil, fmt.Errorf("ooo: prep built for MaxInstrs=%d, config wants %d", pre.maxInstrs, c.MaxInstrs)
	}
	m := newMachine(p, c, pre)
	r, err := m.run()
	m.release()
	return r, err
}

// newMachine builds a machine for an already-defaulted configuration.
func newMachine(p *prog.Program, c Config, pre *Prep) *machine {
	rm := getRunMem()
	m := &machine{
		cfg:         c,
		p:           p,
		graph:       pre.graph,
		golden:      pre.golden,
		rm:          rm,
		gsh:         bpred.NewGShare(c.GShareBits),
		bim:         bpred.NewBimodal(c.GShareBits),
		ctb:         bpred.NewTargetBuffer(c.TargetBits),
		conf:        bpred.NewConfidence(c.GShareBits, 15, 8),
		fetch:       fetchCtx{pc: p.Entry},
		fetchOn:     true,
		win:         newWindow(c.WindowSize, c.SegmentSize, rm),
		cons:        append(rm.cons[:0], consNode{}),
		fetchBuf:    make([]*dyn, 0, c.Width),
		mem:         mem.New(),
		dcache:      cache.New(c.Cache),
		retTargets:  newPCSet(p),
		loopTargets: newPCSet(p),
	}
	// The wheel horizon covers the longest schedulable completion: opcode
	// latency plus the worst data-cache access a load can add.
	maxCacheLat := c.Cache.HitLat
	if c.Cache.MissLat > maxCacheLat {
		maxCacheLat = c.Cache.MissLat
	}
	m.events.init(maxOpLatency + maxCacheLat)
	if c.ICache != (cache.Config{}) {
		m.icache = cache.New(c.ICache)
	}
	if c.refCheck {
		m.shadow = newRefShadow()
	}
	m.trc = c.Tracer
	if c.CollectMetrics {
		m.mx = newMachineMetrics()
	}
	for _, seg := range p.Data {
		m.mem.WriteBytes(seg.Addr, seg.Bytes)
	}
	m.regs[isa.RSP] = prog.StackTop

	m.maxCycles = c.MaxCycles
	if m.maxCycles == 0 {
		m.maxCycles = int64(pre.golden.n)*12 + 100_000
	}
	return m
}

func (m *machine) run() (*Result, error) {
	for !m.done {
		if err := m.step(); err != nil {
			return nil, err
		}
	}
	m.stats.Cycles = m.cycle
	m.stats.CacheAccesses = m.dcache.Accesses
	m.stats.CacheMisses = m.dcache.Misses
	if m.icache != nil {
		m.stats.ICacheAccesses = m.icache.Accesses
		m.stats.ICacheMisses = m.icache.Misses
	}
	r := &Result{Stats: m.stats, MispEvents: m.mispEvents, Pipeline: m.pipeRecs}
	if m.mx != nil {
		r.Metrics = m.mx.finalize(m)
	}
	return r, nil
}

// step advances the machine one cycle. It is the unit the steady-state
// allocation test measures (differential_test.go).
func (m *machine) step() error {
	m.cycle++
	if m.cycle > m.maxCycles {
		return fmt.Errorf("%w at cycle %d, retired %d/%d: %s",
			ErrDeadlock, m.cycle, m.retireCur, m.golden.n, m.stuckReport())
	}
	m.retireStage()
	if m.done {
		return nil
	}
	// Rebuild the live-order cache once, at a point where no walk is in
	// progress: retirement and last cycle's fetch dirtied it, and every
	// stage below iterates it.
	m.win.refresh()
	m.goldSync()
	if m.cfg.Check {
		if err := m.checkGoldSync(); err != nil {
			return err
		}
	}
	m.completeStage()
	m.recoveryStage()
	m.issueStage()
	m.dispatchStage()
	m.fetchStage()
	m.stats.OccupancySum += uint64(m.win.count)
	if m.mx != nil {
		m.mx.occupancy.Observe(int64(m.win.count))
	}
	if m.shadow != nil {
		m.shadow.verifyCycle(m)
	}
	if m.cfg.Check {
		if err := m.win.check(); err != nil {
			return err
		}
		if err := m.checkRenames(); err != nil {
			return err
		}
		if err := m.checkContinuity(); err != nil {
			return err
		}
		if err := m.checkConsumers(); err != nil {
			return err
		}
	}
	return nil
}

// --- fetch stage ---

// fetchStage fills the fetch buffer along the predicted path. It is idle
// while the sequencer services a restart or redispatch sequence (§4.2:
// those tie up the sequencer).
func (m *machine) fetchStage() {
	if m.active != nil || m.redisp != nil {
		return
	}
	if len(m.fetchBuf) > 0 {
		return // previous group not yet dispatched (window was full)
	}
	if m.cycle < m.fetchStallUntil {
		return // outstanding instruction-cache fill
	}
	taken := 0
	for i := 0; i < m.cfg.Width; i++ {
		if !m.fetchOn {
			return
		}
		in, ok := m.p.InstAt(m.fetch.pc)
		if !ok {
			// Garbage target on a wrong path: fetch stalls until a
			// recovery redirects it.
			m.fetchOn = false
			return
		}
		if m.icache != nil {
			lat := m.icache.Access(m.fetch.pc)
			if lat > m.cfg.ICache.HitLat {
				// Line fill: this instruction arrives after the miss
				// latency; the group ends here.
				m.fetchStallUntil = m.cycle + int64(lat-m.cfg.ICache.HitLat)
				return
			}
		}
		d := m.newDyn(&m.fetch, in)
		m.fetchBuf = append(m.fetchBuf, d)
		m.fetch.pc = d.assumedTarget
		if in.Op == isa.HALT {
			m.fetchOn = false
		}
		if m.cfg.FetchTakenLimit > 0 && d.assumedTarget != d.pc+4 {
			if taken++; taken >= m.cfg.FetchTakenLimit {
				return
			}
		}
	}
}

// newDyn creates the dyn for instruction in, fetched at fc's PC, and
// predicts it along fc. The caller advances fc's PC once it keeps the
// instruction.
func (m *machine) newDyn(fc *fetchCtx, in isa.Inst) *dyn {
	m.seq++
	d := m.allocDyn()
	d.seq, d.pc, d.inst, d.gold = m.seq, fc.pc, in, -1
	d.fetchC, d.doneC = m.cycle, -1
	if fc.gold >= 0 && fc.gold < m.golden.n && m.golden.at(fc.gold).pc == fc.pc {
		d.gold = fc.gold
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
	if m.trc != nil {
		m.trc.TraceFetch(d.seq, d.pc, in, m.cycle)
	}
	m.predict(fc, d)
	return d
}

// predict sets the dyn's assumed next PC, consulting the predictors for
// control instructions, and advances fc's history, RAS and golden cursor
// along the prediction.
func (m *machine) predict(fc *fetchCtx, d *dyn) {
	in := d.inst
	d.histBefore = fc.hist
	next := d.pc + 4
	switch isa.ClassOf(in.Op) {
	case isa.ClassCondBr:
		d.isCtl, d.isCond = true, true
		hist := fc.hist
		if m.cfg.OracleGlobalHistory && d.gold >= 0 {
			hist = m.golden.at(d.gold).hist
		}
		d.predTaken = m.predictDir(d.pc, hist)
		d.assumedTaken = d.predTaken
		if d.predTaken {
			next = in.BranchTarget(d.pc)
		}
		fc.hist = fc.hist.Push(d.predTaken)
		d.rasSnap = fc.ras.Snapshot()
		if m.cfg.Reconv.Loop && cfg.IsBackwardBranch(in) {
			// The loop heuristic records the predicted target of a
			// backward branch as a candidate reconvergent point (§A.5.2).
			m.addLoopTarget(next)
		}
	case isa.ClassJump:
		next = in.Target
	case isa.ClassCall:
		fc.ras.Push(d.pc + 4)
		next = in.Target
	case isa.ClassIndJump, isa.ClassIndCall:
		d.isCtl = true
		if t, ok := m.ctb.Predict(d.pc, fc.hist); ok {
			next = t
		}
		if isa.ClassOf(in.Op) == isa.ClassIndCall {
			fc.ras.Push(d.pc + 4)
		}
		d.rasSnap = fc.ras.Snapshot()
	case isa.ClassReturn:
		d.isCtl = true
		d.rasSnap = fc.ras.Snapshot()
		if t, ok := fc.ras.Pop(); ok {
			next = t
		}
		if m.cfg.Reconv.Return {
			m.addRetTarget(next)
		}
	}
	d.assumedTarget = next
	// Advance the golden cursor along the predicted path: it stays valid
	// only while the prediction matches the architectural path.
	if d.gold >= 0 && fc.gold == d.gold {
		if next == m.golden.at(d.gold).nextPC {
			fc.gold = d.gold + 1
		} else {
			fc.gold = -1
		}
	}
}

// addRetTarget and addLoopTarget record reconvergence candidates
// (§A.5.2); isRetTarget and isLoopTarget are the membership queries
// findReconv uses. The sets are bitsets over the code image (dense.go);
// refCheck runs shadow the original maps and compare every query.

func (m *machine) addRetTarget(pc uint64) {
	m.retTargets.add(pc)
	if m.shadow != nil {
		m.shadow.retTargets[pc] = true
	}
}

func (m *machine) addLoopTarget(pc uint64) {
	m.loopTargets.add(pc)
	if m.shadow != nil {
		m.shadow.loopTargets[pc] = true
	}
}

func (m *machine) isRetTarget(pc uint64) bool {
	v := m.retTargets.has(pc)
	if m.shadow != nil {
		m.shadow.checkMember("retTargets", m.shadow.retTargets, pc, v)
	}
	return v
}

func (m *machine) isLoopTarget(pc uint64) bool {
	v := m.loopTargets.has(pc)
	if m.shadow != nil {
		m.shadow.checkMember("loopTargets", m.shadow.loopTargets, pc, v)
	}
	return v
}

// --- dispatch stage ---

func (m *machine) dispatchStage() {
	if len(m.fetchBuf) == 0 {
		return
	}
	n := 0
	for _, d := range m.fetchBuf {
		if !m.win.appendTail(d) {
			break // window full: stall
		}
		m.renameAtTail(d)
		n++
	}
	// Keep remaining instructions for next cycle; compact in place so the
	// buffer's storage is reused.
	k := copy(m.fetchBuf, m.fetchBuf[n:])
	m.fetchBuf = m.fetchBuf[:k]
}

func (m *machine) renameAtTail(d *dyn) {
	for i := 0; i < d.nsrc; i++ {
		if d.srcReg[i] == isa.RZero {
			d.src[i] = nil
			continue
		}
		d.src[i] = m.tailRmap[d.srcReg[i]]
		m.addConsumer(d.src[i], d)
	}
	if d.hasRd {
		m.tailRmap[d.dest] = d
		if m.shadow != nil {
			m.shadow.tailRmap[d.dest] = d
		}
	}
	if m.trc != nil {
		m.trc.TraceRename(d.seq, m.cycle)
	}
}

// rebuildTailRmap reconstructs the tail rename map by walking the window
// backward, used after squashes that invalidate the incremental map.
func (m *machine) rebuildTailRmap() {
	m.rmapAt(&m.tailRmap, m.win.tailLive())
	if m.shadow != nil {
		m.shadow.rebuildTailRmap(m)
	}
}

// rmapAt computes the rename map as seen just after dyn at (inclusive)
// into the caller's scratch array, which it clears first. Callers embed
// the scratch in their sequence state (restartSeq/redispSeq), so recovery
// walks no longer allocate.
func (m *machine) rmapAt(rm *regMap, at *dyn) {
	*rm = regMap{}
	found := 0
	for d := at; d != nil && found < isa.NumRegs; d = m.win.prevLive(d, false) {
		if d.hasRd && rm[d.dest] == nil {
			rm[d.dest] = d
			found++
		}
	}
}

// --- issue stage ---

//cisim:hot
func (m *machine) issueStage() {
	issued := 0
	cache, flags := m.stageLive()
	m.win.walking++
	// SoA fast path: a live, still-waiting instruction has flag byte
	// state stWaiting and no dead bit, so one masked compare on the
	// dense flag array rejects everything already executing, done, or
	// squashed without touching the instruction itself.
	for i, f := range flags {
		if f&(fDead|fStMask) != uint8(stWaiting)<<fStShift {
			continue
		}
		if issued >= m.cfg.Width {
			break
		}
		d := cache[i]
		if m.cycle < d.fetchC+2 || !d.ready() {
			continue
		}
		if f&fIsLoad != 0 && m.cfg.ConservativeLoads && m.olderStorePending(d) {
			continue
		}
		m.issue(d)
		issued++
	}
	m.win.walking--
}

// olderStorePending reports whether any older live store has not yet
// completed, for the ConservativeLoads issue gate.
func (m *machine) olderStorePending(d *dyn) bool {
	for p := m.win.prevLive(d, false); p != nil; p = m.win.prevLive(p, false) {
		if p.isStore && (p.st != stDone || p.stale) {
			return true
		}
	}
	return false
}

func (m *machine) issue(d *dyn) {
	d.st = stExecuting
	d.lastIssueC = m.cycle
	d.stale = false
	d.issues++
	if m.trc != nil {
		m.trc.TraceIssue(d.seq, m.cycle)
	}
	if d.saved != savedNo && d.issues > 1 {
		d.reissuedAfter = true
	}
	// Read source values now.
	var sv [2]uint64
	for i := 0; i < d.nsrc; i++ {
		sv[i] = m.readSrc(d, i)
	}
	lat := isa.Latency(d.inst.Op)
	if d.isLoad || d.isStore {
		d.ea = emu.EffAddr(d.inst, sv[0])
		d.eaValid = true
	}
	m.win.noteFlags(d)
	if d.isLoad {
		lat += m.dcache.Access(d.ea)
	}
	at := m.cycle + int64(lat)
	m.events.schedule(d, m.cycle, at)
	if m.shadow != nil {
		m.shadow.addEvent(at, d)
	}
}

// predictDir consults the configured direction predictor.
func (m *machine) predictDir(pc uint64, h bpred.History) bool {
	if m.cfg.BimodalPredictor {
		return m.bim.Predict(pc)
	}
	return m.gsh.Predict(pc, h)
}

// readSrc returns the current value of source i.
func (m *machine) readSrc(d *dyn, i int) uint64 {
	if d.srcReg[i] == isa.RZero {
		return 0
	}
	if p := d.src[i]; p != nil {
		return p.val
	}
	return m.regs[d.srcReg[i]]
}

// --- complete stage ---

func (m *machine) completeStage() {
	evs := m.events.drain(m.cycle)
	if m.shadow != nil {
		m.shadow.drainEvents(m.cycle, evs)
	}
	if len(evs) == 0 {
		return
	}
	for _, d := range evs {
		if d.squashed || d.st != stExecuting {
			continue
		}
		if d.stale {
			// An input changed while executing: discard and reissue.
			d.st = stWaiting
			d.stale = false
			m.win.noteFlags(d)
			continue
		}
		m.complete(d)
	}
	// Safe to recycle after the loop: completion never schedules new
	// events (reissues go back to stWaiting and re-enter via issue).
	m.events.recycle(m.cycle, evs)
}

func (m *machine) complete(d *dyn) {
	var sv [2]uint64
	for i := 0; i < d.nsrc; i++ {
		sv[i] = m.readSrc(d, i)
	}
	old, had := d.val, d.hasVal
	switch isa.ClassOf(d.inst.Op) {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		d.val = emu.EvalALU(d.inst, sv[0], sv[1])
	case isa.ClassLoad:
		d.val = m.loadValue(d)
	case isa.ClassStore:
		d.val = sv[1] // store data
	case isa.ClassCondBr:
		d.compTaken = emu.EvalBranch(d.inst, sv[0], sv[1])
		if d.compTaken {
			d.compTarget = d.inst.BranchTarget(d.pc)
		} else {
			d.compTarget = d.pc + 4
		}
	case isa.ClassCall:
		d.val = d.pc + 4
	case isa.ClassIndCall:
		d.val = d.pc + 4
		d.compTarget = sv[0]
	case isa.ClassIndJump:
		d.compTarget = sv[0]
	case isa.ClassReturn:
		d.compTarget = sv[0] // reads the link register
	}
	d.st = stDone
	d.hasVal = true
	d.doneC = m.cycle
	m.win.noteFlags(d)
	if m.trc != nil {
		m.trc.TraceComplete(d.seq, m.cycle)
	}

	if d.hasRd && (!had || old != d.val) {
		m.wakeConsumers(d)
	}
	if d.isStore {
		m.storeCompleted(d)
	}
	if d.isCtl && d.ctlDone {
		// A branch that re-executes after completing control may
		// overturn its previous outcome (§A.2 false mispredictions).
		// The HFM oracle holds architecturally wrong outcomes here too.
		if !(m.cfg.HideFalseMispredictions && d.gold >= 0 && m.falseOutcome(d)) {
			m.checkResolved(d)
		}
	}
}

// loadValue reads a load's value byte by byte: each byte comes from the
// youngest older completed store covering it, or from committed memory.
// fwdFrom records the youngest contributing store, used to re-read when
// that store's value changes.
//
//cisim:hot
func (m *machine) loadValue(d *dyn) uint64 {
	d.fwdFrom = nil
	n := uint(d.esize)
	var have uint // bitmask of resolved bytes
	full := uint(1)<<n - 1
	var val uint64
	w := m.win
	fast := false
	if !w.dirty {
		// One backward scan over the order cache instead of a prevLive
		// chain that re-finds its position on every step. A forwarding
		// candidate — live, a store, address known, value computed — is a
		// single masked compare on the SoA flag byte, so the scan derefs
		// only actual candidates.
		const candidate = fIsStore | fEAValid | uint8(stDone)<<fStShift
		if i := w.cacheIndex(w.liveCache, d); i >= 0 {
			fast = true
			for j := i - 1; j >= w.lo && have != full; j-- {
				if w.liveFlags[j]&(fDead|fIsStore|fEAValid|fStMask) != candidate {
					continue
				}
				mergeStoreBytes(d, w.liveCache[j], n, &have, &val)
			}
		}
	}
	if !fast {
		for s := w.prevLive(d, false); s != nil && have != full; s = w.prevLive(s, false) {
			if !s.isStore || !s.eaValid || s.st != stDone {
				continue
			}
			mergeStoreBytes(d, s, n, &have, &val)
		}
	}
	for i := uint(0); i < n; i++ {
		if have&(1<<i) == 0 {
			val |= uint64(m.mem.Read8(d.ea+uint64(i))) << (8 * i)
		}
	}
	return val
}

// mergeStoreBytes folds the bytes of store s that cover load d's still-
// unresolved bytes into val, recording the youngest contributing store.
func mergeStoreBytes(d, s *dyn, n uint, have *uint, val *uint64) {
	for i := uint(0); i < n; i++ {
		if *have&(1<<i) != 0 {
			continue
		}
		a := d.ea + uint64(i)
		if a >= s.ea && a < s.ea+uint64(s.esize) {
			*val |= uint64(byte(s.val>>(8*(a-s.ea)))) << (8 * i)
			*have |= 1 << i
			if d.fwdFrom == nil {
				d.fwdFrom = s
			}
		}
	}
}

func overlaps(a uint64, an uint8, b uint64, bn uint8) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func covers(a uint64, an uint8, b uint64, bn uint8) bool {
	return a <= b && b+uint64(bn) <= a+uint64(an)
}

// wakeConsumers reissues instructions whose source is d (selective
// reissue, §3.2.4: issue buffers reissue autonomously on a new value).
// It walks d's consumer list rather than the window after d: every live
// instruction whose source names d is on the list, and the source test
// filters out consumers that were squashed, retired or renamed away. A
// consumer listed twice is harmless — the second call finds it already
// waiting, or marks it stale again.
//
//cisim:hot
func (m *machine) wakeConsumers(d *dyn) {
	for n := d.cons; n != 0; n = m.cons[n].next {
		c := m.cons[n].c
		if !c.squashed && !c.retired && (c.src[0] == d || c.src[1] == d) {
			m.forceReissue(c)
		}
	}
}

// forceReissue sends a dyn back for (re)issue.
func (m *machine) forceReissue(c *dyn) {
	switch c.st {
	case stDone:
		c.st = stWaiting
		m.win.noteFlags(c)
	case stExecuting:
		c.stale = true
	}
}

// storeCompleted runs memory-order violation detection: younger loads that
// issued with a conflicting value reissue with a one-cycle penalty (§4.1).
//
//cisim:hot
func (m *machine) storeCompleted(s *dyn) {
	if cache, flags, ok := m.win.liveAfter(s); ok {
		m.win.walking++
		// SoA fast path: the scan only cares about live memory operations
		// with a resolved address, so the dense flag bytes reject ALU and
		// control instructions — the bulk of the window — without a deref.
		const doneStore = fIsStore | fEAValid | uint8(stDone)<<fStShift
		for i, f := range flags {
			if f&fDead != 0 || f&(fIsLoad|fIsStore) == 0 || f&fEAValid == 0 {
				continue
			}
			c := cache[i]
			if f&(fDead|fIsStore|fEAValid|fStMask) == doneStore && covers(c.ea, c.esize, s.ea, s.esize) {
				break
			}
			if f&fIsLoad == 0 || f&fStMask == uint8(stWaiting)<<fStShift {
				continue
			}
			if c.fwdFrom == s {
				if f&fStMask == uint8(stDone)<<fStShift {
					nv := m.loadValue(c)
					if nv != c.val || c.fwdFrom != s {
						m.reissueLoad(c)
					}
				} else {
					c.stale = true
				}
				continue
			}
			if overlaps(s.ea, s.esize, c.ea, c.esize) {
				m.reissueLoad(c)
			}
		}
		m.win.walking--
		return
	}
	m.win.forEachAfter(s, func(c *dyn) bool {
		if c.isStore && c.eaValid && c.st == stDone && covers(c.ea, c.esize, s.ea, s.esize) {
			// A younger store completely shadows this one; loads beyond
			// it cannot depend on s.
			return false
		}
		if !c.isLoad || c.st == stWaiting || !c.eaValid {
			return true
		}
		if c.fwdFrom == s {
			// Re-read: the store's value or address may have changed.
			if c.st == stDone {
				nv := m.loadValue(c)
				if nv != c.val || c.fwdFrom != s {
					m.reissueLoad(c)
				}
			} else {
				c.stale = true
			}
			return true
		}
		if overlaps(s.ea, s.esize, c.ea, c.esize) {
			// The load issued before this older store resolved: a
			// memory-order violation.
			m.reissueLoad(c)
		}
		return true
	})
}

func (m *machine) reissueLoad(c *dyn) {
	if c.st == stDone {
		c.st = stWaiting
		m.win.noteFlags(c)
	} else {
		c.stale = true
	}
	m.stats.MemViolations++
}

// --- resolution of control instructions ---

// recoveryStage gates branch completion per the configured completion
// model, detects mispredictions, and services recoveries (recovery.go).
//
//cisim:hot
func (m *machine) recoveryStage() {
	needStable := m.cfg.Completion == SpecC || m.cfg.Completion == NonSpec ||
		m.cfg.ConfidenceDelay
	if needStable {
		m.computeStability()
		if m.cfg.Check {
			m.checkStability()
		}
	}
	oldestUnresolved := true
	cache, flags := m.stageLive()
	m.win.walking++
	// SoA fast path: only live, still-unresolved control instructions
	// participate — resolveStep returns immediately (and leaves
	// oldestUnresolved untouched) for everything else — so the scan
	// filters on the dense pending-control bit and derefs branches only.
	for i, f := range flags {
		if f&(fDead|fPendCtl) != fPendCtl {
			continue
		}
		m.resolveStep(cache[i], &oldestUnresolved)
	}
	m.win.walking--
	m.serviceRecoveries()
}

// resolveStep decides whether one branch's control may resolve this
// cycle under the configured completion model.
func (m *machine) resolveStep(d *dyn, oldestUnresolved *bool) {
	if !d.isCtl || d.ctlDone {
		if d.isCtl && !d.ctlDone {
			*oldestUnresolved = false
		}
		return
	}
	if d.st != stDone {
		*oldestUnresolved = false
		return
	}
	ok := true
	switch m.cfg.Completion {
	case Spec:
	case SpecC:
		ok = d.stableFlag
	case SpecD:
		ok = *oldestUnresolved
	case NonSpec:
		ok = *oldestUnresolved && d.stableFlag
	}
	if ok && m.cfg.ConfidenceDelay && d.isCond && !d.stableFlag &&
		m.conf.Confident(d.pc, d.histBefore) {
		// §A.2.2 hedge: a high-confidence prediction is held while
		// its operands are speculative, hoping any apparent
		// misprediction is a false one.
		ok = false
	}
	if ok && m.cfg.HideFalseMispredictions && d.gold >= 0 && !d.operandsCommitted() {
		// Hold the branch until its operands repair. Committed operands
		// need no repair: an outcome computed from them is the
		// architectural one, and a disagreement means the best-effort
		// golden mapping is stale, so holding would deadlock.
		if m.falseOutcome(d) {
			ok = false
		}
	}
	if ok {
		d.ctlDone = true
		d.ctlDoneC = m.cycle
		m.win.noteFlags(d)
		if d.isCond {
			m.stats.CondBranches++
		}
		m.checkResolved(d)
	} else {
		*oldestUnresolved = false
	}
}

// falseOutcome reports whether the branch's computed outcome disagrees
// with its architecturally correct one (possible only with speculative
// operands).
func (m *machine) falseOutcome(d *dyn) bool {
	g := m.golden.at(d.gold)
	if d.isCond {
		return d.compTaken != g.taken
	}
	return d.compTarget != g.nextPC
}

// checkResolved compares a completed branch's outcome against the
// direction fetch assumed and queues a recovery on mismatch.
func (m *machine) checkResolved(d *dyn) {
	mismatch := false
	if d.isCond {
		mismatch = d.compTaken != d.assumedTaken
	} else {
		mismatch = d.compTarget != d.assumedTarget
	}
	if !mismatch {
		return
	}
	for i, p := range m.pendingRecs {
		if p.d == d {
			// Refresh the desired outcome.
			m.pendingRecs[i] = pendingRec{d: d, taken: d.compTaken, target: d.compTarget}
			return
		}
	}
	m.pendingRecs = append(m.pendingRecs, pendingRec{d: d, taken: d.compTaken, target: d.compTarget})
}

// computeStability runs the forward data-stability pass used by the
// spec-C and non-spec completion models: a value is stable when it was
// computed from stable inputs and no older memory operation can still
// change it. The result lives in each dyn's stableFlag.
//
// Only resolveStep reads the flag, and only for live, completed,
// unresolved control instructions, so the pass stops at the youngest
// such reader; with none in the window it does nothing. A flag depends
// only on older entries (its producers and older stores), which the pass
// visits first, so the flags left stale past the cutoff are recomputed
// by any later pass that reaches a reader beyond them, before it reads.
//
//cisim:hot
func (m *machine) computeStability() {
	cache, flags := m.stageLive()
	const reader = fPendCtl | uint8(stDone)<<fStShift
	end := len(flags)
	for end > 0 && flags[end-1]&(fDead|fPendCtl|fStMask) != reader {
		end--
	}
	allOlderMemStable := true
	m.win.walking++
	for i, f := range flags[:end] {
		if f&fDead != 0 {
			continue
		}
		m.stabilityStep(cache[i], &allOlderMemStable)
	}
	m.win.walking--
}

// stabilityStep computes one instruction's stability flag during the
// forward pass.
func (m *machine) stabilityStep(d *dyn, allOlderMemStable *bool) {
	s := d.st == stDone && !d.stale
	if s {
		for i := 0; i < d.nsrc; i++ {
			// A retired producer is committed state (stable). A
			// squashed producer means the mapping awaits redispatch
			// repair: inherently speculative data.
			p := d.src[i]
			if p == nil || p.retired {
				continue
			}
			if p.squashed || !p.stableFlag {
				s = false
				break
			}
		}
	}
	if s && d.isLoad && !*allOlderMemStable {
		s = false
	}
	d.stableFlag = s
	if d.isStore && !s {
		*allOlderMemStable = false
	}
}

// --- retire stage ---

func (m *machine) retireStage() {
	for n := 0; n < m.cfg.Width; n++ {
		d := m.win.headLive()
		if d == nil {
			return
		}
		// Retirement may not run past an unfilled restart gap, nor past
		// control independent instructions whose redispatch (rename
		// repair) has not reached them yet. Gates anchor on the (always
		// live) reconvergent points: positions of retired instructions
		// go stale across renumbering.
		if m.active != nil && (m.active.reconv == nil || d.pos >= m.active.reconv.pos) {
			return
		}
		for _, s := range m.suspended {
			if d.pos >= s.reconv.pos {
				return
			}
		}
		if m.redisp != nil && m.redisp.cur != nil && d.pos >= m.redisp.cur.pos {
			return
		}
		blocked := false
		for _, pr := range m.pendingRecs {
			if !pr.d.squashed && !pr.d.retired && d.pos >= pr.d.pos {
				blocked = true
				break
			}
		}
		if blocked {
			return
		}
		if d.st != stDone || d.stale || d.doneC >= m.cycle {
			return
		}
		if d.isCtl {
			if !d.ctlDone {
				return
			}
			mismatch := (d.isCond && d.compTaken != d.assumedTaken) ||
				(!d.isCond && d.compTarget != d.assumedTarget)
			if mismatch {
				// A recovery must service this; if none is queued or in
				// progress (a missed hand-off), queue one now.
				if len(m.pendingRecs) == 0 && m.active == nil && m.redisp == nil {
					m.checkResolved(d)
				}
				return
			}
		}
		m.commit(d)
		if m.done {
			return
		}
	}
}

func (m *machine) commit(d *dyn) {
	// Golden check: the retired stream must be the architectural stream.
	if m.retireCur >= m.golden.n {
		panic(fmt.Sprintf("ooo: retired past golden stream at %v", d))
	}
	g := m.golden.at(m.retireCur)
	if d.pc != g.pc {
		panic(fmt.Sprintf("ooo: retired %v but golden has pc=%#x %v (index %d, cycle %d)",
			d, g.pc, g.inst, m.retireCur, m.cycle))
	}
	if d.hasRd && d.val != g.val {
		panic(fmt.Sprintf("ooo: retired %v with value %#x, golden %#x (index %d)",
			d, d.val, g.val, m.retireCur))
	}
	if (d.isLoad || d.isStore) && d.ea != g.ea {
		panic(fmt.Sprintf("ooo: retired %v with ea %#x, golden %#x", d, d.ea, g.ea))
	}
	if d.isStore && d.val != g.val {
		panic(fmt.Sprintf("ooo: retired store %v with data %#x, golden %#x (index %d)",
			d, d.val, g.val, m.retireCur))
	}
	if d.isCond && d.compTaken != g.taken {
		panic(fmt.Sprintf("ooo: retired branch %v taken=%v, golden %v (index %d, cycle %d)",
			d, d.compTaken, g.taken, m.retireCur, m.cycle))
	}
	if d.isCtl && !d.isCond && d.compTarget != g.nextPC {
		panic(fmt.Sprintf("ooo: retired %v target=%#x, golden %#x (index %d)",
			d, d.compTarget, g.nextPC, m.retireCur))
	}

	if d.hasRd {
		m.regs[d.dest] = d.val
		m.regCommitC[d.dest] = m.cycle
	}
	if d.isStore {
		if d.inst.Op == isa.SB {
			m.mem.Write8(d.ea, byte(d.val))
		} else {
			m.mem.Write64(d.ea, d.val)
		}
	}
	if d.isCond {
		m.gsh.Update(d.pc, m.retireHist, d.compTaken)
		m.bim.Update(d.pc, d.compTaken)
		m.conf.Update(d.pc, m.retireHist, d.predTaken == d.compTaken)
		m.retireHist = m.retireHist.Push(d.compTaken)
	} else if d.isCtl && isa.ClassOf(d.inst.Op) != isa.ClassReturn {
		m.ctb.Update(d.pc, m.retireHist, d.compTarget)
	}

	// Table 3 accounting.
	if d.saved != savedNo {
		m.stats.FetchSaved++
		switch {
		case d.saved == savedFetched:
			m.stats.OnlyFetched++
		case d.reissuedAfter:
			m.stats.WorkDiscarded++
		default:
			m.stats.WorkSaved++
		}
	}
	m.stats.Issues += uint64(d.issues)
	m.stats.Retired++
	if m.mx != nil {
		m.mx.fetchToRetire.Observe(m.cycle - d.fetchC)
		m.mx.issuesPerRetired.Observe(int64(d.issues))
	}
	if m.trc != nil {
		m.trc.TraceRetire(d.seq, m.cycle)
	}
	if m.cfg.RecordPipeline {
		m.recordPipe(d)
	}
	m.retireCur++
	// Drop the dyn from the tail rename map if it is still the latest.
	if d.hasRd && m.tailRmap[d.dest] == d {
		m.tailRmap[d.dest] = nil
		if m.shadow != nil {
			delete(m.shadow.tailRmap, d.dest)
		}
	}
	m.win.retire(d)
	m.releaseConsumers(d)

	if d.inst.Op == isa.HALT || m.retireCur >= m.golden.n {
		m.done = true
	}
}

// goldSyncLimit bounds how many window entries goldSync maps per cycle,
// counted from the retire point.
const goldSyncLimit = 256

// goldSync propagates golden-stream indexes through the window prefix
// that provably lies on the architectural path: starting at the retire
// point, instructions match golden entries as long as each one's PC and
// assumed successor agree with the golden stream. This is the "mapping of
// good instructions in the processor to counterparts in the fully
// accurate window" of §A.3.1, which the oracle features (HFM, CI-OR,
// oracle history) consult; like the paper's, it is best-effort.
//
// The sync resumes after the prefix it verified last cycle (gsLast,
// gsNext) instead of walking it again. A verified entry would pass again
// unchanged: its pc, its golden index and the golden stream never change;
// its assumed target changes only in a recovery redirect; window order
// before the frontier changes only by squash or restart insertion; and
// retirement removes only verified head entries. Each of those drops the
// prefix (dropGoldPrefix) or, for retirement past its end, leaves gsLast
// retired, and the sync starts again from the head.
//
//cisim:hot
func (m *machine) goldSync() {
	cache, flags := m.stageLive()
	last, from, g := m.gsLast, 0, m.retireCur
	if last != nil && !last.retired {
		from, g = m.win.cacheIndex(m.win.liveCache, last)-m.win.lo+1, m.gsNext
	} else {
		last = nil
	}
	limit := goldSyncLimit - (g - m.retireCur)
	m.win.walking++
	for i := from; i < len(flags); i++ {
		if flags[i]&fDead != 0 {
			continue
		}
		d := cache[i]
		if g >= m.golden.n || limit == 0 {
			break
		}
		limit--
		gd := m.golden.at(g)
		if d.pc != gd.pc {
			break
		}
		if d.gold < 0 {
			d.gold = g
		} else if d.gold != g {
			break
		}
		// Continue only while the window's assumed path follows the
		// golden path.
		if d.assumedTarget != gd.nextPC {
			break
		}
		g++
		last = d
	}
	m.win.walking--
	m.gsLast, m.gsNext = last, g
}

// stuckReport summarizes machine state for deadlock diagnostics.
func (m *machine) stuckReport() string {
	h := m.win.headLive()
	s := fmt.Sprintf("win=%d/%d segs=%d/%d fetchOn=%v buf=%d pending=%d active=%v walk=%v",
		m.win.count, m.cfg.WindowSize, m.win.liveSegs, m.win.maxSegs,
		m.fetchOn, len(m.fetchBuf), len(m.pendingRecs), m.active != nil, m.redisp != nil)
	if h != nil {
		s += fmt.Sprintf("\nhead: %v st=%d stale=%v ctlDone=%v assumed=%v comp=%v ready=%v",
			h, h.st, h.stale, h.ctlDone, h.assumedTaken, h.compTaken, h.ready())
		for i := 0; i < h.nsrc; i++ {
			if p := h.src[i]; p != nil {
				s += fmt.Sprintf("\n  src%d: %v st=%d squashed=%v retired=%v inWindow=%v",
					i, p, p.st, p.squashed, p.retired, m.inWindow(p))
			}
		}
	}
	segs := 0
	empty, partial, sealed := 0, 0, 0
	for seg := m.win.head; seg != nil; seg = seg.next {
		segs++
		if seg.used == 0 {
			empty++
		} else if !seg.full() {
			partial++
		}
		if seg.sealed {
			sealed++
		}
	}
	s += fmt.Sprintf("\nsegments: walked=%d empty=%d partial=%d sealed=%d", segs, empty, partial, sealed)
	return s
}

// checkRenames verifies that, outside of in-progress recovery sequences,
// every live instruction's source pointers name the youngest older live
// producer — the invariant restart insertion and redispatch walks must
// restore. Regions awaiting redispatch are exempt (their repair is the
// walk's job).
func (m *machine) checkRenames() error {
	if m.active != nil || m.redisp != nil || len(m.pendingRecs) > 0 || len(m.suspended) > 0 {
		return nil // repair in progress
	}
	rmap := make(map[isa.Reg]*dyn) //lint:ignore hotalloc Check-only invariant walk, enabled by tests rather than simulation runs
	var err error
	m.win.forEach(func(d *dyn) bool {
		for i := 0; i < d.nsrc; i++ {
			if d.srcReg[i] == isa.RZero {
				continue
			}
			want := rmap[d.srcReg[i]]
			got := d.src[i]
			// A source may point at a retired producer (its value is
			// committed and identical) as long as no younger live
			// producer precedes the consumer.
			okPtr := got == want || (want == nil && got != nil && got.retired)
			if !okPtr {
				ctx := ""
				for p := m.win.prevLive(d, false); p != nil && len(ctx) < 400; p = m.win.prevLive(p, false) {
					ctx = fmt.Sprintf("  %v sq=%v\n", p, p.squashed) + ctx
				}
				err = fmt.Errorf("ooo: cycle %d: %v src%d(%v) points to %v, want %v\nwindow before:\n%s",
					m.cycle, d, i, d.srcReg[i], got, want, ctx)
				return false
			}
		}
		if d.hasRd {
			rmap[d.dest] = d
		}
		return true
	})
	return err
}

// checkContinuity verifies that, outside of in-progress recovery
// sequences, the live window is a contiguous instruction sequence: each
// instruction's assumed next PC names the next live instruction.
func (m *machine) checkContinuity() error {
	if m.active != nil || m.redisp != nil || len(m.pendingRecs) > 0 || len(m.suspended) > 0 {
		return nil
	}
	var prev *dyn
	var err error
	m.win.forEach(func(d *dyn) bool {
		if prev != nil && prev.assumedTarget != d.pc {
			err = fmt.Errorf("ooo: cycle %d: window discontinuity: %v (next=%#x) followed by %v",
				m.cycle, prev, prev.assumedTarget, d)
			return false
		}
		prev = d
		return true
	})
	return err
}

// inWindow reports whether a dyn still sits in a linked segment
// (diagnostics for dangling source pointers).
func (m *machine) inWindow(d *dyn) bool {
	for seg := m.win.head; seg != nil; seg = seg.next {
		for _, c := range seg.slots[:seg.used] {
			if c == d {
				return true
			}
		}
	}
	return false
}
