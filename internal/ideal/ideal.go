// Package ideal implements the idealized machine models of Section 2: six
// trace-driven window schedulers that bracket the performance potential of
// control independence.
//
// The six models share one engine, parameterized by three choices:
//
//	oracle    perfect branch prediction (mispredictions ignored)
//	base      complete squash after every misprediction
//	nWR-nFD   CI exploited; wrong path consumes nothing; no false deps
//	nWR-FD    CI exploited; wrong path consumes nothing; false deps felt
//	WR-nFD    CI exploited; wrong path consumes fetch/window/issue; no FD
//	WR-FD     CI exploited; wrong path consumes resources and false deps
//
// Hardware constraints follow §2.2: machine width 16 (fetch, issue,
// retire), ideal fetch past any number of branches, a 5-stage pipeline,
// symmetric functional units, unlimited renaming, oracle memory
// disambiguation, and a perfect (1-cycle) data cache. The window size is
// the experiment's parameter.
//
// The engine is a cycle-driven scheduler over the annotated trace. Fetch
// follows per-misprediction "streams": the junk wrong path (charged in WR
// models), a deferred stream holding the correct control-dependent entries
// that activates when the branch resolves, and the control-independent
// continuation at the reconvergent point. Issue is oldest-first among
// ready instructions; *-FD models floor the final issue of falsely
// dependent control-independent instructions at resolution + 1 (the
// paper's single-cycle repair assumption). Multiple in-flight
// mispredictions behave as optimal preemption (§A.1.2), which is what the
// ideal study models.
//
// Issue is event-driven (sched.go): a slot is timed when its producers
// issue and its floors lift, never by rescanning the window, and retired
// or squashed slots are recycled, so a run's working memory grows with
// the window rather than with the trace.
package ideal

import (
	"fmt"
	"sort"

	"cisim/internal/isa"
	"cisim/internal/trace"
)

// Model selects one of the six Section 2 machine models.
type Model int

const (
	Oracle Model = iota
	Base
	NWRnFD
	NWRFD
	WRnFD
	WRFD
)

func (m Model) String() string {
	switch m {
	case Oracle:
		return "oracle"
	case Base:
		return "base"
	case NWRnFD:
		return "nWR-nFD"
	case NWRFD:
		return "nWR-FD"
	case WRnFD:
		return "WR-nFD"
	case WRFD:
		return "WR-FD"
	}
	return ""
}

// Models lists all six in the paper's presentation order (Figure 3).
func Models() []Model { return []Model{Oracle, NWRnFD, NWRFD, WRnFD, WRFD, Base} }

// knobs are the engine's parameterization of a model.
type knobs struct {
	usePred bool // honour mispredictions at all (false = oracle)
	ci      bool // exploit control independence (false = complete squash)
	wr      bool // wrong path consumes fetch/window/issue resources
	fd      bool // false data dependences delay control independent issue
}

func (m Model) knobs() knobs {
	switch m {
	case Oracle:
		return knobs{}
	case Base:
		return knobs{usePred: true, wr: true}
	case NWRnFD:
		return knobs{usePred: true, ci: true}
	case NWRFD:
		return knobs{usePred: true, ci: true, fd: true}
	case WRnFD:
		return knobs{usePred: true, ci: true, wr: true}
	case WRFD:
		return knobs{usePred: true, ci: true, wr: true, fd: true}
	}
	panic("ideal: unknown model")
}

// Config parameterizes a simulation run.
type Config struct {
	Model      Model
	WindowSize int
	Width      int // fetch/issue/retire width; 0 means 16 (§2.2)
	// MaxCycles guards against scheduler bugs; 0 derives a generous
	// bound from the trace length.
	MaxCycles int64
	// RecordTimes captures per-entry issue and retire cycles in the
	// Result, for tests and detailed analysis.
	RecordTimes bool
}

// Result reports a run's outcome.
type Result struct {
	Model   Model
	Window  int
	Retired uint64
	Cycles  int64
	IPC     float64

	// Squashed counts wrong-path (junk) slots that occupied the window.
	Squashed uint64
	// Evicted counts control independent instructions squashed
	// youngest-first to make room for restart sequences (§3.2.2).
	Evicted uint64

	// IssueCycle and RetireCycle are per-entry times, recorded when
	// Config.RecordTimes is set.
	IssueCycle  []int64
	RetireCycle []int64

	// FloorsAttached counts false-dependence floors attached to control
	// independent instructions. FloorsBound counts the issued slots whose
	// issue a floor delayed: the last floor to lift released the slot
	// later than its fetch and every register and memory producer did.
	FloorsAttached uint64
	FloorsBound    uint64
}

const never = int64(-1)

type slotKind uint8

const (
	kindReal slotKind = iota
	kindJunk
)

// key orders window slots in logical program order. Real entry i is
// (i, 0); the junk wrong path of a mispredicted branch i occupies
// (i, 1..Len), which sorts after the branch and before entry i+1.
type key struct {
	idx int32
	sub int32
}

func (a key) less(b key) bool {
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.sub < b.sub
}

type mispRec struct {
	branch   int32 // trace entry index of the mispredicted branch
	reconv   int32 // first CI entry index; -1 when none usable
	wp       *trace.WrongPath
	resolved bool
	resolveC int64 // branch completion cycle (D in Figure 2)
	// floorWaits lists the slots whose false-dependence floor this
	// misprediction's resolution lifts.
	floorWaits int32
}

// slot is one window occupant. Slots are recycled: gen counts the reuses,
// so the wheel, ready heap and wait lists can tell a reference to the
// current occupant from one left behind by an evicted or squashed slot.
type slot struct {
	key    key
	kind   slotKind
	stream int // owning stream id (for eviction)
	// streamEnd is the owning stream's end at fetch time, so an eviction
	// can revive a refetch stream with exactly the right coverage.
	streamEnd int32
	gen       uint32

	// pending counts the waits not yet timed: producers that have not
	// issued and false-dependence floors (*-FD models) whose
	// misprediction has not resolved. readyC is the earliest issue cycle
	// fetch and the timed producers allow; floorC is the latest
	// resolution + 1 of the timed floors. At pending 0 the slot issues
	// at max(readyC, floorC) or, when the width is taken, later.
	pending int32
	readyC  int64
	floorC  int64

	issueC int64
	doneC  int64

	// misp is set on mispredicted branch slots.
	misp *mispRec
	// nextFree links the scratch's free list.
	nextFree *slot
}

type stream struct {
	id   int
	next int32 // next trace entry to fetch
	end  int32 // one past the last entry this stream covers
	dead bool
	// activateAt delays fetching real entries: deferred (correct
	// control-dependent) streams and stalled nWR streams hold never
	// until their misprediction resolves.
	activateAt int64
	deferredOf *mispRec
	// Junk wrong-path state: while junkFor is set and junkLeft != 0 the
	// stream emits junk slots (junkLeft < 0 = unbounded).
	junkFor  *mispRec
	junkSub  int32
	junkLeft int32
}

type engine struct {
	cfg     Config
	k       knobs
	tr      *trace.Trace
	prep    *Prep
	width   int
	winSize int

	window  []*slot // sorted by key; window[head:] is live
	head    int
	streams []*stream
	nextSID int

	// ent[i] is trace entry i's run state: completion cycle (0 = not
	// executed or squashed; real completion cycles start at 2; retired
	// entries keep theirs), the list of slots waiting for it, and whether
	// it occupies a window slot — which lets overlapping fetch streams
	// (created by eviction refetches) skip entries already present
	// instead of duplicating them.
	ent []entState

	// mispOf remembers the recovery record of each mispredicted branch
	// entry, so a refetch after eviction can tell whether the branch has
	// already resolved (in which case the outcome is known and the
	// control-dependent region is covered by surviving streams). Dense:
	// one slot per trace entry, nil for never-mispredicted entries.
	mispOf []*mispRec

	// activeMisp lists the unresolved mispredictions with a usable
	// reconvergent point whose branch slot is in the window — exactly the
	// candidates a window scan for false-dependence floors would find.
	// Maintained at misprediction creation, resolution, and branch-slot
	// eviction, it turns attachFloors from O(live window) per fetched
	// entry into O(in-flight mispredictions).
	activeMisp []*mispRec

	// squashAt holds pending recovery actions: at the recorded cycle the
	// misprediction's junk is squashed and wrong-path fetch stops, so
	// correct-path fetch resumes exactly one cycle after detection, the
	// same timing as deferred-stream activation.
	squashAt []pendingSquash

	// sc owns the window slot arena, the wait nodes, the wheel and the
	// ready heap (and every buffer above); it returns to the prep's pool
	// when the run finishes.
	sc *scratch

	retireNext int32
	cycle      int64

	res Result
}

// entState is one trace entry's dense run state (see engine.ent).
type entState struct {
	done  int64
	waits int32
	live  bool
}

// Run simulates the trace under the configured model. It is Prepare +
// RunPrepared; callers running several configurations over one trace
// should Prepare once and share it.
func Run(tr *trace.Trace, cfg Config) (Result, error) {
	return RunPrepared(Prepare(tr), cfg)
}

// RunPrepared simulates the prepared trace under the configured model.
// One Prep is safe for concurrent RunPrepared calls.
func RunPrepared(p *Prep, cfg Config) (Result, error) {
	tr := p.Trace
	if cfg.Width == 0 {
		cfg.Width = 16
	}
	if cfg.WindowSize <= 0 {
		return Result{}, fmt.Errorf("ideal: window size must be positive")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = int64(len(tr.Entries))*8 + 10_000
	}
	sc := p.getScratch()
	e := &engine{
		cfg:        cfg,
		k:          cfg.Model.knobs(),
		tr:         tr,
		prep:       p,
		width:      cfg.Width,
		winSize:    cfg.WindowSize,
		ent:        sc.ent,
		mispOf:     sc.mispOf,
		window:     sc.window,
		streams:    sc.streams,
		squashAt:   sc.squashAt,
		activeMisp: sc.activeMisp,
		sc:         sc,
	}
	defer p.putScratch(sc, e)
	e.addStream(0, int32(len(tr.Entries)), 0)
	if cfg.RecordTimes {
		e.res.IssueCycle = make([]int64, len(tr.Entries))
		e.res.RetireCycle = make([]int64, len(tr.Entries))
	}

	n := int32(len(tr.Entries))
	for e.retireNext < n {
		e.cycle++
		if e.cycle > cfg.MaxCycles {
			return Result{}, fmt.Errorf("ideal: %v window=%d exceeded cycle bound at retire %d/%d\n%s",
				cfg.Model, cfg.WindowSize, e.retireNext, n, e.stuckReport())
		}
		e.applySquashes()
		e.retire()
		e.issue()
		e.fetch()
	}
	e.res.Model = cfg.Model
	e.res.Window = cfg.WindowSize
	e.res.Retired = uint64(n)
	e.res.Cycles = e.cycle
	if e.cycle > 0 {
		e.res.IPC = float64(n) / float64(e.cycle)
	}
	return e.res, nil
}

func (e *engine) addStream(next, end int32, activateAt int64) *stream {
	s := e.allocStream()
	*s = stream{id: e.nextSID, next: next, end: end, activateAt: activateAt}
	e.nextSID++
	e.streams = append(e.streams, s)
	return s
}

func (e *engine) liveCount() int { return len(e.window) - e.head }

// --- retire stage ---

//cisim:hot
func (e *engine) retire() {
	for n := 0; n < e.width; n++ {
		if e.head >= len(e.window) {
			return
		}
		s := e.window[e.head]
		if s.kind != kindReal || s.key.idx != e.retireNext || s.key.sub != 0 {
			return
		}
		if s.doneC == never || s.doneC >= e.cycle {
			return
		}
		if e.res.RetireCycle != nil {
			e.res.RetireCycle[s.key.idx] = e.cycle
			e.res.IssueCycle[s.key.idx] = s.issueC
		}
		e.ent[s.key.idx].live = false
		e.retireNext++
		e.head++
		e.freeSlot(s)
	}
}

// --- issue stage ---

// issue moves the slots whose ready cycle is now from the wheel to the
// ready heap, then issues the oldest ready slots, up to the width. An
// issue times the slots waiting on the entry (and, for a mispredicted
// branch, on its floors); none of them can become ready before the
// next cycle.
//
//cisim:hot
func (e *engine) issue() {
	sc := e.sc
	b := &sc.wheel[e.cycle&int64(len(sc.wheel)-1)]
	for _, p := range *b {
		if p.s.gen == p.gen {
			p.ord = p.s.key.order()
			sc.ready = append(sc.ready, p)
			siftUp(sc.ready)
		}
	}
	*b = (*b)[:0]
	for issued := 0; issued < e.width && len(sc.ready) > 0; {
		top := sc.ready[0]
		last := len(sc.ready) - 1
		sc.ready[0] = sc.ready[last]
		sc.ready = sc.ready[:last]
		siftDown(sc.ready)
		s := top.s
		if s.gen != top.gen {
			continue // evicted or squashed while ready
		}
		issued++
		s.issueC = e.cycle
		s.doneC = e.cycle + int64(e.latency(s))
		if s.floorC > s.readyC {
			e.res.FloorsBound++
		}
		if s.kind == kindReal {
			en := &e.ent[s.key.idx]
			en.done = s.doneC
			e.wake(&en.waits, s.doneC, false)
		}
		if s.misp != nil && !s.misp.resolved {
			e.resolve(s.misp, s.doneC)
		}
	}
}

func (e *engine) latency(s *slot) int {
	if s.kind == kindJunk {
		return 1
	}
	return int(e.prep.lat[s.key.idx])
}

// waitProducer folds producer p into a fetched slot's readiness: a
// completion already known bounds its ready cycle, otherwise the slot
// waits for p to issue.
func (e *engine) waitProducer(s *slot, p int32) {
	if p == trace.NoDep {
		return
	}
	if d := e.ent[p].done; d != 0 {
		s.readyC = max(s.readyC, d)
	} else {
		e.waitOn(&e.ent[p].waits, s)
	}
}

// resolve handles misprediction resolution. The misprediction is detected
// when the branch completes (cycle at); recovery — squashing the junk
// wrong path, redirecting fetch to the correct path, activating the
// deferred control-dependent stream — takes effect at cycle at+1, so every
// recovery flavour (junk-chasing, stalled nWR stream, deferred stream)
// resumes correct-path fetch with identical timing.
func (e *engine) resolve(m *mispRec, at int64) {
	m.resolved = true
	m.resolveC = at
	e.dropActiveMisp(m)
	// Repair completes the cycle after resolution (the *-FD floor).
	e.wake(&m.floorWaits, at+1, true)
	e.squashAt = append(e.squashAt, pendingSquash{at: at + 1, m: m})
	for _, st := range e.streams {
		if st.dead {
			continue
		}
		if st.deferredOf == m && st.activateAt == never {
			st.activateAt = at + 1
		}
	}
}

type pendingSquash struct {
	at int64
	m  *mispRec
}

// applySquashes performs recovery actions that have come due: the junk
// wrong path of each resolved misprediction is squashed and its stream
// stops fetching junk, so correct-path fetch resumes this cycle.
func (e *engine) applySquashes() {
	out := e.squashAt[:0]
	for _, ps := range e.squashAt {
		if ps.at > e.cycle {
			out = append(out, ps)
			continue
		}
		e.squashJunk(ps.m)
		for _, st := range e.streams {
			if !st.dead && st.junkFor == ps.m {
				st.junkFor = nil
				st.junkLeft = 0
			}
		}
	}
	e.squashAt = out
}

// squashJunk removes all junk slots belonging to a misprediction. They
// share the branch's index, so they sit together around the branch's own
// key: usually right after it, but an eviction that returns junk quota
// can leave a refetched junk slot at sub-key 0 or below.
func (e *engine) squashJunk(m *mispRec) {
	i := e.head + sort.Search(len(e.window)-e.head, func(i int) bool {
		return e.window[e.head+i].key.idx >= m.branch
	})
	j, out := i, i
	for ; j < len(e.window) && e.window[j].key.idx == m.branch; j++ {
		s := e.window[j]
		if s.kind == kindJunk {
			e.freeSlot(s)
			continue
		}
		e.window[out] = s
		out++
	}
	e.res.Squashed += uint64(j - out)
	e.window = append(e.window[:out], e.window[j:]...)
}

// --- fetch stage ---

func (e *engine) fetch() {
	e.pruneStreams()
	for budget := e.width; budget > 0; {
		st := e.earliestStream()
		if st == nil {
			return
		}
		// Overlapping streams (left behind by eviction refetches) skip
		// entries that are already in the window or already retired.
		if k, ok := e.streamKey(st); ok && k.sub == 0 &&
			(k.idx < e.retireNext || e.ent[k.idx].live) {
			st.next++
			continue
		}
		if e.liveCount() >= e.winSize {
			if !e.evictFor(st) {
				return
			}
		}
		e.fetchOne(st)
		budget--
	}
}

// pruneStreams drops dead streams, keeping the live ones in order:
// earliestStream breaks ties by position, and a dead stream never fetches
// again, so dropping it is unobservable. It also compacts the retired
// window prefix once it outgrows the window, so the window slice stays
// O(window) at an amortized copy of one pointer per retirement.
func (e *engine) pruneStreams() {
	out := e.streams[:0]
	for _, st := range e.streams {
		if !st.dead {
			out = append(out, st)
		}
	}
	e.streams = out
	if e.head > e.winSize {
		e.window = append(e.window[:0], e.window[e.head:]...)
		e.head = 0
	}
}

// earliestStream returns the fetchable stream with the logically earliest
// next position.
func (e *engine) earliestStream() *stream {
	var best *stream
	var bestKey key
	for _, st := range e.streams {
		if st.dead {
			continue
		}
		k, ok := e.streamKey(st)
		if !ok {
			continue
		}
		// Real-entry fetch may be gated by activation; junk is not.
		if k.sub == 0 && (st.activateAt == never || st.activateAt > e.cycle) {
			continue
		}
		if best == nil || k.less(bestKey) {
			best, bestKey = st, k
		}
	}
	return best
}

// streamKey returns the key the stream would fetch next, retiring the
// stream when it is exhausted.
func (e *engine) streamKey(st *stream) (key, bool) {
	if st.junkFor != nil && st.junkLeft != 0 {
		return key{st.junkFor.branch, st.junkSub + 1}, true
	}
	if st.next >= st.end {
		st.dead = true
		return key{}, false
	}
	return key{st.next, 0}, true
}

// evictFor makes room by squashing the youngest window slot, provided the
// requesting stream's next key is logically older (§3.2.2: squash control
// independent instructions youngest first). Returns false when eviction
// would not help.
func (e *engine) evictFor(st *stream) bool {
	want, ok := e.streamKey(st)
	if !ok || e.head >= len(e.window) {
		return false
	}
	young := e.window[len(e.window)-1]
	if !want.less(young.key) {
		return false
	}
	e.window = e.window[:len(e.window)-1]
	owner := e.streamByID(young.stream)
	e.freeSlot(young) // its fields stay readable until the next fetch reuses it
	if young.kind == kindJunk {
		// Return the junk quota to its stream.
		if owner != nil && owner.junkFor != nil {
			owner.junkSub--
			if owner.junkLeft >= 0 {
				owner.junkLeft++
			}
		}
		return true
	}
	e.res.Evicted++
	idx := young.key.idx
	// The youngest slot goes first, so every slot waiting on this entry
	// (or on its unresolved floors) is already gone: waking the lists
	// only returns their stale nodes to the pool.
	en := &e.ent[idx]
	en.done, en.live = 0, false
	e.wake(&en.waits, 0, false)
	if young.misp != nil && !young.misp.resolved {
		e.wake(&young.misp.floorWaits, 0, true)
		e.dropActiveMisp(young.misp)
		// An evicted, still-unresolved mispredicted branch takes its
		// recovery machinery with it; refetching it rebuilds everything.
		// (A resolved branch keeps its machinery: its deferred stream
		// and eviction-refetch streams still legitimately cover the
		// control-dependent region.)
		for _, s2 := range e.streams {
			if s2.deferredOf == young.misp {
				s2.dead = true
			}
			if s2.junkFor == young.misp {
				s2.junkFor = nil
				s2.junkLeft = 0
			}
		}
	}
	if owner != nil && !owner.dead {
		if owner.next > idx {
			owner.next = idx
		}
	} else {
		// Revive a stream covering the evicted slot, clamped against
		// both its original stream's coverage and any live stream that
		// already covers a later suffix.
		end := young.streamEnd
		for _, st2 := range e.streams {
			if !st2.dead && st2.next > idx && st2.next < end {
				end = st2.next
			}
		}
		e.addStream(idx, end, e.cycle)
	}
	return true
}

func (e *engine) streamByID(id int) *stream {
	for _, st := range e.streams {
		if st.id == id {
			return st
		}
	}
	return nil
}

// fetchOne fetches the stream's next slot into the window.
func (e *engine) fetchOne(st *stream) {
	if st.junkFor != nil && st.junkLeft != 0 {
		st.junkSub++
		if st.junkLeft > 0 {
			st.junkLeft--
		}
		s := e.newSlot()
		s.key = key{st.junkFor.branch, st.junkSub}
		s.kind = kindJunk
		s.stream, s.streamEnd = st.id, st.end
		// Dispatch takes the cycle after fetch; issue the cycle after that.
		s.readyC, s.issueC, s.doneC = e.cycle+2, never, never
		e.schedule(s)
		e.insert(s)
		return
	}
	idx := st.next
	st.next++
	s := e.newSlot()
	s.key = key{idx, 0}
	s.kind = kindReal
	s.stream, s.streamEnd = st.id, st.end
	s.readyC, s.issueC, s.doneC = e.cycle+2, never, never
	en := &e.tr.Entries[idx]
	e.waitProducer(s, en.DepReg[0])
	e.waitProducer(s, en.DepReg[1])
	e.waitProducer(s, en.DepMem)

	// Attach false-dependence floors from every unresolved misprediction
	// this entry is control independent of.
	if e.k.fd {
		e.attachFloors(s, en)
	}
	if s.pending == 0 {
		e.schedule(s)
	}
	// Misprediction handling at fetch: redirect this stream.
	if e.k.usePred && en.Mispredicted {
		if m := e.mispOf[idx]; m != nil && m.resolved {
			// Refetch after resolution: the outcome is already known,
			// and the control-dependent region is covered by the
			// surviving deferred/refetch streams — skip past it.
			s.misp = m
			if m.reconv > idx && st.next < m.reconv {
				st.next = m.reconv
			}
		} else {
			e.onMispredict(st, s, idx, en)
		}
	}
	e.insert(s)
}

// onMispredict rewires the fetching stream according to the model.
func (e *engine) onMispredict(st *stream, s *slot, idx int32, en *trace.Entry) {
	m := e.allocMisp()
	*m = mispRec{branch: idx, reconv: -1, wp: en.Wrong}
	s.misp = m
	e.mispOf[idx] = m

	reconv := int32(-1)
	if e.k.ci && en.Wrong != nil && en.Wrong.ReconvEntry >= 0 {
		reconv = en.Wrong.ReconvEntry
		if reconv > st.end {
			// The reconvergent point lies beyond this stream's region:
			// the entries past st.end are already in the window as
			// control independent instructions of an outer
			// misprediction. Treat the stream boundary as the
			// reconvergent point (optimal-preemption idealization).
			reconv = st.end
		}
	}

	if reconv > idx {
		m.reconv = reconv
		e.activeMisp = append(e.activeMisp, m)
		// Deferred correct control-dependent stream [idx+1, reconv),
		// activated at resolution.
		if reconv > idx+1 {
			d := e.addStream(idx+1, reconv, never)
			d.deferredOf = m
		}
		// This stream continues at the reconvergent point, behind the
		// junk wrong path when the model charges its resources.
		st.next = reconv
		st.dead = st.next >= st.end
		if e.k.wr && en.Wrong != nil && en.Wrong.Len > 0 {
			st.junkFor = m
			st.junkSub = 0
			st.junkLeft = int32(en.Wrong.Len)
			st.dead = false
		}
		return
	}

	// No usable reconvergence: complete-squash recovery for this branch.
	st.next = idx + 1
	if e.k.wr {
		// The front end chases the wrong path until resolution:
		// unbounded junk, squashed at resolution. The junk itself keeps
		// real fetch from advancing.
		st.junkFor = m
		st.junkSub = 0
		st.junkLeft = -1
	} else {
		// nWR: oracle knowledge skips the wrong path entirely; fetch
		// simply idles until resolution.
		st.activateAt = never
		st.deferredOf = m
	}
}

// attachFloors parks the entry on every unresolved misprediction that
// creates a false data dependence for it. activeMisp holds exactly the
// mispredictions a scan of the live window would surface (unresolved,
// usable reconvergent point, branch slot present), so the attached floor
// set, and therefore issue timing, is identical to the window-scan
// formulation. Every floor is a pending wait: its misprediction has not
// resolved yet.
func (e *engine) attachFloors(s *slot, en *trace.Entry) {
	idx := s.key.idx
	for _, m := range e.activeMisp {
		if idx < m.reconv {
			continue
		}
		if e.falseDep(m, en, idx) {
			e.waitOn(&m.floorWaits, s)
			e.res.FloorsAttached++
		}
	}
}

// dropActiveMisp removes a misprediction from the floor-candidate list;
// no-op when it was never listed (no usable reconvergent point).
func (e *engine) dropActiveMisp(m *mispRec) {
	for i, x := range e.activeMisp {
		if x == m {
			e.activeMisp = append(e.activeMisp[:i], e.activeMisp[i+1:]...)
			return
		}
	}
}

// falseDep reports whether entry en (control independent of m) reads a
// value the wrong path of m overwrote without an intervening control
// independent producer.
func (e *engine) falseDep(m *mispRec, en *trace.Entry, idx int32) bool {
	wp := m.wp
	if wp == nil {
		return false
	}
	if wp.RegWrites != 0 {
		src := &e.prep.src[idx]
		for si := 0; si < 2; si++ {
			r := src[si]
			if r == noSrc || r == uint8(isa.RZero) {
				continue
			}
			if wp.RegWrites&(1<<r) == 0 {
				continue
			}
			// A producer at or after the reconvergent point shields the
			// consumer: its window mapping is already correct.
			if en.DepReg[si] == trace.NoDep || en.DepReg[si] < m.reconv {
				return true
			}
		}
	}
	if len(wp.Stores) > 0 && e.prep.isLoad[idx] {
		if en.DepMem == trace.NoDep || en.DepMem < m.reconv {
			ld := trace.AddrRange{Addr: en.EA, Size: en.MemSize()}
			for _, sr := range wp.Stores {
				if ld.Overlaps(sr) {
					return true
				}
			}
		}
	}
	return false
}

// insert places a slot into the window, keeping key order. Most fetches
// are the newest key and simply append. A duplicate live slot or the
// refetch of a retired entry indicates a stream bookkeeping bug, so both
// are hard failures.
func (e *engine) insert(s *slot) {
	if s.kind == kindReal {
		if s.key.idx < e.retireNext {
			panic(fmt.Sprintf("ideal: refetch of retired entry %d (retireNext %d)", s.key.idx, e.retireNext))
		}
		e.ent[s.key.idx].live = true
	}
	if n := len(e.window); n == e.head || e.window[n-1].key.less(s.key) {
		e.window = append(e.window, s)
		return
	}
	live := e.window[e.head:]
	i := sort.Search(len(live), func(i int) bool { return !live[i].key.less(s.key) })
	if live[i].key == s.key {
		old := live[i]
		panic(fmt.Sprintf("ideal: duplicate window slot (%d,%d): old stream=%d end=%d, new stream=%d end=%d cycle=%d\n%s",
			s.key.idx, s.key.sub, old.stream, old.streamEnd, s.stream, s.streamEnd, e.cycle, e.stuckReport()))
	}
	i += e.head
	e.window = append(e.window, nil)
	copy(e.window[i+1:], e.window[i:])
	e.window[i] = s
}

// stuckReport describes engine state for cycle-bound failures (debugging).
func (e *engine) stuckReport() string {
	s := fmt.Sprintf("cycle=%d live=%d head=%d\n", e.cycle, e.liveCount(), e.head)
	if e.head < len(e.window) {
		h := e.window[e.head]
		s += fmt.Sprintf("window head: key=(%d,%d) kind=%d pending=%d readyC=%d floorC=%d issueC=%d doneC=%d\n",
			h.key.idx, h.key.sub, h.kind, h.pending, h.readyC, h.floorC, h.issueC, h.doneC)
		if h.kind == kindReal {
			en := &e.tr.Entries[h.key.idx]
			s += fmt.Sprintf("  entry: %v deps=%v mem=%d\n", en.Inst, en.DepReg, en.DepMem)
		}
	}
	for _, st := range e.streams {
		if st.dead {
			continue
		}
		s += fmt.Sprintf("stream %d: next=%d end=%d activateAt=%d junkLeft=%d", st.id, st.next, st.end, st.activateAt, st.junkLeft)
		if st.deferredOf != nil {
			s += fmt.Sprintf(" deferredOf=%d(resolved=%v)", st.deferredOf.branch, st.deferredOf.resolved)
		}
		if st.junkFor != nil {
			s += fmt.Sprintf(" junkFor=%d(resolved=%v)", st.junkFor.branch, st.junkFor.resolved)
		}
		s += "\n"
	}
	return s
}
