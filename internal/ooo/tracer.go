package ooo

// Cycle-level pipeline tracing and the deterministic metrics block the
// machine fills when Config.CollectMetrics is set. Both observe the same
// clock — the simulated cycle counter — never wall time, so everything
// here is a pure function of program and configuration.
//
// Tracing is opt-in and costs one nil pointer check per pipeline stage
// when disabled. A non-nil Tracer makes the configuration non-memoizable
// (Config.Key returns false): the hook's side effects live outside the
// Result the artifact cache stores.

import (
	"bufio"
	"fmt"
	"io"

	"cisim/internal/isa"
	"cisim/internal/metrics"
)

// Tracer observes each dynamic instruction's pipeline stage transitions.
// seq is the fetch-order sequence number (unique per dynamic
// instruction, wrong paths included); cycle is the absolute simulation
// cycle of the transition. Calls arrive in non-decreasing cycle order.
// Every instruction gets exactly one TraceFetch and exactly one TraceEnd,
// at its retirement or its squash, with any number of TraceIssue /
// TraceComplete pairs in between (selective reissue re-executes
// instructions). TraceRename fires when the instruction enters the
// window (dispatch, or mid-window insertion by a restart sequence).
//
// TraceEnd's record summarizes the instruction's whole trip (see
// PipeRecord); it belongs to the machine and is valid only during the
// call, so a tracer that keeps it copies it.
type Tracer interface {
	TraceFetch(seq, pc uint64, in isa.Inst, cycle int64)
	TraceRename(seq uint64, cycle int64)
	TraceIssue(seq uint64, cycle int64)
	TraceComplete(seq uint64, cycle int64)
	TraceEnd(r *PipeRecord)
}

// squashDyn squashes one window entry. The window's squash is idempotent
// and recovery paths can revisit entries, so the guard mirrors
// window.squash's. The entry also leaves goldSync's verified prefix and
// releases its consumer list. The squash's TraceEnd comes from
// countWrongPath, which every squashed instruction passes exactly once.
func (m *machine) squashDyn(c *dyn) {
	if c.squashed || c.retired {
		return
	}
	m.dropGoldPrefix(c)
	m.win.squash(c)
	m.releaseConsumers(c)
}

// JSONLTracer writes one compact JSON line per dynamic instruction that
// reaches a terminal state (retire or squash), in terminal-event order —
// a deterministic order, since the simulation is. Each line encodes the
// TraceEnd record. Missing stages are omitted: an instruction squashed in
// the fetch buffer has no "rename"; one that never issued has no
// "issue"/"complete". "issue" and "complete" are the *last* such events;
// "issues" counts issue events (selective reissue makes it exceed 1).
type JSONLTracer struct {
	w   *bufio.Writer
	err error
}

// NewJSONLTracer returns a tracer emitting JSON lines to w. Call Flush
// when the run completes.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: bufio.NewWriter(w)}
}

// TraceFetch implements Tracer.
func (t *JSONLTracer) TraceFetch(seq, pc uint64, in isa.Inst, cycle int64) {}

// TraceRename implements Tracer.
func (t *JSONLTracer) TraceRename(seq uint64, cycle int64) {}

// TraceIssue implements Tracer.
func (t *JSONLTracer) TraceIssue(seq uint64, cycle int64) {}

// TraceComplete implements Tracer.
func (t *JSONLTracer) TraceComplete(seq uint64, cycle int64) {}

// TraceEnd implements Tracer.
func (t *JSONLTracer) TraceEnd(r *PipeRecord) {
	if t.err != nil {
		return
	}
	_, err := fmt.Fprintf(t.w, `{"seq":%d,"pc":"%#x","op":%q,"fetch":%d`, r.Seq, r.PC, r.Inst.String(), r.FetchC)
	if err == nil && r.RenameC >= 0 {
		_, err = fmt.Fprintf(t.w, `,"rename":%d`, r.RenameC)
	}
	if err == nil && r.IssueC >= 0 {
		_, err = fmt.Fprintf(t.w, `,"issue":%d,"issues":%d`, r.IssueC, r.Issues)
	}
	if err == nil && r.DoneC >= 0 {
		_, err = fmt.Fprintf(t.w, `,"complete":%d`, r.DoneC)
	}
	if err == nil {
		end := "retire"
		if r.Squashed {
			end = "squash"
		}
		_, err = fmt.Fprintf(t.w, `,"%s":%d}`+"\n", end, r.RetireC)
	}
	t.err = err
}

// Flush drains buffered output and reports the first write error.
// Instructions still in flight (fetched but never retired or squashed —
// possible when the run halts with live window entries) are not emitted.
func (t *JSONLTracer) Flush() error {
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// KanataTracer streams a Kanata 0004 log (the format Konata renders) as
// the simulation runs. It sees every fetched instruction and emits
// squashes as flush retirements, so wrong-path work is visible in the
// viewer. Stages: F (fetch), Dn (dispatch/rename), X (last issue), Cm
// (last completion). Streaming is valid because Tracer events arrive in
// non-decreasing cycle order.
type KanataTracer struct {
	w       *bufio.Writer
	started bool
	cur     int64
	nextID  int
	ids     map[uint64]int
	err     error
}

// NewKanataTracer returns a tracer streaming Kanata text to w. Call
// Flush when the run completes.
func NewKanataTracer(w io.Writer) *KanataTracer {
	return &KanataTracer{w: bufio.NewWriter(w), ids: make(map[uint64]int)}
}

func (t *KanataTracer) printf(format string, args ...interface{}) {
	if t.err != nil {
		return
	}
	if _, err := fmt.Fprintf(t.w, format, args...); err != nil {
		t.err = err
	}
}

// advance emits the header on first use and a C line when the cycle
// moved.
func (t *KanataTracer) advance(cycle int64) {
	if !t.started {
		t.started = true
		t.cur = cycle
		t.printf("Kanata\t0004\n")
		t.printf("C=\t%d\n", cycle)
		return
	}
	if cycle > t.cur {
		t.printf("C\t%d\n", cycle-t.cur)
		t.cur = cycle
	}
}

// TraceFetch implements Tracer.
func (t *KanataTracer) TraceFetch(seq, pc uint64, in isa.Inst, cycle int64) {
	t.advance(cycle)
	id := t.nextID
	t.nextID++
	t.ids[seq] = id
	t.printf("I\t%d\t%d\t0\n", id, seq)
	t.printf("L\t%d\t0\t%#x: %s\n", id, pc, in.String())
	t.printf("S\t%d\t0\tF\n", id)
}

func (t *KanataTracer) stage(seq uint64, cycle int64, name string) {
	id, ok := t.ids[seq]
	if !ok {
		return
	}
	t.advance(cycle)
	t.printf("S\t%d\t0\t%s\n", id, name)
}

// TraceRename implements Tracer.
func (t *KanataTracer) TraceRename(seq uint64, cycle int64) { t.stage(seq, cycle, "Dn") }

// TraceIssue implements Tracer.
func (t *KanataTracer) TraceIssue(seq uint64, cycle int64) { t.stage(seq, cycle, "X") }

// TraceComplete implements Tracer.
func (t *KanataTracer) TraceComplete(seq uint64, cycle int64) { t.stage(seq, cycle, "Cm") }

// TraceEnd implements Tracer: an R line, a commit (0) or a flush (1).
func (t *KanataTracer) TraceEnd(r *PipeRecord) {
	id, ok := t.ids[r.Seq]
	if !ok {
		return
	}
	delete(t.ids, r.Seq)
	t.advance(r.RetireC)
	flush := 0
	if r.Squashed {
		flush = 1
	}
	t.printf("R\t%d\t%d\t%d\n", id, id, flush)
}

// Flush drains buffered output and reports the first write error.
func (t *KanataTracer) Flush() error {
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// Histogram bucket bounds for the machine metrics. Fixed at compile time
// so snapshots from any two runs merge, and power-of-two-ish so the low
// end keeps resolution where the paper's distributions live.
var (
	occupancyBounds   = []int64{0, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512}
	fetchRetireBounds = []int64{4, 8, 16, 32, 64, 128, 256, 512, 1024}
	penaltyBounds     = []int64{1, 2, 4, 8, 16, 32, 64, 128}
	squashBounds      = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	issueBounds       = []int64{1, 2, 3, 4, 8, 16}
)

// machineMetrics holds the registry and pre-registered histogram handles
// the pipeline stages observe into (nil when CollectMetrics is off — the
// stages pay one pointer check).
type machineMetrics struct {
	reg              *metrics.Registry
	occupancy        *metrics.Histogram // live window entries, per cycle
	fetchToRetire    *metrics.Histogram // retire cycle - fetch cycle, per retired instr
	recoveryPenalty  *metrics.Histogram // restart-sequence length in cycles
	squashDepth      *metrics.Histogram // instructions discarded per serviced recovery
	issuesPerRetired *metrics.Histogram // issue events per retired instr (reissue = >1)
}

func newMachineMetrics() *machineMetrics {
	reg := metrics.New()
	return &machineMetrics{
		reg:              reg,
		occupancy:        reg.Histogram("ooo.window_occupancy", occupancyBounds),
		fetchToRetire:    reg.Histogram("ooo.fetch_to_retire_cycles", fetchRetireBounds),
		recoveryPenalty:  reg.Histogram("ooo.recovery_penalty_cycles", penaltyBounds),
		squashDepth:      reg.Histogram("ooo.squash_depth", squashBounds),
		issuesPerRetired: reg.Histogram("ooo.issues_per_retired", issueBounds),
	}
}

// finalize folds the end-of-run counters (cache, predictor, headline
// stats) into the registry and snapshots it. Called once, after the
// machine's Stats are complete.
func (x *machineMetrics) finalize(m *machine) *metrics.Snapshot {
	reg := x.reg
	reg.Counter("ooo.retired").Add(m.stats.Retired)
	reg.Counter("ooo.cycles").Add(uint64(m.stats.Cycles))
	reg.Counter("ooo.issues").Add(m.stats.Issues)
	reg.Counter("ooo.recoveries").Add(m.stats.Recoveries)
	reg.Counter("ooo.full_squashes").Add(m.stats.FullSquashes)
	reg.Counter("ooo.wrong_path_fetched").Add(m.stats.WrongPathFetched)
	reg.Counter("ooo.wrong_path_issues").Add(m.stats.WrongPathIssues)
	reg.Counter("ooo.mem_violations").Add(m.stats.MemViolations)
	reg.Counter("ooo.reg_violations").Add(m.stats.RegViolations)
	reg.Counter("ooo.ci_preserved").Add(m.stats.CIInstructions)
	reg.Counter("cache.data.accesses").Add(m.dcache.Accesses)
	reg.Counter("cache.data.misses").Add(m.dcache.Misses)
	reg.Counter("cache.data.evictions").Add(m.dcache.Evictions)
	if m.icache != nil {
		reg.Counter("cache.inst.accesses").Add(m.icache.Accesses)
		reg.Counter("cache.inst.misses").Add(m.icache.Misses)
		reg.Counter("cache.inst.evictions").Add(m.icache.Evictions)
	}
	reg.Counter("bpred.ctb.lookups").Add(m.ctb.Lookups)
	reg.Counter("bpred.ctb.hits").Add(m.ctb.Hits)
	reg.Counter("bpred.ctb.aliases").Add(m.ctb.Aliases)
	return reg.Snapshot()
}
