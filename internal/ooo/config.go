// Package ooo implements the detailed, fully execution-driven superscalar
// simulator of Section 4 and Appendix A: a 16-wide machine with a
// segmented reorder buffer supporting selective squash and mid-window
// insertion (restart sequences), rename repair with re-prediction
// (redispatch sequences), selective reissue down dependence chains,
// speculative memory disambiguation with violation recovery, and the
// paper's branch-completion, preemption, re-prediction, and reconvergence
// design alternatives.
//
// Every in-flight instruction carries real operand values: wrong-path
// instructions compute real (wrong) results through store forwarding, so
// false mispredictions (§A.2) and false data dependences arise naturally
// rather than by annotation. At retirement the machine is checked
// instruction-by-instruction against a functional-emulator golden stream,
// which is the package's core correctness invariant.
package ooo

import (
	"fmt"
	"strings"

	"cisim/internal/cache"
)

// Machine selects the top-level processor model of Figure 5.
type Machine int

const (
	// Base squashes everything after a mispredicted branch (BASE).
	Base Machine = iota
	// CI exploits control independence with restart/redispatch (CI).
	CI
	// CIInstant is CI with single-cycle redispatch of all control
	// independent instructions after the restart completes (CI-I).
	CIInstant
)

func (m Machine) String() string {
	switch m {
	case Base:
		return "BASE"
	case CI:
		return "CI"
	case CIInstant:
		return "CI-I"
	}
	return ""
}

// Completion selects the branch completion model of §A.2.1.
type Completion int

const (
	// SpecC requires non-speculative (stable) operand data but allows
	// out-of-order branch completion: the paper's primary model (§A.2.1)
	// and therefore the zero value.
	SpecC Completion = iota
	// Spec completes branches whenever their operands are available.
	Spec
	// SpecD completes branches in order, with possibly speculative data.
	SpecD
	// NonSpec requires both in-order completion and stable data.
	NonSpec
)

func (c Completion) String() string {
	switch c {
	case Spec:
		return "spec"
	case SpecC:
		return "spec-C"
	case SpecD:
		return "spec-D"
	case NonSpec:
		return "non-spec"
	}
	return ""
}

// Repredict selects the redispatch re-prediction policy of §A.3.2.
type Repredict int

const (
	// RepredictHeuristic is the paper's CI policy: the predictor is
	// consulted with repaired history, but a branch in the completed
	// state forces the predictor.
	RepredictHeuristic Repredict = iota
	// RepredictNone (CI-NR) keeps initial predictions: no re-predict
	// sequences.
	RepredictNone
	// RepredictOracle (CI-OR) never overturns a correct prediction.
	RepredictOracle
)

func (r Repredict) String() string {
	switch r {
	case RepredictHeuristic:
		return "CI"
	case RepredictNone:
		return "CI-NR"
	case RepredictOracle:
		return "CI-OR"
	}
	return ""
}

// Preempt selects the multiple-misprediction policy of §A.1.
type Preempt int

const (
	// PreemptOptimal maintains state for all outstanding restart
	// sequences and resumes them in order (§A.1.2).
	PreemptOptimal Preempt = iota
	// PreemptSimple tracks only the most recent restart; a preemption
	// squashes the instructions following the current reconvergent
	// point (§A.1.1 CASE 3).
	PreemptSimple
)

func (p Preempt) String() string {
	switch p {
	case PreemptOptimal:
		return "optimal"
	case PreemptSimple:
		return "simple"
	}
	return ""
}

// Reconv selects how reconvergent points are identified (§3.2.1, §A.5).
type Reconv struct {
	// PostDom uses exact immediate post-dominator information (the
	// software-assisted approach of the primary results).
	PostDom bool
	// Return, Loop, Ltb enable the §A.5.2 hardware heuristics. They are
	// ignored when PostDom is set.
	Return, Loop, Ltb bool
	// Assoc enables the §A.5.1 associative-search technique: nothing is
	// squashed up front; as the restart fetches the correct path, each
	// incoming PC is compared against the instructions already in the
	// window after the branch, and the first match becomes the
	// reconvergent point. Ignored when PostDom is set.
	Assoc bool
}

func (r Reconv) String() string {
	if r.PostDom {
		return "postdom"
	}
	s := ""
	add := func(on bool, name string) {
		if on {
			if s != "" {
				s += "/"
			}
			s += name
		}
	}
	add(r.Return, "return")
	add(r.Loop, "loop")
	add(r.Ltb, "ltb")
	add(r.Assoc, "assoc")
	if s == "" {
		return "none"
	}
	return s
}

// Config parameterizes a detailed simulation.
type Config struct {
	Machine    Machine
	WindowSize int // total ROB entries (128/256/512 in the paper)
	Width      int // fetch/dispatch/issue/retire width; 0 = 16
	// SegmentSize is the ROB segment granularity (§A.4): 1, 4, or 16.
	// 0 means 1 (instruction granularity, the primary configuration).
	SegmentSize int

	Completion Completion
	Repredict  Repredict
	Preempt    Preempt
	Reconv     Reconv

	// ConservativeLoads disables speculative memory disambiguation: a
	// load may issue only once every older store in the window has
	// completed. The paper's simulator speculates and recovers
	// (Table 4's memory-order violation columns measure the cost);
	// this knob is the no-speculation alternative those columns argue
	// against. Restart sequences can still insert stores ahead of an
	// already-issued load on CI machines, so only BASE becomes fully
	// violation-free.
	ConservativeLoads bool

	// FetchTakenLimit bounds how many taken control transfers the front
	// end follows per cycle. 0 means unlimited — the ideal fetch unit
	// the paper assumes throughout (§4.1: "the fetch unit ... can
	// fetch past any number of branches"). Setting 1 models a
	// conventional single-taken-branch fetch unit, an ablation of that
	// assumption. Restart fill sequences are timed separately (§A.1.3)
	// and are not subject to the limit.
	FetchTakenLimit int

	// ConfidenceDelay enables the §A.2.2 hedge: a branch whose
	// prediction is assessed high-confidence is held from completing
	// while its operands are still speculative, hoping to avoid acting
	// on false mispredictions. (The paper found this unprofitable: too
	// many true mispredictions get delayed.)
	ConfidenceDelay bool

	// HideFalseMispredictions enables the HFM oracle (§A.2.1): a branch
	// whose computed outcome disagrees with its architecturally correct
	// outcome is held until its operands are repaired, so false
	// mispredictions never trigger recovery.
	HideFalseMispredictions bool

	// OracleGlobalHistory predicts each correct-path branch with its
	// architecturally correct global history (§A.3.1).
	OracleGlobalHistory bool

	// Cache configures the data cache; zero value selects the §4.1
	// cache (64KB 4-way, 2-cycle hit, 14-cycle miss).
	Cache cache.Config

	// ICache, when non-zero, models an instruction cache: a fetch group
	// ends at the first missing line and fetch stalls for the miss
	// latency. The zero value keeps the paper's ideal instruction
	// supply (§4.1 models no I-cache). Hits cost nothing extra — a
	// pipelined fetch unit hides hit latency. Restart fill sequences
	// fetch from the (already warm) region between branch and
	// reconvergent point and are timed separately (§A.1.3), so the
	// I-cache applies to sequential fetch only.
	ICache cache.Config

	// BimodalPredictor replaces gshare with a history-free bimodal
	// direction predictor. The paper raises this comparison in §A.3:
	// with corrupted global history and no re-predict sequences, gshare
	// can fall behind a simpler predictor.
	BimodalPredictor bool

	// GShareBits sizes the direction predictor (default 16, §2.2).
	GShareBits uint
	// TargetBits sizes the correlated target buffer (default 16).
	TargetBits uint

	// MaxInstrs bounds the retired instruction count (0 = run to halt).
	MaxInstrs uint64
	// MaxCycles guards against deadlock bugs (0 = generous default).
	MaxCycles int64

	// RecordMisps records every serviced recovery for the Figure 10
	// true/false misprediction analysis.
	RecordMisps bool

	// RecordPipeline records per-retired-instruction pipeline timing
	// (fetch/issue/complete/retire cycles, issue counts, CI-survivor
	// flags) into Result.Pipeline, for visualization ('cisim pipe') and
	// tests. PipelineLimit caps the recording (0 = 10,000 records).
	RecordPipeline bool
	PipelineLimit  int
	// RecordSquashed additionally records squashed (wrong-path or
	// displaced) instructions, stamped at their squash cycle — the work
	// that BASE throws away and CI preserves becomes visible in the
	// timeline and as flushes in the Kanata export.
	RecordSquashed bool

	// CollectMetrics fills Result.Metrics with a deterministic snapshot
	// of the run's counters and cycle-keyed histograms (window
	// occupancy, fetch-to-retire latency, recovery penalty, squash
	// depth, re-execution counts, cache and predictor counters). The
	// snapshot is a pure function of program and configuration, so
	// metric-collecting runs stay memoizable.
	CollectMetrics bool

	// Check enables expensive internal invariant checking (tests).
	Check bool

	// Tracer, when set, observes every dynamic instruction's pipeline
	// stage transitions (see the Tracer interface in tracer.go). It is an
	// observation hook with side effects outside the Result, so traced
	// runs are never memoized.
	Tracer Tracer

	// hookRecovery, when set, observes each serviced recovery (tests).
	hookRecovery func(m *machine, pr pendingRec)

	// refCheck, when set, runs the map-based pre-rewrite reference
	// implementations of the rename map, event schedule, and
	// reconvergence sets alongside the dense ones and cross-checks them
	// every cycle (refcheck.go; white-box tests only).
	refCheck bool
}

// Hook types are unexported; hookRecovery exists for white-box tests.

func (c *Config) defaults() {
	if c.Width == 0 {
		c.Width = 16
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = 1
	}
	if c.GShareBits == 0 {
		c.GShareBits = 16
	}
	if c.TargetBits == 0 {
		c.TargetBits = 16
	}
	if c.Cache == (cache.Config{}) {
		c.Cache = cache.DefaultDetailed()
	}
	if (c.Machine == CI || c.Machine == CIInstant) && c.Reconv == (Reconv{}) {
		c.Reconv.PostDom = true
	}
}

// Key returns a canonical encoding of the configuration with defaults
// applied, suitable for memoizing simulation results: two configurations
// that run identically produce the same key (e.g. SegmentSize 0 and 1, or
// an unset Reconv and an explicit PostDom on a CI machine). The second
// return is false when the configuration carries observation hooks
// (Tracer, recovery hooks) whose side effects make a cached result
// unfaithful; such runs must not be memoized.
//
// The encoding is spelled out field by field rather than dumped with
// %+v so it stays stable across Go versions and field reorderings, and
// so the keycover analyzer (internal/lint) can prove every exported
// field participates: a field missing here would make the artifact cache
// (internal/runner) serve one field-variant's result for another's.
func (c Config) Key() (string, bool) {
	if c.hookRecovery != nil || c.Tracer != nil {
		return "", false
	}
	d := c
	d.defaults()
	var b strings.Builder
	// Reconv prints via its String method, which canonicalizes the
	// PostDom-overrides-heuristics rule the simulator applies.
	fmt.Fprintf(&b, "machine=%v completion=%v repredict=%v preempt=%v reconv=%v",
		d.Machine, d.Completion, d.Repredict, d.Preempt, d.Reconv)
	fmt.Fprintf(&b, " window=%d width=%d segment=%d",
		d.WindowSize, d.Width, d.SegmentSize)
	fmt.Fprintf(&b, " consloads=%t fetchtaken=%d confdelay=%t hfm=%t oraclehist=%t",
		d.ConservativeLoads, d.FetchTakenLimit, d.ConfidenceDelay,
		d.HideFalseMispredictions, d.OracleGlobalHistory)
	fmt.Fprintf(&b, " cache=%+v icache=%+v bimodal=%t gshare=%d target=%d",
		d.Cache, d.ICache, d.BimodalPredictor, d.GShareBits, d.TargetBits)
	fmt.Fprintf(&b, " maxinstrs=%d maxcycles=%d misps=%t pipe=%t pipelimit=%d squashed=%t check=%t metrics=%t",
		d.MaxInstrs, d.MaxCycles, d.RecordMisps, d.RecordPipeline,
		d.PipelineLimit, d.RecordSquashed, d.Check, d.CollectMetrics)
	return b.String(), true
}

// Stats aggregates the measurements behind Figures 5-17 and Tables 2-4.
type Stats struct {
	Retired uint64
	Cycles  int64

	// Prediction behaviour (counted at resolution, like Table 1).
	CondBranches uint64
	Mispredicts  uint64 // true mispredictions serviced (recoveries)
	FalseMisp    uint64 // recoveries triggered by speculative operands

	// Restart/redispatch statistics (Table 2).
	Recoveries        uint64 // mispredictions serviced
	Reconverged       uint64 // recoveries with a reconvergent point in window
	RemovedCD         uint64 // incorrect control dependent instructions squashed
	InsertedCD        uint64 // correct control dependent instructions inserted
	CIInstructions    uint64 // control independent instructions preserved
	CINewNames        uint64 // CI instructions reissued due to new register names
	RestartCycles     uint64 // total cycles spent in restart sequences
	RedispatchWalked  uint64 // CI instructions walked by redispatch
	Preemptions       uint64
	Case3Preemptions  uint64
	FullSquashes      uint64 // recoveries without usable reconvergence
	EvictedCI         uint64 // CI squashed youngest-first for window space
	RepredictFlips    uint64 // re-predictions that redirected fetch
	RepredictOverturn uint64 // re-predictions that overturned a completed branch

	// Work accounting (Table 3), over retired instructions.
	FetchSaved    uint64 // retired instrs fetched before an older misprediction resolved
	WorkSaved     uint64 // ... and already holding their final value at resolution
	WorkDiscarded uint64 // ... issued before resolution but forced to reissue
	OnlyFetched   uint64 // ... fetched but never issued before resolution

	// Issue accounting (Table 4).
	Issues           uint64 // total issue events of retired instructions
	MemViolations    uint64 // load reissues due to memory-order violations
	RegViolations    uint64 // reissues due to register rename repairs
	WrongPathFetched uint64 // squashed (never-retired) instructions fetched
	WrongPathIssues  uint64 // issue events of squashed instructions

	CacheAccesses uint64
	CacheMisses   uint64

	// Instruction-cache accounting (zero unless Config.ICache is set).
	ICacheAccesses uint64
	ICacheMisses   uint64

	// OccupancySum accumulates the live window population each cycle;
	// AvgOccupancy derives the mean.
	OccupancySum uint64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// IssuesPerRetired returns Table 4's "instruction issues per retired
// instruction".
func (s *Stats) IssuesPerRetired() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Issues) / float64(s.Retired)
}

// ReconvRate returns the fraction of serviced mispredictions with a
// reconvergent point in the window (Table 2, column 1).
func (s *Stats) ReconvRate() float64 {
	if s.Recoveries == 0 {
		return 0
	}
	return float64(s.Reconverged) / float64(s.Recoveries)
}

// AvgOccupancy returns the mean number of live window entries per cycle.
func (s *Stats) AvgOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Cycles)
}
