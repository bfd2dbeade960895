package ideal

import (
	"testing"

	"cisim/internal/asm"
	"cisim/internal/prog"
	"cisim/internal/trace"
)

// falseDepSrc has the paper's Figure 1 false-dependence structure: r5 is
// written before the branch, overwritten only on the fall-through side,
// and read by control independent code whose value feeds the next
// iteration's branch — so an FD floor delays a later resolution.
const falseDepSrc = `
main:
	li r20, 4242
	li r21, 1103515245
	li r1, 500
	li r5, 7
loop:
	mul  r20, r20, r21
	addi r20, r20, 12345
	srli r22, r20, 16
	andi r23, r22, 1
	xor  r23, r23, r5      ; branch condition feeds from r5's chain
	andi r23, r23, 1
	beq  r23, r0, skip     ; ~50%: mispredicts often
	addi r5, r22, 0        ; fall-through side overwrites r5
skip:
	andi r5, r5, 255       ; control independent consumer of r5
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`

func TestFDFloorsBind(t *testing.T) {
	tr := mkTrace(t, falseDepSrc)
	if tr.Stats.CondMisp < 50 {
		t.Fatalf("workload mispredicts only %d times", tr.Stats.CondMisp)
	}
	fd := run(t, tr, NWRFD, 64)
	nfd := run(t, tr, NWRnFD, 64)
	t.Logf("nWR-nFD=%.3f nWR-FD=%.3f floors attached=%d bound=%d",
		nfd.IPC, fd.IPC, fd.FloorsAttached, fd.FloorsBound)
	if fd.FloorsAttached == 0 {
		t.Error("no false-dependence floors attached")
	}
	if fd.FloorsBound == 0 {
		t.Error("floors never delayed an issue")
	}
	// A slot counts as floor-bound at most once, and only a slot that
	// had a floor attached can be.
	if fd.FloorsBound > fd.FloorsAttached {
		t.Errorf("%d floor-bound slots exceed %d attached floors", fd.FloorsBound, fd.FloorsAttached)
	}
	if fd.IPC > nfd.IPC*1.01 {
		t.Errorf("FD model (%.3f) should not beat nFD (%.3f)", fd.IPC, nfd.IPC)
	}
}

func TestRecordTimesMonotonic(t *testing.T) {
	tr := mkTrace(t, diamondSrc)
	r, err := Run(tr, Config{Model: WRFD, WindowSize: 64, RecordTimes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RetireCycle) != len(tr.Entries) {
		t.Fatalf("retire times not recorded for all entries")
	}
	for i := 1; i < len(r.RetireCycle); i++ {
		if r.RetireCycle[i] < r.RetireCycle[i-1] {
			t.Fatalf("retire times not monotonic at %d: %d < %d",
				i, r.RetireCycle[i], r.RetireCycle[i-1])
		}
	}
	for i := range r.IssueCycle {
		if r.IssueCycle[i] >= r.RetireCycle[i] {
			t.Fatalf("entry %d issued at %d but retired at %d",
				i, r.IssueCycle[i], r.RetireCycle[i])
		}
	}
}

func TestEvictionUnderTinyWindowWithRestarts(t *testing.T) {
	// A misprediction-heavy trace with a tiny window forces restart
	// insertions to evict control independent instructions.
	tr := mkTrace(t, diamondSrc)
	r := run(t, tr, WRFD, 8)
	if r.Retired != uint64(len(tr.Entries)) {
		t.Fatalf("retired %d of %d", r.Retired, len(tr.Entries))
	}
	t.Logf("window 8: evicted=%d squashed=%d", r.Evicted, r.Squashed)
}

func TestOracleIgnoresMispredictions(t *testing.T) {
	tr := mkTrace(t, diamondSrc)
	or := run(t, tr, Oracle, 128)
	if or.Squashed != 0 || or.Evicted != 0 {
		t.Errorf("oracle charged wrong-path work: squashed=%d evicted=%d", or.Squashed, or.Evicted)
	}
}

// The trace's wrong-path annotations must never leak across models: two
// runs over the same trace give identical results (the engine must not
// mutate the trace).
func TestRunsAreRepeatable(t *testing.T) {
	tr := mkTrace(t, diamondSrc)
	for _, m := range Models() {
		a := run(t, tr, m, 64)
		b := run(t, tr, m, 64)
		if a.Cycles != b.Cycles || a.Squashed != b.Squashed {
			t.Errorf("%v not repeatable: %d/%d vs %d/%d cycles/squashed",
				m, a.Cycles, a.Squashed, b.Cycles, b.Squashed)
		}
	}
}

func TestWidthOneSerializes(t *testing.T) {
	tr, err := trace.Generate(mustProg(t), trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(tr, Config{Model: Oracle, WindowSize: 64, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC > 1.0 {
		t.Errorf("width-1 IPC = %.3f, cannot exceed 1", r.IPC)
	}
}

func mustProg(t *testing.T) *prog.Program {
	t.Helper()
	return asm.MustAssemble(straightLine(200))
}
