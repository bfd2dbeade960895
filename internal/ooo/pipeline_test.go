package ooo

import (
	"reflect"
	"strings"
	"testing"

	"cisim/internal/isa"
	"cisim/internal/workloads"
)

// record runs src like runSrc with a PipeRecorder attached and returns
// the result and every terminal record, squashed ones included.
func record(t *testing.T, src string, c Config) (*Result, []PipeRecord) {
	t.Helper()
	rec := &PipeRecorder{}
	c.Tracer = rec
	return runSrc(t, src, c), rec.Recs
}

// retiredOnly drops the squashed records.
func retiredOnly(recs []PipeRecord) []PipeRecord {
	var out []PipeRecord
	for _, r := range recs {
		if !r.Squashed {
			out = append(out, r)
		}
	}
	return out
}

func TestRecordPipelineTimestamps(t *testing.T) {
	r, recs := record(t, tinyLoop, Config{Machine: Base, WindowSize: 64})
	recs = retiredOnly(recs)
	if uint64(len(recs)) != r.Stats.Retired {
		t.Fatalf("recorded %d, retired %d", len(recs), r.Stats.Retired)
	}
	var prevRetire int64
	for i := range recs {
		p := &recs[i]
		if p.Issues < 1 {
			t.Fatalf("record %d: retired without issuing (%v)", i, p.Inst)
		}
		if p.FetchC >= p.RenameC || p.RenameC >= p.IssueC || p.IssueC > p.DoneC || p.DoneC >= p.RetireC {
			t.Errorf("record %d: non-causal timing F=%d D=%d I=%d C=%d R=%d",
				i, p.FetchC, p.RenameC, p.IssueC, p.DoneC, p.RetireC)
		}
		if p.RetireC < prevRetire {
			t.Errorf("record %d: retirement went backwards (%d after %d)",
				i, p.RetireC, prevRetire)
		}
		prevRetire = p.RetireC
	}
}

// TestRecordPipelineLimit bounds a recording with MaxInstrs: the bounded
// run records exactly what the unbounded one does up to its last
// retirement, which is what 'cisim pipe' relies on.
func TestRecordPipelineLimit(t *testing.T) {
	_, full := record(t, tinyLoop, Config{Machine: Base, WindowSize: 64})
	_, cut := record(t, tinyLoop, Config{Machine: Base, WindowSize: 64, MaxInstrs: 10})
	if n := len(retiredOnly(cut)); n != 10 {
		t.Errorf("recorded %d retirements, want the 10-instruction bound", n)
	}
	if len(retiredOnly(full)) <= 10 {
		t.Fatal("program too short to exercise the bound")
	}
	if !reflect.DeepEqual(cut, full[:len(cut)]) {
		t.Error("the bounded run's records differ from the unbounded run's prefix")
	}
}

func TestRecordPipelineSurvivors(t *testing.T) {
	// The LCG diamond preserves CI instructions across restarts; the
	// join block's consumers reissue from new names. Both flags must
	// show up in the records and agree with the Stats totals.
	r, recs := record(t, lcgDiamond, Config{Machine: CI, WindowSize: 128})
	recs = retiredOnly(recs)
	var saved, reissued, multiIssue int
	for i := range recs {
		p := &recs[i]
		if p.Saved {
			saved++
		}
		if p.Reissued {
			reissued++
			if !p.Saved {
				t.Errorf("record %d: Reissued implies Saved", i)
			}
		}
		if p.Issues > 1 {
			multiIssue++
		}
	}
	if saved == 0 || reissued == 0 || multiIssue == 0 {
		t.Errorf("want CI survivor traffic in records: saved=%d reissued=%d multiIssue=%d",
			saved, reissued, multiIssue)
	}
	if uint64(saved) != r.Stats.FetchSaved {
		t.Errorf("saved records %d != FetchSaved %d", saved, r.Stats.FetchSaved)
	}
}

func TestRenderPipeline(t *testing.T) {
	recs := []PipeRecord{
		{Seq: 1, PC: 0x1000, Inst: isa.Inst{Op: isa.ADDI, Rd: 1, Rs1: 0, Imm: 5},
			FetchC: 10, IssueC: 12, DoneC: 13, RetireC: 15, Issues: 1},
		{Seq: 2, PC: 0x1004, Inst: isa.Inst{Op: isa.MUL, Rd: 2, Rs1: 1, Rs2: 1},
			FetchC: 10, IssueC: 14, DoneC: 17, RetireC: 18, Issues: 3, Saved: true, Reissued: true},
	}
	out := RenderPipeline(recs, 40)
	if !strings.Contains(out, "cycle axis: 10 .. 49") {
		t.Errorf("missing cycle axis line:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	for _, marker := range []string{"F", "I", "C", "R"} {
		if !strings.Contains(lines[1], marker) {
			t.Errorf("row 1 missing %s marker: %q", marker, lines[1])
		}
	}
	if !strings.Contains(lines[2], "x3") || !strings.Contains(lines[2], " r") {
		t.Errorf("row 2 should be annotated with issue count and reissue flag: %q", lines[2])
	}
	// Row 1: F at col 0, I at col 2, C at col 3, R at col 5.
	if !strings.Contains(lines[1], "F.IC.R") {
		t.Errorf("row 1 timeline wrong: %q", lines[1])
	}
}

func TestRenderPipelineTruncation(t *testing.T) {
	recs := []PipeRecord{
		{Seq: 1, PC: 0x1000, Inst: isa.Inst{Op: isa.NOP},
			FetchC: 0, IssueC: 2, DoneC: 3, RetireC: 500, Issues: 1},
	}
	out := RenderPipeline(recs, 20)
	if !strings.Contains(out, ">") {
		t.Errorf("off-axis retire should truncate with '>':\n%s", out)
	}
	if RenderPipeline(nil, 20) != "(no pipeline records)\n" {
		t.Error("empty input should render a placeholder")
	}
}

func TestRenderPipelineNeverIssued(t *testing.T) {
	// IssueC = -1 (never issued) must not place an I marker before fetch.
	recs := []PipeRecord{
		{Seq: 1, PC: 0x1000, Inst: isa.Inst{Op: isa.NOP},
			FetchC: 5, IssueC: -1, DoneC: -1, RetireC: 9, Issues: 0},
	}
	out := RenderPipeline(recs, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Contains(lines[1], "I") || strings.Contains(lines[1], "C") {
		t.Errorf("unissued instruction should not show I/C markers: %q", lines[1])
	}
}

func TestResolveOrderUnderCompletionModels(t *testing.T) {
	// §A.2.1: spec-D and non-spec complete branches in order, so on the
	// BASE machine (no mid-window insertion) retired conditional branches
	// must carry non-decreasing ResolveC. Fully speculative completion
	// must actually resolve out of order somewhere, or the models would
	// be indistinguishable.
	w, _ := workloads.Get("xgcc")
	p := w.Program(300)
	resolves := func(cm Completion) []int64 {
		recs := &PipeRecorder{}
		runProg(t, p, Config{
			Machine: Base, WindowSize: 256, Completion: cm, Check: true, Tracer: recs,
		})
		var out []int64
		for _, rec := range retiredOnly(recs.Recs) {
			if rec.Inst.IsCondBranch() {
				if rec.ResolveC < 0 {
					t.Fatalf("%v: retired branch without ResolveC", cm)
				}
				out = append(out, rec.ResolveC)
			} else if rec.ResolveC >= 0 && !rec.Inst.IsControl() {
				t.Fatalf("%v: non-control %v has ResolveC", cm, rec.Inst)
			}
		}
		return out
	}
	outOfOrder := func(rs []int64) int {
		n := 0
		for i := 1; i < len(rs); i++ {
			if rs[i] < rs[i-1] {
				n++
			}
		}
		return n
	}
	for _, cm := range []Completion{SpecD, NonSpec} {
		rs := resolves(cm)
		if len(rs) == 0 {
			t.Fatalf("%v: no branches retired", cm)
		}
		if n := outOfOrder(rs); n != 0 {
			t.Errorf("%v: %d out-of-order branch resolutions; the model is in-order", cm, n)
		}
	}
	if n := outOfOrder(resolves(Spec)); n == 0 {
		t.Error("spec never resolved a branch out of order on xgcc; gating suspiciously strict")
	}
}

func TestRecordSquashed(t *testing.T) {
	r, recs := record(t, lcgDiamond, Config{Machine: Base, WindowSize: 128})
	var squashed, retired int
	for i := range recs {
		rec := &recs[i]
		if rec.Squashed {
			squashed++
			if rec.Saved {
				t.Errorf("record %d: squashed work cannot be a CI survivor", i)
			}
		} else {
			retired++
		}
	}
	if uint64(retired) != r.Stats.Retired {
		t.Errorf("retired records %d != Stats.Retired %d", retired, r.Stats.Retired)
	}
	if uint64(squashed) != r.Stats.WrongPathFetched {
		t.Errorf("squashed records %d != WrongPathFetched %d",
			squashed, r.Stats.WrongPathFetched)
	}
	if squashed == 0 {
		t.Fatal("BASE on the diamond must squash wrong-path work")
	}

	// The CI machine preserves most of the join block: squashed counts
	// must drop sharply for the same program.
	_, ciRecs := record(t, lcgDiamond, Config{Machine: CI, WindowSize: 128})
	ciSquashed := len(ciRecs) - len(retiredOnly(ciRecs))
	if ciSquashed*2 > squashed {
		t.Errorf("CI squashed %d records, BASE %d; selective squash should save most",
			ciSquashed, squashed)
	}
}

// TestKanataFlushLines: the timeline marks a squashed record with Q and
// an annotation.
func TestKanataFlushLines(t *testing.T) {
	recs := []PipeRecord{
		{Seq: 1, PC: 0x1000, Inst: isa.Inst{Op: isa.ADDI, Rd: 1},
			FetchC: 3, IssueC: 5, DoneC: 6, RetireC: 8, Issues: 1},
		{Seq: 2, PC: 0x1004, Inst: isa.Inst{Op: isa.ADDI, Rd: 2},
			FetchC: 3, IssueC: 5, DoneC: 6, RetireC: 7, Issues: 1, Squashed: true},
	}
	txt := RenderPipeline(recs, 20)
	if !strings.Contains(txt, "Q") || !strings.Contains(txt, "squashed") {
		t.Errorf("timeline missing squash markers:\n%s", txt)
	}
}
