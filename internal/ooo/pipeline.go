package ooo

import (
	"fmt"
	"strings"

	"cisim/internal/isa"
)

// PipeRecord captures one dynamic instruction's trip through the
// pipeline: the record Tracer.TraceEnd receives when the instruction
// retires or is squashed. Cycles are absolute simulation cycles; IssueC
// is the *last* issue (selective reissue means an instruction can issue
// several times — Issues counts them all).
type PipeRecord struct {
	Seq     uint64
	PC      uint64
	Inst    isa.Inst
	FetchC  int64
	RenameC int64 // entry into the window; -1 if it never entered
	IssueC  int64 // last issue; -1 if the instruction never issued
	DoneC   int64 // completion (result available); -1 if it never completed
	// ResolveC is the cycle a control instruction's outcome completed
	// under the configured completion model (§A.2.1 gating); -1 for
	// non-control instructions.
	ResolveC int64
	RetireC  int64
	Issues   int
	// Saved marks a control independent survivor: the instruction was
	// preserved across at least one recovery (Table 3's population).
	Saved bool
	// Reissued marks a survivor that was forced to reissue afterwards
	// (new register names or violated memory speculation).
	Reissued bool
	// Squashed marks wrong-path (or displaced) work; RetireC is then the
	// squash cycle.
	Squashed bool
}

// PipeRecorder is a Tracer that keeps every TraceEnd record in terminal
// order, squashed ones included, for the ASCII timeline ('cisim pipe')
// and tests. It has no limit: bound a long run with Config.MaxInstrs.
type PipeRecorder struct {
	Recs []PipeRecord
}

// TraceFetch implements Tracer.
func (*PipeRecorder) TraceFetch(seq, pc uint64, in isa.Inst, cycle int64) {}

// TraceRename implements Tracer.
func (*PipeRecorder) TraceRename(seq uint64, cycle int64) {}

// TraceIssue implements Tracer.
func (*PipeRecorder) TraceIssue(seq uint64, cycle int64) {}

// TraceComplete implements Tracer.
func (*PipeRecorder) TraceComplete(seq uint64, cycle int64) {}

// TraceEnd implements Tracer.
func (p *PipeRecorder) TraceEnd(r *PipeRecord) { p.Recs = append(p.Recs, *r) }

// traceEnd reports d's terminal event to the tracer: its retirement, or
// its squash when squashed is set, at the current cycle. The record is
// the machine's own and is refilled for every call.
func (m *machine) traceEnd(d *dyn, squashed bool) {
	issueC := d.lastIssueC
	if d.issues == 0 {
		issueC = -1
	}
	resolveC := int64(-1)
	if d.isCtl && d.ctlDone {
		resolveC = d.ctlDoneC
	}
	m.endRec = PipeRecord{
		Seq:      d.seq,
		PC:       d.pc,
		Inst:     d.inst,
		FetchC:   d.fetchC,
		RenameC:  d.renameC,
		IssueC:   issueC,
		DoneC:    d.doneC,
		ResolveC: resolveC,
		RetireC:  m.cycle,
		Issues:   d.issues,
		Saved:    d.saved != savedNo,
		Reissued: d.reissuedAfter,
		Squashed: squashed,
	}
	m.trc.TraceEnd(&m.endRec)
}

// RenderPipeline draws records as an ASCII timeline, one row per
// instruction:
//
//	F  fetch            .  in flight
//	I  (last) issue     =  executing
//	C  complete         R  retire (Q: squashed at that cycle)
//
// The time axis starts at the first record's fetch cycle; rows that
// extend past width columns are truncated with '>'. Instructions that
// issued more than once are annotated with the issue count, and control
// independent survivors of a recovery with 's' (or 'r' when they were
// also forced to reissue).
func RenderPipeline(recs []PipeRecord, width int) string {
	if len(recs) == 0 {
		return "(no pipeline records)\n"
	}
	if width <= 0 {
		width = 80
	}
	base := recs[0].FetchC
	for i := range recs {
		if recs[i].FetchC < base {
			base = recs[i].FetchC
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycle axis: %d .. %d (one column per cycle)\n", base, base+int64(width)-1)
	for i := range recs {
		r := &recs[i]
		row := make([]byte, 0, width)
		put := func(c int64, ch byte, fill byte) {
			col := int(c - base)
			if c < 0 || col < 0 {
				return
			}
			if col >= width {
				// Fill to the edge and mark truncation there.
				for len(row) < width {
					row = append(row, fill)
				}
				row[width-1] = '>'
				return
			}
			for len(row) < col {
				row = append(row, fill)
			}
			if len(row) == col {
				row = append(row, ch)
			} else {
				row[col] = ch
			}
		}
		put(r.FetchC, 'F', ' ')
		put(r.IssueC, 'I', '.')
		put(r.DoneC, 'C', '=')
		if r.Squashed {
			put(r.RetireC, 'Q', '.') // squashed at this cycle
		} else {
			put(r.RetireC, 'R', '.')
		}
		note := ""
		if r.Issues > 1 {
			note = fmt.Sprintf(" x%d", r.Issues)
		}
		if r.Reissued {
			note += " r"
		} else if r.Saved {
			note += " s"
		}
		if r.Squashed {
			note += " squashed"
		}
		line := fmt.Sprintf("%6d %#08x %-24s %-*s%s", r.Seq, r.PC, r.Inst.String(), width, row, note)
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
	return b.String()
}
