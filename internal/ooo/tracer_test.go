package ooo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cisim/internal/isa"
	"cisim/internal/workloads"
)

// recTracer records every trace event for invariant checking.
type recTracer struct {
	fetches  map[uint64]int
	terminal map[uint64]string
	retires  uint64
	lastC    int64
	badOrder bool
}

func newRecTracer() *recTracer {
	return &recTracer{fetches: map[uint64]int{}, terminal: map[uint64]string{}}
}

func (r *recTracer) at(c int64) {
	if c < r.lastC {
		r.badOrder = true
	}
	r.lastC = c
}

func (r *recTracer) TraceFetch(seq, pc uint64, in isa.Inst, c int64) { r.at(c); r.fetches[seq]++ }
func (r *recTracer) TraceRename(seq uint64, c int64)                 { r.at(c) }
func (r *recTracer) TraceIssue(seq uint64, c int64)                  { r.at(c) }
func (r *recTracer) TraceComplete(seq uint64, c int64)               { r.at(c) }
func (r *recTracer) TraceEnd(rec *PipeRecord) {
	r.at(rec.RetireC)
	if rec.Squashed {
		r.terminal[rec.Seq] += "Q"
		return
	}
	r.terminal[rec.Seq] += "R"
	r.retires++
}

// TestTracerInvariants checks the Tracer contract on a recovery-heavy CI
// run: one fetch per dynamic instruction, at most one terminal event,
// non-decreasing cycles, and retire events matching the retired count.
func TestTracerInvariants(t *testing.T) {
	w, _ := workloads.Get("xgo")
	p := w.Program(300)
	tr := newRecTracer()
	r, err := Run(p, Config{Machine: CI, WindowSize: 128, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.badOrder {
		t.Error("trace events arrived with a decreasing cycle")
	}
	if tr.retires != r.Stats.Retired {
		t.Errorf("retire events = %d, Stats.Retired = %d", tr.retires, r.Stats.Retired)
	}
	squashes := uint64(0)
	for seq, term := range tr.fetches {
		if term != 1 {
			t.Fatalf("seq %d fetched %d times", seq, term)
		}
	}
	for seq, term := range tr.terminal {
		if len(term) != 1 {
			t.Fatalf("seq %d has terminal events %q, want exactly one", seq, term)
		}
		if term == "Q" {
			squashes++
		}
		if tr.fetches[seq] == 0 {
			t.Fatalf("seq %d retired/squashed without a fetch", seq)
		}
	}
	if squashes == 0 {
		t.Error("a CI run with recoveries should squash wrong-path work")
	}
	if squashes != r.Stats.WrongPathFetched {
		t.Errorf("squash events = %d, Stats.WrongPathFetched = %d", squashes, r.Stats.WrongPathFetched)
	}
}

// TestJSONLTracerDeterministic runs the same traced simulation twice and
// requires byte-identical JSONL, with well-formed lines.
func TestJSONLTracerDeterministic(t *testing.T) {
	w, _ := workloads.Get("xgo")
	p := w.Program(200)
	run := func() string {
		var buf bytes.Buffer
		tr := NewJSONLTracer(&buf)
		if _, err := Run(p, Config{Machine: CI, WindowSize: 128, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("JSONL pipetrace differs across identical runs")
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if len(lines) < 100 {
		t.Fatalf("suspiciously short trace: %d lines", len(lines))
	}
	sawSquash := false
	for _, ln := range lines {
		var rec struct {
			Seq    uint64 `json:"seq"`
			PC     string `json:"pc"`
			Op     string `json:"op"`
			Fetch  *int64 `json:"fetch"`
			Retire *int64 `json:"retire"`
			Squash *int64 `json:"squash"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", ln, err)
		}
		if rec.Fetch == nil || rec.Op == "" || !strings.HasPrefix(rec.PC, "0x") {
			t.Fatalf("trace line missing fields: %q", ln)
		}
		if (rec.Retire == nil) == (rec.Squash == nil) {
			t.Fatalf("trace line needs exactly one terminal field: %q", ln)
		}
		if rec.Squash != nil {
			sawSquash = true
		}
	}
	if !sawSquash {
		t.Error("trace recorded no squashed instructions")
	}
}

// TestOneRecordStream ties the JSONL encoder to the recorder: the same
// run traced each way yields one stream, line i of the JSONL decoding to
// record i's identity, stage cycles, issue count and terminal kind.
func TestOneRecordStream(t *testing.T) {
	w, _ := workloads.Get("xgo")
	p := w.Program(200)
	cfg := Config{Machine: CI, WindowSize: 128}
	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	cfg.Tracer = jt
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := &PipeRecorder{}
	cfg.Tracer = rec
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(rec.Recs) {
		t.Fatalf("%d JSONL lines, %d records", len(lines), len(rec.Recs))
	}
	squashes := 0
	for i, ln := range lines {
		var j struct {
			Seq      uint64
			PC       string
			Fetch    int64
			Rename   *int64
			Issue    *int64
			Issues   int
			Complete *int64
			Retire   *int64
			Squash   *int64
		}
		if err := json.Unmarshal([]byte(ln), &j); err != nil {
			t.Fatalf("line %d %q: %v", i, ln, err)
		}
		or := func(p *int64) int64 {
			if p == nil {
				return -1
			}
			return *p
		}
		r := &rec.Recs[i]
		end, squashed := or(j.Retire), j.Squash != nil
		if squashed {
			end = *j.Squash
			squashes++
		}
		got := [...]int64{int64(j.Seq), j.Fetch, or(j.Rename), or(j.Issue), int64(j.Issues), or(j.Complete), end}
		want := [...]int64{int64(r.Seq), r.FetchC, r.RenameC, r.IssueC, int64(r.Issues), r.DoneC, r.RetireC}
		if got != want || j.PC != fmt.Sprintf("%#x", r.PC) || squashed != r.Squashed {
			t.Fatalf("line %d %q disagrees with record %+v", i, ln, *r)
		}
	}
	if squashes == 0 {
		t.Error("the run squashed nothing; the test needs both terminal kinds")
	}
}

// TestKanataTracerDeterministic checks the streamed Kanata log: stable
// across runs, correct header, and both commit and flush retirements.
func TestKanataTracerDeterministic(t *testing.T) {
	w, _ := workloads.Get("xcompress")
	p := w.Program(200)
	run := func() string {
		var buf bytes.Buffer
		tr := NewKanataTracer(&buf)
		if _, err := Run(p, Config{Machine: CI, WindowSize: 128, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("Kanata pipetrace differs across identical runs")
	}
	if !strings.HasPrefix(a, "Kanata\t0004\n") {
		t.Fatalf("missing Kanata header: %q", a[:40])
	}
	var commits, flushes int
	for _, ln := range strings.Split(a, "\n") {
		if strings.HasPrefix(ln, "R\t") {
			if strings.HasSuffix(ln, "\t1") {
				flushes++
			} else {
				commits++
			}
		}
	}
	if commits == 0 || flushes == 0 {
		t.Fatalf("want both commits and flushes, got %d/%d", commits, flushes)
	}
}

// TestMetricsSnapshotDeterministic checks the CollectMetrics path:
// identical snapshots across runs, counters consistent with Stats, and
// no behavioral difference against an uninstrumented run.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	w, _ := workloads.Get("xgo")
	p := w.Program(300)
	cfg := Config{Machine: CI, WindowSize: 128, CollectMetrics: true}
	r1, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1.Metrics)
	j2, _ := json.Marshal(r2.Metrics)
	if !bytes.Equal(j1, j2) {
		t.Fatal("metrics snapshots differ across identical runs")
	}

	counter := func(name string) uint64 {
		for _, c := range r1.Metrics.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %q missing from snapshot", name)
		return 0
	}
	if got := counter("ooo.retired"); got != r1.Stats.Retired {
		t.Errorf("ooo.retired = %d, Stats.Retired = %d", got, r1.Stats.Retired)
	}
	if got := counter("cache.data.accesses"); got != r1.Stats.CacheAccesses {
		t.Errorf("cache.data.accesses = %d, Stats.CacheAccesses = %d", got, r1.Stats.CacheAccesses)
	}
	hist := func(name string) *struct {
		Count uint64
		Sum   int64
	} {
		for _, h := range r1.Metrics.Histograms {
			if h.Name == name {
				return &struct {
					Count uint64
					Sum   int64
				}{h.Count, h.Sum}
			}
		}
		t.Fatalf("histogram %q missing from snapshot", name)
		return nil
	}
	// The halting cycle leaves the main loop at retirement, before the
	// occupancy accumulation point, so observations track OccupancySum's
	// population: one per non-final cycle.
	if occ := hist("ooo.window_occupancy"); occ.Count != uint64(r1.Stats.Cycles-1) || occ.Sum != int64(r1.Stats.OccupancySum) {
		t.Errorf("occupancy count/sum = %d/%d, want %d/%d",
			occ.Count, occ.Sum, r1.Stats.Cycles-1, r1.Stats.OccupancySum)
	}
	if f2r := hist("ooo.fetch_to_retire_cycles"); f2r.Count != r1.Stats.Retired {
		t.Errorf("fetch_to_retire count = %d, want %d", f2r.Count, r1.Stats.Retired)
	}
	if sq := hist("ooo.squash_depth"); sq.Count != r1.Stats.Recoveries {
		t.Errorf("squash_depth count = %d, want one observation per recovery (%d)",
			sq.Count, r1.Stats.Recoveries)
	}
	if ipr := hist("ooo.issues_per_retired"); ipr.Sum != int64(r1.Stats.Issues) {
		t.Errorf("issues_per_retired sum = %d, Stats.Issues = %d", ipr.Sum, r1.Stats.Issues)
	}

	// Observability must not perturb the simulation.
	plain, err := Run(p, Config{Machine: CI, WindowSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil {
		t.Error("metrics snapshot present without CollectMetrics")
	}
	if plain.Stats != r1.Stats {
		t.Errorf("CollectMetrics changed simulation results:\n%+v\n%+v", plain.Stats, r1.Stats)
	}
}
