package ooo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cisim/internal/cache"
	"cisim/internal/prog"
	"cisim/internal/progen"
	"cisim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_timing.json from the current engine")

const timingFile = "testdata/golden_timing.json"

// timingRow is one pinned (program, configuration) run of the detailed
// machine: the complete Stats plus digests of every misprediction event
// and every pipeline record, squashed ones included, so a drift of one
// cycle in any instruction's fetch, issue, completion, resolution or
// retirement shows up even where the experiments' rounded IPCs cannot
// see it.
type timingRow struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Stats   Stats  `json:"stats"`
	Misps   string `json:"misps_sha256"`
	Pipe    string `json:"pipe_sha256"`
}

func (r timingRow) name() string { return r.Program + "/" + r.Config }

// timingProgram is one program of the golden set with the windows its
// grid runs at; short marks the programs -short still checks.
type timingProgram struct {
	name      string
	program   func() *prog.Program
	maxInstrs uint64
	windows   [2]int
	short     bool
}

// timingPrograms lists the programs of the golden set's grid: the five
// workloads at the quick scale's iteration count, cut at 20k retired
// instructions, and ten progen programs run to completion.
func timingPrograms() []timingProgram {
	var ps []timingProgram
	for i, w := range workloads.All() {
		iters := w.DefaultIters / 10
		if iters < 50 {
			iters = 50
		}
		ps = append(ps, timingProgram{
			name:      w.Name,
			program:   func() *prog.Program { return w.Program(iters) },
			maxInstrs: 20_000,
			windows:   [2]int{128, 256},
			short:     i == 0,
		})
	}
	for seed := int64(0); seed < 10; seed++ {
		ps = append(ps, timingProgram{
			name:    fmt.Sprintf("progen-%d", seed),
			program: func() *prog.Program { return progen.Generate(seed, progen.Config{}) },
			windows: [2]int{32, 128},
			short:   seed < 2,
		})
	}
	return ps
}

// timingConfig is one labelled configuration of a program's golden runs.
type timingConfig struct {
	label string
	cfg   Config
}

// timingConfigs returns the grid — BASE, CI and CI-I under the four
// completion models at both windows — followed by single-knob rows on CI
// at the smaller window, one per mechanism the oracle features,
// completion gating, redispatch, preemption, reconvergence and segment
// granularity reach.
func timingConfigs(windows [2]int) []timingConfig {
	var cs []timingConfig
	for _, win := range windows {
		for _, mach := range []Machine{Base, CI, CIInstant} {
			for _, comp := range []Completion{SpecC, Spec, SpecD, NonSpec} {
				cs = append(cs, timingConfig{
					fmt.Sprintf("%v/%v/window=%d", mach, comp, win),
					Config{Machine: mach, Completion: comp, WindowSize: win},
				})
			}
		}
	}
	win := windows[0]
	knob := func(label string, c Config) {
		if c.Machine == Base {
			c.Machine = CI
		}
		c.WindowSize = win
		cs = append(cs, timingConfig{fmt.Sprintf("%v/%s/window=%d", c.Machine, label, win), c})
	}
	knob("confdelay", Config{ConfidenceDelay: true})
	knob("hfm", Config{HideFalseMispredictions: true})
	knob("oraclehist", Config{OracleGlobalHistory: true})
	knob("repredict-oracle", Config{Repredict: RepredictOracle})
	knob("repredict-none", Config{Repredict: RepredictNone})
	knob("preempt-simple", Config{Preempt: PreemptSimple})
	knob("reconv-heuristic", Config{Reconv: Reconv{Return: true, Loop: true, Ltb: true}})
	knob("reconv-assoc", Config{Reconv: Reconv{Assoc: true}})
	knob("segment=4", Config{SegmentSize: 4})
	knob("segment=16", Config{SegmentSize: 16})
	knob("consloads", Config{ConservativeLoads: true})
	knob("fetchtaken=1", Config{FetchTakenLimit: 1})
	knob("icache", Config{ICache: cache.Config{Size: 4 << 10, Assoc: 2, LineSize: 32, HitLat: 1, MissLat: 10}})
	knob("non-spec+hfm", Config{Machine: CIInstant, Completion: NonSpec, HideFalseMispredictions: true})
	return cs
}

// comboRows is the number of combination rows in the golden set;
// comboShort of them run under -short.
const comboRows, comboShort = 200, 4

// timingCombo is one combination row of the golden set: a progen seed
// and a configuration drawn through fuzzConfig, labelled with its
// fuzzConfig inputs so a failing row can be rerun as a fuzz input.
type timingCombo struct {
	seed int64
	timingConfig
}

// timingCombos draws the combination rows from a fixed RNG. Where the
// single-knob rows vary one mechanism on CI, these reach knob
// combinations on every machine: the associative search under CI-I and
// simple preemption, multi-instruction segments, narrow windows and
// widths.
func timingCombos() []timingCombo {
	r := rand.New(rand.NewSource(1))
	cs := make([]timingCombo, comboRows)
	for i := range cs {
		seed := r.Int63n(1 << 20)
		machine, window, width := uint8(r.Intn(1<<8)), uint16(r.Intn(1<<16)), uint8(r.Intn(1<<8))
		segment, completion, knobs := uint8(r.Intn(1<<8)), uint8(r.Intn(1<<8)), uint16(r.Intn(1<<12))
		cs[i] = timingCombo{seed, timingConfig{
			fmt.Sprintf("fuzzConfig(machine=%d,window=%d,width=%d,segment=%d,completion=%d,knobs=%#x)",
				machine, window, width, segment, completion, knobs),
			fuzzConfig(machine, window, width, segment, completion, knobs),
		}}
	}
	return cs
}

// mispDigest hashes every misprediction event's PC, history and false
// flag.
func mispDigest(evs []MispEvent) string {
	h := sha256.New()
	var b [13]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint64(b[0:], e.PC)
		binary.LittleEndian.PutUint32(b[8:], uint32(e.Hist))
		b[12] = 0
		if e.False {
			b[12] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pipeDigest hashes every pipeline record: sequence number, PC, the
// fetch, issue, completion, resolution and retire cycles, the issue count
// and the three flags. The instruction is a function of the PC and is
// left out, and so is RenameC, which the golden file predates.
func pipeDigest(recs []PipeRecord) string {
	h := sha256.New()
	var b [8*8 + 3]byte
	bit := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for i := range recs {
		r := &recs[i]
		for j, v := range []uint64{r.Seq, r.PC, uint64(r.FetchC), uint64(r.IssueC), uint64(r.DoneC),
			uint64(r.ResolveC), uint64(r.RetireC), uint64(r.Issues)} {
			binary.LittleEndian.PutUint64(b[8*j:], v)
		}
		b[64], b[65], b[66] = bit(r.Saved), bit(r.Reissued), bit(r.Squashed)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTiming pins the detailed machine's timing against a file
// generated by an earlier engine, so a rewrite of any stage has to
// reproduce every statistic, every misprediction event and every
// instruction's pipeline record. Regenerate with
// `go test ./internal/ooo -run TestGoldenTiming -update` only when a
// change to the machine's timing is intended.
func TestGoldenTiming(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update rewrites the whole golden set; run it without -short")
	}
	var pinned map[string]timingRow
	if !*update {
		buf, err := os.ReadFile(timingFile)
		if err != nil {
			t.Fatalf("%v (generate it with -update)", err)
		}
		var want []timingRow
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatalf("%s: %v", timingFile, err)
		}
		pinned = make(map[string]timingRow, len(want))
		for _, w := range want {
			pinned[w.name()] = w
		}
	}
	var got []timingRow
	check := func(program string, p *prog.Program, pre *Prep, label string, c Config) {
		t.Helper()
		c.MaxInstrs = pre.maxInstrs
		c.RecordMisps = true
		recs := &PipeRecorder{}
		c.Tracer = recs
		row := timingRow{Program: program, Config: label}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: golden check panic: %v", row.name(), r)
			}
		}()
		r, err := RunPrepared(p, c, pre)
		if err != nil {
			t.Fatalf("%s: %v", row.name(), err)
		}
		row.Stats, row.Misps, row.Pipe = r.Stats, mispDigest(r.MispEvents), pipeDigest(recs.Recs)
		got = append(got, row)
		if *update {
			return
		}
		w, ok := pinned[row.name()]
		if !ok {
			t.Fatalf("%s: not in %s (regenerate with -update)", row.name(), timingFile)
		}
		if field, gv, wv := firstRowDiff(row, w); field != "" {
			t.Fatalf("%s: %s = %v, golden %v", row.name(), field, gv, wv)
		}
	}
	for _, tp := range timingPrograms() {
		if testing.Short() && !tp.short {
			continue
		}
		p := tp.program()
		pre, err := Prepare(p, tp.maxInstrs)
		if err != nil {
			t.Fatalf("%s: %v", tp.name, err)
		}
		for _, tc := range timingConfigs(tp.windows) {
			check(tp.name, p, pre, tc.label, tc.cfg)
		}
	}
	for i, tc := range timingCombos() {
		if testing.Short() && i >= comboShort {
			break
		}
		name := fmt.Sprintf("progen-%d", tc.seed)
		p := progen.Generate(tc.seed, progen.Config{})
		pre, err := Prepare(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, p, pre, tc.label, tc.cfg)
	}
	if !*update {
		if !testing.Short() && len(got) != len(pinned) {
			t.Fatalf("checked %d runs, %s pins %d", len(got), timingFile, len(pinned))
		}
		return
	}
	// One run per line keeps a regenerated file's diff readable.
	buf := []byte("[\n")
	for i, row := range got {
		line, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		if i < len(got)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "]\n"...)
	if err := os.MkdirAll(filepath.Dir(timingFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(timingFile, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d runs to %s", len(got), timingFile)
}

// firstRowDiff names the first field where two runs differ: a Stats
// field by name, then the misprediction and pipeline digests.
func firstRowDiff(g, w timingRow) (string, interface{}, interface{}) {
	gs, ws := reflect.ValueOf(g.Stats), reflect.ValueOf(w.Stats)
	for i := 0; i < gs.NumField(); i++ {
		if gv, wv := gs.Field(i).Interface(), ws.Field(i).Interface(); gv != wv {
			return "stats." + gs.Type().Field(i).Name, gv, wv
		}
	}
	switch {
	case g.Misps != w.Misps:
		return "misps_sha256", g.Misps, w.Misps
	case g.Pipe != w.Pipe:
		return "pipe_sha256", g.Pipe, w.Pipe
	}
	return "", nil, nil
}
