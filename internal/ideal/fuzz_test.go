package ideal

import (
	"reflect"
	"testing"

	"cisim/internal/isa"
	"cisim/internal/progen"
	"cisim/internal/trace"
)

// FuzzIdealSchedule runs a random progen program through a fuzzer-chosen
// model, window (1–1024) and width (1–16) and checks the invariants every
// model shares: every entry retires, in order; no cycle issues or retires
// more than width entries; no entry issues before its register and memory
// producers complete or retires before it completes itself; and a second
// run over the same Prep is identical. The seed corpus under
// testdata/fuzz covers each model once; explore beyond it with
// `go test -run '^$' -fuzz '^FuzzIdealSchedule$' ./internal/ideal`.
func FuzzIdealSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, model uint8, window uint16, width uint8, instrs uint16) {
		m := Model(int(model) % len(Models()))
		cfg := Config{
			Model:       m,
			WindowSize:  1 + int(window)%1024,
			Width:       1 + int(width)%16,
			RecordTimes: true,
		}
		tr, err := trace.Generate(progen.Generate(seed, progen.Config{}),
			trace.Options{MaxInstrs: 1 + uint64(instrs)%5000})
		if err != nil {
			t.Skip(err)
		}
		pre := Prepare(tr)
		r, err := RunPrepared(pre, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkSchedule(t, tr, cfg, r)
		again, err := RunPrepared(pre, cfg)
		if err != nil {
			t.Fatalf("%+v: second run: %v", cfg, err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("%+v: a second run over the same Prep differs", cfg)
		}
	})
}

// checkSchedule asserts the model-independent invariants of a recorded
// schedule.
func checkSchedule(t *testing.T, tr *trace.Trace, cfg Config, r Result) {
	t.Helper()
	n := len(tr.Entries)
	if r.Retired != uint64(n) || len(r.IssueCycle) != n || len(r.RetireCycle) != n {
		t.Fatalf("%+v: retired %d of %d (%d issue, %d retire times)",
			cfg, r.Retired, n, len(r.IssueCycle), len(r.RetireCycle))
	}
	done := func(i int32) int64 {
		lat := int64(isa.Latency(tr.Entries[i].Inst.Op))
		if isa.ClassOf(tr.Entries[i].Inst.Op) == isa.ClassLoad {
			lat++
		}
		return r.IssueCycle[i] + lat
	}
	issues := map[int64]int{}
	retires := map[int64]int{}
	for i := range tr.Entries {
		en := &tr.Entries[i]
		ic, rc := r.IssueCycle[i], r.RetireCycle[i]
		if rc <= 0 || rc > r.Cycles {
			t.Fatalf("%+v: entry %d retired at cycle %d of %d", cfg, i, rc, r.Cycles)
		}
		if i > 0 && rc < r.RetireCycle[i-1] {
			t.Fatalf("%+v: entry %d retired at %d, before entry %d at %d", cfg, i, rc, i-1, r.RetireCycle[i-1])
		}
		if d := done(int32(i)); rc <= d {
			t.Fatalf("%+v: entry %d retired at %d but completes at %d", cfg, i, rc, d)
		}
		for _, p := range []int32{en.DepReg[0], en.DepReg[1], en.DepMem} {
			if p != trace.NoDep && ic < done(p) {
				t.Fatalf("%+v: entry %d issued at %d before producer %d completes at %d", cfg, i, ic, p, done(p))
			}
		}
		issues[ic]++
		retires[rc]++
	}
	for c, k := range issues {
		if k > cfg.Width {
			t.Fatalf("%+v: %d issues in cycle %d", cfg, k, c)
		}
	}
	for c, k := range retires {
		if k > cfg.Width {
			t.Fatalf("%+v: %d retires in cycle %d", cfg, k, c)
		}
	}
}
