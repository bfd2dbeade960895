package ooo

import (
	"reflect"
	"testing"

	"cisim/internal/cache"
	"cisim/internal/progen"
)

// fuzzConfig maps the fuzzer's raw inputs onto a valid configuration: a
// segment size of 1–16, a window that is a multiple of it holding 2 to
// 512/segment segments, a width of 1–16, any completion model, and a
// bitmask of the machine's design alternatives.
func fuzzConfig(machine uint8, window uint16, width, segment, completion uint8, knobs uint16) Config {
	seg := []int{1, 2, 4, 8, 16}[segment%5]
	c := Config{
		Machine:     Machine(machine % 3),
		SegmentSize: seg,
		WindowSize:  seg * (2 + int(window)%(512/seg-1)),
		Width:       1 + int(width)%16,
		Completion:  Completion(completion % 4),
		Repredict:   Repredict(int(knobs>>3&3) % 3),

		ConfidenceDelay:         knobs&(1<<0) != 0,
		HideFalseMispredictions: knobs&(1<<1) != 0,
		OracleGlobalHistory:     knobs&(1<<2) != 0,
		ConservativeLoads:       knobs&(1<<8) != 0,
		BimodalPredictor:        knobs&(1<<11) != 0,
	}
	if knobs&(1<<5) != 0 {
		c.Preempt = PreemptSimple
	}
	if knobs&(1<<6) != 0 {
		c.Reconv.Return, c.Reconv.Loop, c.Reconv.Ltb = true, true, true
	}
	if knobs&(1<<7) != 0 {
		c.Reconv.Assoc = true
	}
	if knobs&(1<<9) != 0 {
		c.FetchTakenLimit = 1
	}
	if knobs&(1<<10) != 0 {
		c.ICache = cache.Config{Size: 4 << 10, Assoc: 2, LineSize: 32, HitLat: 1, MissLat: 10}
	}
	return c
}

// FuzzDetailedMachine runs a random progen program through a
// fuzzer-chosen detailed machine with Config.Check on, so every cycle
// revalidates the window, the rename and continuity invariants and the
// incremental structures against the scans they replace, and every
// retired instruction is compared with the functional emulator. The run
// must not fail or panic, must retire the whole golden stream, and a
// second run over the same Prep must produce identical Stats,
// misprediction events and pipeline records. The seed corpus under
// testdata/fuzz covers each machine; explore beyond it with
// `go test -run '^$' -fuzz '^FuzzDetailedMachine$' ./internal/ooo`.
func FuzzDetailedMachine(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, machine uint8, window uint16, width, segment, completion uint8, knobs uint16) {
		c := fuzzConfig(machine, window, width, segment, completion, knobs)
		c.Check = true
		c.RecordMisps = true
		p := progen.Generate(seed, progen.Config{})
		pre, err := Prepare(p, 0)
		if err != nil {
			t.Skip(err)
		}
		recs, recsAgain := &PipeRecorder{}, &PipeRecorder{}
		c.Tracer = recs
		r, err := RunPrepared(p, c, pre)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if r.Stats.Retired != uint64(pre.golden.n) {
			t.Fatalf("%+v: retired %d of %d golden instructions", c, r.Stats.Retired, pre.golden.n)
		}
		c.Tracer = recsAgain
		again, err := RunPrepared(p, c, pre)
		if err != nil {
			t.Fatalf("%+v: second run: %v", c, err)
		}
		if again.Stats != r.Stats {
			t.Fatalf("%+v: a second run over the same Prep differs:\n  first  %+v\n  second %+v", c, r.Stats, again.Stats)
		}
		if !reflect.DeepEqual(again.MispEvents, r.MispEvents) || !reflect.DeepEqual(recsAgain.Recs, recs.Recs) {
			t.Fatalf("%+v: a second run over the same Prep records different events or pipeline records", c)
		}
	})
}
