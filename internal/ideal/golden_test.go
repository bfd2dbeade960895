package ideal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cisim/internal/progen"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_timing.json from the current engine")

const goldenTimingFile = "testdata/golden_timing.json"

// goldenTiming is one pinned (program, model, window) schedule: the
// aggregate counters plus a digest of every entry's final issue and
// retire cycle, so a drift of a single cycle anywhere in the schedule
// shows up even where fig3's two-decimal IPC cannot see it.
type goldenTiming struct {
	Program        string `json:"program"`
	Model          string `json:"model"`
	Window         int    `json:"window"`
	Cycles         int64  `json:"cycles"`
	Squashed       uint64 `json:"squashed"`
	Evicted        uint64 `json:"evicted"`
	FloorsAttached uint64 `json:"floors_attached"`
	Times          string `json:"times_sha256"`
}

func (g goldenTiming) name() string {
	return fmt.Sprintf("%s/%s/window=%d", g.Program, g.Model, g.Window)
}

// goldenProgram is one trace of the golden set with the windows it is
// swept over; short marks the cases -short still checks.
type goldenProgram struct {
	name    string
	trace   func() (*trace.Trace, error)
	windows []int
	short   bool
}

// goldenPrograms lists the golden set: the five workloads at fig3's quick
// scale (iterations DefaultIters/10, at least 50; traces capped at 80k
// instructions) and ten progen programs like the differential test's.
func goldenPrograms() []goldenProgram {
	var ps []goldenProgram
	for i, w := range workloads.All() {
		iters := w.DefaultIters / 10
		if iters < 50 {
			iters = 50
		}
		ps = append(ps, goldenProgram{
			name: w.Name,
			trace: func() (*trace.Trace, error) {
				return trace.Generate(w.Program(iters), trace.Options{MaxInstrs: 80_000})
			},
			windows: []int{8, 32, 128, 512},
			short:   i == 0,
		})
	}
	for seed := int64(0); seed < 10; seed++ {
		ps = append(ps, goldenProgram{
			name: fmt.Sprintf("progen-%d", seed),
			trace: func() (*trace.Trace, error) {
				return trace.Generate(progen.Generate(seed, progen.Config{}), trace.Options{MaxInstrs: 60_000})
			},
			windows: []int{16, 64, 256},
			short:   seed < 2,
		})
	}
	return ps
}

// timesDigest hashes the per-entry issue cycles followed by the retire
// cycles, each as a little-endian int64.
func timesDigest(r Result) string {
	h := sha256.New()
	var b [8]byte
	for _, ts := range [][]int64{r.IssueCycle, r.RetireCycle} {
		for _, c := range ts {
			binary.LittleEndian.PutUint64(b[:], uint64(c))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTiming pins the ideal engine's schedules against a file
// generated by an earlier engine, so a rewrite of the scheduler has to
// reproduce every cycle count and every entry's issue and retire cycle.
// Regenerate with `go test ./internal/ideal -run TestGoldenTiming -update`
// only when a change to the models' timing is intended.
func TestGoldenTiming(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update rewrites the whole golden set; run it without -short")
	}
	var pinned map[string]goldenTiming
	if !*update {
		buf, err := os.ReadFile(goldenTimingFile)
		if err != nil {
			t.Fatalf("%v (generate it with -update)", err)
		}
		var want []goldenTiming
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatalf("%s: %v", goldenTimingFile, err)
		}
		pinned = make(map[string]goldenTiming, len(want))
		for _, w := range want {
			pinned[w.name()] = w
		}
	}
	var got []goldenTiming
	for _, gp := range goldenPrograms() {
		if testing.Short() && !gp.short {
			continue
		}
		tr, err := gp.trace()
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		pre := Prepare(tr)
		for _, win := range gp.windows {
			for _, m := range Models() {
				g := goldenTiming{Program: gp.name, Model: m.String(), Window: win}
				r, err := RunPrepared(pre, Config{Model: m, WindowSize: win, RecordTimes: true})
				if err != nil {
					t.Fatalf("%s: %v", g.name(), err)
				}
				g.Cycles, g.Squashed, g.Evicted = r.Cycles, r.Squashed, r.Evicted
				g.FloorsAttached, g.Times = r.FloorsAttached, timesDigest(r)
				got = append(got, g)
				if *update {
					continue
				}
				w, ok := pinned[g.name()]
				if !ok {
					t.Fatalf("%s: not in %s (regenerate with -update)", g.name(), goldenTimingFile)
				}
				if field, gv, wv := firstTimingDiff(g, w); field != "" {
					t.Fatalf("%s: %s = %v, golden %v", g.name(), field, gv, wv)
				}
			}
		}
	}
	if !*update {
		if !testing.Short() && len(got) != len(pinned) {
			t.Fatalf("checked %d schedules, %s pins %d", len(got), goldenTimingFile, len(pinned))
		}
		return
	}
	// One schedule per line keeps a regenerated file's diff readable.
	buf := []byte("[\n")
	for i, g := range got {
		line, err := json.Marshal(g)
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
	if err := os.MkdirAll(filepath.Dir(goldenTimingFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenTimingFile, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d schedules to %s", len(got), goldenTimingFile)
}

// firstTimingDiff names the first field where two schedules differ.
func firstTimingDiff(g, w goldenTiming) (string, interface{}, interface{}) {
	switch {
	case g.Cycles != w.Cycles:
		return "cycles", g.Cycles, w.Cycles
	case g.Squashed != w.Squashed:
		return "squashed", g.Squashed, w.Squashed
	case g.Evicted != w.Evicted:
		return "evicted", g.Evicted, w.Evicted
	case g.FloorsAttached != w.FloorsAttached:
		return "floors_attached", g.FloorsAttached, w.FloorsAttached
	case g.Times != w.Times:
		return "times_sha256", g.Times, w.Times
	}
	return "", nil, nil
}
