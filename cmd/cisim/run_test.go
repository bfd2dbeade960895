package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"cisim/internal/api"
	"cisim/internal/exp"
	"cisim/internal/runner"
)

// TestCmdRunJobsDeterminism: `run all -json` output is byte-identical at
// -jobs 1 and -jobs 8. The cache is reset between runs so the second run
// really re-executes through the parallel scheduler instead of replaying
// memoized artifacts.
func TestCmdRunJobsDeterminism(t *testing.T) {
	runner.Artifacts.Reset()
	seq, err := capture(t, func() error {
		return cmdRun([]string{"-quick", "-json", "-jobs", "1", "all"})
	})
	if err != nil {
		t.Fatal(err)
	}
	runner.Artifacts.Reset()
	par, err := capture(t, func() error {
		return cmdRun([]string{"-quick", "-json", "-jobs", "8", "all"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("-jobs 8 output differs from -jobs 1 (len %d vs %d)", len(par), len(seq))
	}
	if !strings.Contains(seq, `"id": "table1"`) || !strings.Contains(seq, `"id": "fig17"`) {
		t.Error("run all -json missing experiments")
	}
}

// TestCmdRunIdentityMatrix pins the perf-rewrite acceptance bar end to
// end: `run -quick -json all` must be byte-identical across -jobs 1 and
// -jobs 8, cold and warm in-process caches, and cold and warm persistent
// stores, and across commits: the cold reference must hash to the "all"
// digest that perfbench/digests.json commits. The warm in-process legs
// are the shared-prep fast path — the second sweep replays the memoized
// ideal.Prep through RunPrepared (the prep-hit assertion below proves
// that path actually ran) — and the warm store leg replays results from
// disk after the in-memory cache is dropped, so a serialization or
// fingerprint bug cannot hide behind the memory cache.
func TestCmdRunIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("six full quick sweeps; the non-short run covers this")
	}
	sweep := func(args ...string) string {
		t.Helper()
		out, err := capture(t, func() error {
			return cmdRun(append([]string{"-quick", "-json"}, args...))
		})
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return out
	}
	runner.Artifacts.Reset()
	ref := sweep("-jobs", "1", "all")
	if got, want := sha256Hex(ref), committedDigest(t, "all"); got != want {
		t.Errorf("run -quick -json all hashes to %s, perfbench/digests.json commits %s", got, want)
	}

	events := t.TempDir() + "/warm.jsonl"
	if got := sweep("-jobs", "1", "-events", events, "all"); got != ref {
		t.Errorf("warm -jobs 1 differs from cold reference (len %d vs %d)", len(got), len(ref))
	}
	if k := cacheLookups(t, events); k[runner.KindPrep].Hits == 0 {
		t.Errorf("warm sweep recorded no prep hits; RunPrepared reuse not exercised: %+v", k)
	}
	if got := sweep("-jobs", "8", "all"); got != ref {
		t.Errorf("warm -jobs 8 differs from cold reference (len %d vs %d)", len(got), len(ref))
	}

	runner.Artifacts.Reset()
	if got := sweep("-jobs", "8", "all"); got != ref {
		t.Errorf("cold -jobs 8 differs from cold -jobs 1 (len %d vs %d)", len(got), len(ref))
	}

	dir := t.TempDir()
	runner.Artifacts.Reset()
	if got := sweep("-jobs", "4", "-cache-dir", dir, "all"); got != ref {
		t.Errorf("cold store-backed run differs (len %d vs %d)", len(got), len(ref))
	}
	// Drop the in-memory cache but keep the store: the next sweep must
	// rebuild byte-identical output from persisted results alone.
	runner.Artifacts.Reset()
	if got := sweep("-jobs", "4", "-cache-dir", dir, "all"); got != ref {
		t.Errorf("warm store-backed run differs (len %d vs %d)", len(got), len(ref))
	}
	runner.Artifacts.Reset()
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// committedDigest reads one result digest from the benchmark's
// perfbench/digests.json.
func committedDigest(t *testing.T, label string) string {
	t.Helper()
	data, err := os.ReadFile("../../perfbench/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var digests map[string]string
	if err := json.Unmarshal(data, &digests); err != nil {
		t.Fatal(err)
	}
	d, ok := digests[label]
	if !ok {
		t.Fatalf("perfbench/digests.json has no %q digest", label)
	}
	return d
}

// TestRenderOutcomesAggregatesErrors: one failing experiment makes the
// run error (non-zero exit from main) while the healthy experiments
// still print, and every failure is named.
func TestRenderOutcomesAggregatesErrors(t *testing.T) {
	e, ok := exp.Get("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	r, err := e.Run(exp.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []api.Outcome{
		{Exp: e, Result: r},
		{Exp: e, Err: errors.New("fig99/xgo: window underflow")},
		{Exp: e, Err: errors.New("fig99/xgcc: deadlock")},
	}
	out, err := capture(t, func() error {
		return renderOutcomes([]*exp.Experiment{e, e, e}, outcomes, false, false)
	})
	if err == nil {
		t.Fatal("failures must surface as an error")
	}
	for _, want := range []string{"2 of 3 experiments failed", "window underflow", "deadlock"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q: %v", want, err)
		}
	}
	if !strings.Contains(out, "Table 1: benchmark information") {
		t.Error("healthy experiment suppressed by a failing one")
	}
}

// TestCmdRunEvents: -events writes a JSONL stream covering the run
// lifecycle, job executions, and cache traffic.
func TestCmdRunEvents(t *testing.T) {
	f := t.TempDir() + "/events.jsonl"
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-quick", "-events", f, "table1"})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Ev   string  `json:"ev"`
			T    float64 `json:"t_ms"`
			Exp  string  `json:"exp"`
			Jobs int     `json:"jobs"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		counts[ev.Ev]++
		if ev.Ev == "run_start" && ev.Jobs != 5 {
			t.Errorf("run_start jobs = %d, want 5 (one per workload)", ev.Jobs)
		}
		if ev.Ev == "job_start" && ev.Exp != "table1" {
			t.Errorf("job_start exp = %q", ev.Exp)
		}
	}
	if counts["run_start"] != 1 || counts["run_end"] != 1 {
		t.Errorf("lifecycle events: %v", counts)
	}
	if counts["job_start"] != 5 || counts["job_end"] != 5 {
		t.Errorf("job events: %v", counts)
	}
	if counts["cache"] == 0 {
		t.Errorf("no cache events: %v", counts)
	}
}

// TestCmdRunCacheSharing: within one process, a second run of the same
// experiment is served from the artifact cache.
func TestCmdRunCacheSharing(t *testing.T) {
	runner.Artifacts.Reset()
	if _, err := capture(t, func() error { return cmdRun([]string{"-quick", "fig12"}) }); err != nil {
		t.Fatal(err)
	}
	events := t.TempDir() + "/second.jsonl"
	if _, err := capture(t, func() error { return cmdRun([]string{"-quick", "-events", events, "fig12"}) }); err != nil {
		t.Fatal(err)
	}
	k := cacheLookups(t, events)
	for kind, ks := range k {
		if ks.Misses != 0 {
			t.Errorf("second identical run missed the %s cache %d times", kind, ks.Misses)
		}
	}
	if k[runner.KindResult].Hits == 0 {
		t.Errorf("second identical run recorded no result hits: %+v", k)
	}
}

// cacheLookups reads an -events file and returns its cache lookups by
// artifact kind.
func cacheLookups(t *testing.T, path string) map[string]kindStat {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := analyzeEvents(f, path)
	if err != nil {
		t.Fatal(err)
	}
	return a.kinds
}
