package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// capture redirects stdout around f and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), ferr
}

func TestCmdList(t *testing.T) {
	out, err := capture(t, cmdList)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig17", "xgcc", "xvortex", "experiments:", "workloads:"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestCmdRunQuick(t *testing.T) {
	out, err := capture(t, func() error { return cmdRun([]string{"-quick", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mispredict rate") || !strings.Contains(out, "xcompress") {
		t.Errorf("run table1 output unexpected:\n%s", out)
	}
}

func TestCmdRunUnknown(t *testing.T) {
	if _, err := capture(t, func() error { return cmdRun([]string{"nope"}) }); err == nil {
		t.Error("unknown experiment should error")
	}
	if _, err := capture(t, func() error { return cmdRun(nil) }); err == nil {
		t.Error("missing id should error")
	}
}

func TestCmdSim(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdSim([]string{"-machine=CI", "-window=64", "-iters=100", "xvortex"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IPC", "recoveries serviced", "work saved"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdSimBadArgs(t *testing.T) {
	cases := [][]string{
		{"-machine=WAT", "xgo"},
		{"-completion=WAT", "xgo"},
		{"-reconv=WAT", "xgo"},
		{"nope"},
		{},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return cmdSim(args) }); err == nil {
			t.Errorf("cmdSim(%v) should error", args)
		}
	}
}

func TestCmdIdeal(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdIdeal([]string{"-model=WR-FD", "-window=64", "-iters=100", "xjpeg"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IPC=") || !strings.Contains(out, "WR-FD") {
		t.Errorf("ideal output unexpected: %s", out)
	}
}

func TestCmdIdealBadArgs(t *testing.T) {
	cases := [][]string{
		{"-model=WAT", "xgo"},
		{"nope"},
		{},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return cmdIdeal(args) }); err == nil {
			t.Errorf("cmdIdeal(%v) should error", args)
		}
	}
}

func TestCmdDisasm(t *testing.T) {
	out, err := capture(t, func() error { return cmdDisasm([]string{"xvortex"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main:", "0x00001000", "instructions, entry"} {
		if !strings.Contains(out, want) {
			t.Errorf("disasm output missing %q", want)
		}
	}
}

func TestCmdDisasmFile(t *testing.T) {
	f := t.TempDir() + "/p.s"
	src := "main:\n\tli r1, 3\nloop:\n\taddi r1, r1, -1\n\tbne r1, r0, loop\n\thalt\n"
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return cmdDisasm([]string{"-file", f}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "loop:") || !strings.Contains(out, "<loop>") {
		t.Errorf("disasm -file should print labels and branch targets:\n%s", out)
	}
}

func TestCmdAnalyze(t *testing.T) {
	out, err := capture(t, func() error { return cmdAnalyze([]string{"xcompress"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"basic blocks", "reconverges at", "branch sites"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTrace(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdTrace([]string{"-n", "10", "-iters", "50", "xgo"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "entries total") || !strings.Contains(out, "misprediction rate") {
		t.Errorf("trace output unexpected:\n%s", out)
	}
}

func TestCmdTraceMispOnly(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdTrace([]string{"-misp", "-n", "5", "-iters", "200", "xgo"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "0x0000") && !strings.Contains(line, "mispredicted") &&
			!strings.Contains(line, "entries total") {
			t.Errorf("-misp printed a non-mispredicted entry: %q", line)
		}
	}
}

func TestCmdInspectBadArgs(t *testing.T) {
	for _, f := range []func([]string) error{cmdDisasm, cmdAnalyze, cmdTrace} {
		if _, err := capture(t, func() error { return f([]string{"nope"}) }); err == nil {
			t.Error("unknown workload should error")
		}
		if _, err := capture(t, func() error { return f(nil) }); err == nil {
			t.Error("missing argument should error")
		}
		if _, err := capture(t, func() error { return f([]string{"-file", "/does/not/exist"}) }); err == nil {
			t.Error("missing file should error")
		}
	}
}

func TestCmdPipe(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdPipe([]string{"-n", "16", "-iters", "60", "-machine=CI", "xgo"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycle axis", "F fetch", "R retire"} {
		if !strings.Contains(out, want) {
			t.Errorf("pipe output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdPipeBadArgs(t *testing.T) {
	cases := [][]string{
		{"-machine=WAT", "xgo"},
		{"nope"},
		{},
		{"-start", "99999999", "-iters", "50", "xgo"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return cmdPipe(args) }); err == nil {
			t.Errorf("cmdPipe(%v) should error", args)
		}
	}
}

func TestCmdAnalyzeDynamic(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdAnalyze([]string{"-dynamic", "-iters", "300", "xgcc"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dynamic behaviour", "mispredicts", "avg wrong-path len"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze -dynamic missing %q:\n%s", want, out)
		}
	}
}

func TestCmdRunJSONAndCompare(t *testing.T) {
	out, err := capture(t, func() error { return cmdRun([]string{"-quick", "-json", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"id": "table1"`) {
		t.Fatalf("run -json output unexpected:\n%s", out)
	}
	dir := t.TempDir()
	f := dir + "/r.json"
	if err := os.WriteFile(f, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	same, err := capture(t, func() error { return cmdCompare([]string{f, f}) })
	if err != nil {
		t.Fatalf("identical files should compare clean: %v", err)
	}
	if !strings.Contains(same, "no differences") {
		t.Errorf("compare output unexpected: %q", same)
	}
	// Perturb one numeric cell and expect a non-nil error plus a report.
	perturbed := strings.Replace(out, `"xgcc",`, `"xgcc",`, 1)
	perturbed = regexpReplaceFirstNumber(perturbed)
	f2 := dir + "/r2.json"
	if err := os.WriteFile(f2, []byte(perturbed), 0o644); err != nil {
		t.Fatal(err)
	}
	diffOut, err := capture(t, func() error { return cmdCompare([]string{"-tol", "0.5", f, f2}) })
	if err == nil {
		t.Error("perturbed results should make compare fail")
	}
	if !strings.Contains(diffOut, "table1") {
		t.Errorf("diff report should name the experiment: %q", diffOut)
	}
}

// regexpReplaceFirstNumber bumps the first multi-digit numeric cell so the
// comparison sees a >0.5% move.
func regexpReplaceFirstNumber(s string) string {
	i := strings.Index(s, `"266140"`)
	if i < 0 {
		// Quick scale changes instruction counts; find any 5+ digit cell.
		for j := 0; j+7 < len(s); j++ {
			if s[j] == '"' && s[j+1] >= '1' && s[j+1] <= '9' {
				allDigits := true
				for k := j + 1; k < j+6; k++ {
					if s[k] < '0' || s[k] > '9' {
						allDigits = false
						break
					}
				}
				if allDigits {
					return s[:j+1] + "9" + s[j+1:]
				}
			}
		}
		return s
	}
	return strings.Replace(s, `"266140"`, `"366140"`, 1)
}

func TestCmdCompareBadArgs(t *testing.T) {
	if _, err := capture(t, func() error { return cmdCompare([]string{"one.json"}) }); err == nil {
		t.Error("compare with one file should error")
	}
	if _, err := capture(t, func() error { return cmdCompare([]string{"/no/such", "/files"}) }); err == nil {
		t.Error("compare with missing files should error")
	}
}

func TestCmdRunParallel(t *testing.T) {
	// -j parallelism must not change outputs or their order.
	seq, err := capture(t, func() error { return cmdRun([]string{"-quick", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	par, err := capture(t, func() error { return cmdRun([]string{"-quick", "-j", "4", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		// Drop the timing lines, which legitimately differ.
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "(") && strings.HasSuffix(l, ")") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if strip(seq) != strip(par) {
		t.Errorf("parallel run output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

func TestCmdDisasmSource(t *testing.T) {
	out, err := capture(t, func() error { return cmdDisasm([]string{"-source", "xcompress"}) })
	if err != nil {
		t.Fatal(err)
	}
	f := t.TempDir() + "/rt.s"
	if err := os.WriteFile(f, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	// The emitted source must itself load (full round trip via -file).
	if _, err := capture(t, func() error { return cmdDisasm([]string{"-file", f}) }); err != nil {
		t.Fatalf("re-assembling disasm -source output: %v", err)
	}
	if !strings.Contains(out, "main:") || !strings.Contains(out, ".data") {
		t.Errorf("source output missing structure:\n%s", out[:200])
	}
}

func TestCmdSimAblationFlags(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdSim([]string{"-machine=CI", "-window=64", "-iters=100",
			"-icache", "-fetch-taken=1", "-conservative-loads", "xgcc"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"instruction cache miss rate", "avg window occupancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdPipeSquashed(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdPipe([]string{"-squashed", "-machine=BASE", "-n", "200", "-iters", "100", "xgo"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "squashed") {
		t.Errorf("pipe -squashed should show squashed rows:\n%s", out[:300])
	}
}
