package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cisim/internal/lint"
	"cisim/internal/lint/linttest"
)

func TestKeyCover(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "keycover"), lint.KeyCover)
}

func TestDetRange(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "detrange"), lint.DetRange)
}

func TestSimPure(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "simpure"), lint.SimPure)
}

func TestRecoverStack(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "recoverstack"), lint.RecoverStack)
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "hotalloc"), lint.HotAlloc)
}

func TestLockGuard(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "lockguard"), lint.LockGuard)
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "goroleak"), lint.GoroLeak)
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "atomicmix"), lint.AtomicMix)
}

// TestGoroLeakMatch pins the package-path policy: model and service
// packages are in scope, demo examples are not.
func TestGoroLeakMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"cisim":                      true,
		"cisim/internal/serve":       true,
		"cisim/internal/runner":      true,
		"cisim/cmd/cisim":            true,
		"cisim/examples/serveclient": false,
	} {
		if got := lint.GoroLeak.Match(path); got != want {
			t.Errorf("GoroLeak.Match(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestHotAllocMatch pins the package-path policy: hot-path model packages
// are in scope; program generation, the harness, and drivers are not.
func TestHotAllocMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"cisim/internal/ooo":    true,
		"cisim/internal/ideal":  true,
		"cisim/internal/trace":  true,
		"cisim/internal/emu":    true,
		"cisim/internal/mem":    true,
		"cisim/internal/bpred":  true,
		"cisim/internal/cache":  true,
		"cisim/internal/cfg":    false,
		"cisim/internal/progen": false,
		"cisim/internal/runner": false,
		"cisim/cmd/cisim":       false,
	} {
		if got := lint.HotAlloc.Match(path); got != want {
			t.Errorf("HotAlloc.Match(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestRepoIsClean runs the full analyzer suite over the whole module, the
// same gate `make check` and CI apply via cmd/cisimlint: the tree must be
// free of keycover/detrange/simpure findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestSimPureMatch pins the package-path policy: model packages are in
// scope, drivers and the harness are not.
func TestSimPureMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"cisim/internal/ooo":       true,
		"cisim/internal/ideal":     true,
		"cisim/internal/emu":       true,
		"cisim/internal/bpred":     true,
		"cisim/internal/cache":     true,
		"cisim/internal/cfg":       true,
		"cisim/internal/progen":    true,
		"cisim/internal/workloads": true,
		"cisim/internal/check":     true,
		"cisim/internal/runner":    false,
		"cisim/cmd/cisim":          false,
		"cisim":                    false,
	} {
		if got := lint.SimPure.Match(path); got != want {
			t.Errorf("SimPure.Match(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestIgnoreWithReasonAlias pins the long directive spelling: it
// suppresses exactly like //lint:ignore, and like it demands a reason.
func TestIgnoreWithReasonAlias(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func f(m map[string]int) []string {
	var out []string
	//lint:ignore-with-reason detrange keys are sorted by the caller
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "linttest/aliasignore")
	if err != nil {
		t.Fatal(err)
	}
	var diags []lint.Diagnostic
	lint.RunPackage(pkg, lint.DetRange, &diags)
	if len(diags) != 0 {
		t.Fatalf("lint:ignore-with-reason with a reason did not suppress: %v", diags)
	}
}

// TestIgnoreRequiresReason pins that a bare //lint:ignore without a
// justification does not suppress anything: silencing a finding must cost
// an explanation.
func TestIgnoreRequiresReason(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func f(m map[string]int) []string {
	var out []string
	//lint:ignore detrange
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "linttest/bareignore")
	if err != nil {
		t.Fatal(err)
	}
	var diags []lint.Diagnostic
	lint.RunPackage(pkg, lint.DetRange, &diags)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "order-dependent sink") {
		t.Fatalf("bare lint:ignore suppressed the diagnostic: %v", diags)
	}
}
