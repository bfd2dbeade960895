// Package lint is a small static-analysis framework for this repository,
// mirroring the shape of golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) on top of the standard library only: the build environment
// is offline, so the framework loads and type-checks packages itself (see
// load.go) instead of depending on x/tools.
//
// The repo-specific analyzers guard invariants the simulators and the
// service around them rely on:
//
//	keycover       every exported field of a cache-keyed Config must be
//	               referenced by its Key method, or the artifact cache
//	               serves stale results when a config field changes
//	               (internal/runner)
//	detrange       map iteration must not feed order-dependent sinks
//	               (appends, writers, hashes, channels) — the bug class
//	               behind the fig10 true/false-misprediction curve
//	               nondeterminism
//	simpure        simulator packages must not read wall-clock time,
//	               global random state, or the environment; runs must be
//	               reproducible from their inputs alone
//	recoverstack   recover() sites must capture the goroutine stack
//	               (debug.Stack/runtime.Stack), or a contained panic
//	               loses its crash site
//	hotalloc       model packages must not make(map[...]) outside
//	               constructors — the per-cycle loops were rewritten onto
//	               dense arrays/wheels/bitsets and transient maps must
//	               not creep back (internal/ooo, internal/ideal, ...)
//	lockguard      struct fields annotated `// guarded by <mu>` may only
//	               be accessed in scopes that hold that mutex (serve's
//	               Server/job, the artifact cache, the sweep scope, the
//	               journal, the faults registry)
//	goroleak       go statements in model/service packages need a
//	               visible termination path, so goroutines cannot
//	               outlive a serve drain
//	atomicmix      a variable touched via sync/atomic must be accessed
//	               atomically everywhere
//
// A diagnostic can be suppressed with a justification comment on the same
// line or the line immediately above the offending statement; the long
// spelling is accepted as an alias:
//
//	//lint:ignore detrange keys are sorted before emission
//	//lint:ignore-with-reason lockguard published via channel before sharing
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, in the style of x/tools' analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package via the Pass and reports diagnostics.
	Run func(*Pass)
	// Match, when non-nil, restricts the driver to packages whose import
	// path it accepts. Tests bypass it by running the analyzer directly.
	Match func(pkgPath string) bool
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Fset returns the file set positions in the package resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checking results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the package's type object.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with a resolved source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the repo's analyzer suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		KeyCover, DetRange, SimPure, RecoverStack, HotAlloc,
		LockGuard, GoroLeak, AtomicMix,
	}
}

// Run applies the analyzers to the packages, honouring each analyzer's
// Match policy and //lint:ignore suppressions, and returns the surviving
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			RunPackage(pkg, a, &out)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// RunPackage applies a single analyzer to a single package, appending its
// diagnostics after //lint:ignore suppression. It bypasses the analyzer's
// Match policy, which is the driver's concern; tests use it directly.
func RunPackage(pkg *Package, a *Analyzer, diags *[]Diagnostic) {
	var raw []Diagnostic
	a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &raw})
	ign := ignoredLines(pkg)
	for _, d := range raw {
		if !ign.suppresses(d) {
			*diags = append(*diags, d)
		}
	}
}

// ignoreSet maps filename -> line -> analyzer names suppressed there.
type ignoreSet map[string]map[int][]string

// ignoredLines scans the package's comments for //lint:ignore directives.
// A directive suppresses the named analyzers (comma-separated, or "all")
// on its own line and on the following line, so it can ride at the end of
// the offending statement or on a line of its own above it.
func ignoredLines(pkg *Package) ignoreSet {
	set := ignoreSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:ignore-with-reason")
				if !ok {
					rest, ok = strings.CutPrefix(text, "lint:ignore")
				}
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// A justification is required; a bare directive is
					// ignored so it cannot silently disable checks.
					continue
				}
				names := strings.Split(fields[0], ",")
				pos := pkg.Fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], names...)
			}
		}
	}
	return set
}

func (s ignoreSet) suppresses(d Diagnostic) bool {
	for _, name := range s[d.Pos.Filename][d.Pos.Line] {
		if name == d.Analyzer || name == "all" {
			return true
		}
	}
	return false
}
