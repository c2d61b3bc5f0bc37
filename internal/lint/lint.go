// Package lint is a repo-specific static-analysis suite for the Speed Kit
// reproduction. It proves, on every build, the two invariants the paper's
// claims rest on and that only discipline — not the compiler — otherwise
// protects:
//
//   - the GDPR boundary: shared-infrastructure packages (CDN, caches,
//     sketches, invalidation) never see identity-bearing code or types;
//   - clock and randomness discipline: all time and randomness flows
//     through injectable sources, so the Δ-atomicity and simulation
//     experiments stay deterministic and replayable.
//
// The engine is intentionally stdlib-only (go/parser, go/ast, go/types,
// go/importer): the build environment may be offline and the module keeps
// zero dependencies, so golang.org/x/tools/go/analysis is off the table.
// The shapes below mirror that framework loosely, which keeps a later
// migration mechanical.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check. Exactly one of Run and RunModule
// is set: Run analyzers see one package at a time, RunModule analyzers
// (the interprocedural ones) see every loaded package at once so they
// can build a whole-module call graph.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "gdprboundary".
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer pins.
	Doc string
	// Run inspects a package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module in one pass.
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax, library files first, then any
	// in-package _test.go files. Use IsTestFile to tell them apart.
	Files []*ast.File
	// Path is the package's import path. For fixture packages this is the
	// synthetic path the fixture was loaded under.
	Path string
	Pkg  *types.Package
	Info *types.Info

	testFiles map[*ast.File]bool
	report    func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// ModulePass carries a module-level analyzer's view of every loaded
// package. All packages share one FileSet by loader construction.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	report func(Diagnostic)
}

// Reportf records a finding at pos, resolved through fset (the shared
// FileSet of the packages under analysis).
func (p *ModulePass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical "file:line: [analyzer]
// message" form the driver prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		GDPRBoundary,
		ClockDiscipline,
		LockCheck,
		RandDiscipline,
		ObsLabels,
		PIIFlow,
	}
}

// Run applies every analyzer to every package, drops findings covered by
// a "//lint:ignore <analyzer> <reason>" directive, and returns the rest
// sorted by file, line, and analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, report: report})
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Path:      pkg.Path,
				Pkg:       pkg.Types,
				Info:      pkg.Info,
				testFiles: pkg.testFiles,
				report:    report,
			}
			a.Run(pass)
		}
	}
	diags = filterSuppressed(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// pathHasSegment reports whether the slash-separated import path contains
// seg as a consecutive run of segments ("internal/cache" matches
// "speedkit/internal/cache" but not "speedkit/internal/cachesketch").
func pathHasSegment(path, seg string) bool {
	parts := strings.Split(path, "/")
	want := strings.Split(seg, "/")
	for i := 0; i+len(want) <= len(parts); i++ {
		match := true
		for j := range want {
			if parts[i+j] != want[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
