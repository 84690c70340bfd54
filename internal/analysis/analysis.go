// Package analysis is the engine's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic, an analysistest-style golden runner)
// plus project-specific analyzers that codify invariants the execution
// engine relies on but the compiler cannot check:
//
//   - swallowederr — no discarded error or trailing failure-flag returns in
//     engine packages (the PR 4 runScalarReduce/Diag bug class).
//   - lockedmeta — dimension metadata marked grblint:guarded is written only
//     under the object lock and never read bare from deferred closures (the
//     PR 4 Resize race class).
//   - faultsite — kernel fault-injection sites are constant, dotted,
//     namespaced literals that stay in sync with the canonical
//     faults.KernelSites list.
//   - spanlife — every obs.Begin span reaches obs.Emit or an ownership
//     handoff on every return path.
//   - atomicmix — no field is accessed both through sync/atomic calls and
//     plain loads/stores.
//   - idxshare — inside the sparse package, one vector takes another's
//     index list only through the helper that counts its holders.
//
// The paper's Section V demands every method report a defined GrB_Info
// outcome; Section VIII validates the design against a reference
// implementation. This package is the same idea applied to the engine's own
// implicit contracts: checkable, not just tested. The x/tools module is
// deliberately not a dependency — the loader (load.go) drives `go list
// -export` and the standard library's gc importer instead, so the suite
// builds offline with the toolchain alone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Mirrors the x/tools type of the
// same name: Run is invoked once per loaded package with a fresh Pass.
// Analyzers that need cross-package state (faultsite) allocate it in their
// constructor closure and surface whole-run conclusions from Finish, which
// the driver calls after every package has been visited.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish, if non-nil, runs after all packages and returns diagnostics
	// derived from cross-package state (e.g. declared-but-unused fault sites).
	Finish func() []Diagnostic
}

// Pass carries one package's syntax and type information to an analyzer,
// plus the Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, the analyzer that raised it, and a
// one-line message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Finding is a resolved diagnostic, positioned against the file set — the
// driver's output unit and the -json schema.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Suppression is one //grblint:ignore directive found in the analyzed tree:
// where it sits, the analyzer it silences, the justification text, and
// whether this run actually honored it (an unused directive is stale — the
// finding it once silenced no longer fires, so it should be deleted or the
// code it annotates has drifted out from under it). The -report and -json
// modes of cmd/grblint expose the full inventory so suppressions are audited
// in review rather than accreting silently.
type Suppression struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Analyzer      string `json:"analyzer"`
	Justification string `json:"justification"`
	Used          bool   `json:"used"`
}

func (s Suppression) String() string {
	state := "honored"
	if !s.Used {
		state = "STALE"
	}
	return fmt.Sprintf("%s:%d: %s [%s] %s", s.File, s.Line, s.Analyzer, state, s.Justification)
}

// NewSuite returns fresh instances of the engine analyzers. A new suite
// must be built per run: faultsite accumulates cross-package state inside
// its constructor closure.
func NewSuite() []*Analyzer {
	return []*Analyzer{
		NewSwallowedErr(),
		NewLockedMeta(),
		NewFaultSite(),
		NewSpanLife(),
		NewAtomicMix(),
		NewCtxFlow(),
		NewFootprint(),
		NewHotAlloc(),
		NewIdxShare(),
	}
}

// Run executes the analyzers over the loaded packages, applies the
// //grblint:ignore suppressions, and returns the surviving findings sorted
// by file position, plus the suppression inventory (every directive seen,
// with its honored/stale flag). Malformed suppression comments are
// themselves findings.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Suppression, error) {
	var diags []Diagnostic
	ig := newIgnoreIndex()
	for _, pkg := range pkgs {
		ig.collect(fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			diags = append(diags, a.Finish()...)
		}
	}
	diags = append(diags, ig.malformed...)
	var out []Finding
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if ig.suppressed(pos, d.Analyzer) {
			continue
		}
		out = append(out, Finding{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	sup := ig.inventory()
	sort.Slice(sup, func(i, j int) bool {
		if sup[i].File != sup[j].File {
			return sup[i].File < sup[j].File
		}
		return sup[i].Line < sup[j].Line
	})
	return out, sup, nil
}

// engineScope reports whether an engine-convention analyzer applies to this
// package: the engine's internal packages, or a bare single-segment path,
// which is how analysistest golden packages are loaded. The public facade
// and the cmd/ tools are out of scope — their conventions (CLI printing,
// example code) are not the executor's.
func engineScope(pkg *types.Package) bool {
	path := pkg.Path()
	if path == "" {
		return true
	}
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			return hasPrefix(path, "graphblas/internal/")
		}
	}
	return true // single-segment path: a testdata golden package
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
