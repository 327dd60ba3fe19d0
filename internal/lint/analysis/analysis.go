// Package analysis is the in-tree analyzer framework sknnlint runs on:
// a deliberately small, standard-library-only mirror of the
// golang.org/x/tools/go/analysis API surface the analyzers need.
//
// Why not the real go/analysis? The repo builds with no third-party
// dependencies (go.mod has an empty require set and the protocol stack
// must stay auditable end to end), so the invariant suite carries its
// own small driver instead. The shape is kept close enough to upstream
// — Analyzer / Pass / Diagnostic, a fixture runner in
// internal/lint/linttest — that migrating onto x/tools later is
// mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a name (stable, used in
// annotations and CI output), a one-line contract, and the Run function
// applied to each package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sknnlint:allow annotations. Lower-case, no spaces.
	Name string
	// Doc states the enforced invariant in one sentence.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked form to an
// analyzer, plus the report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver owns ordering and output.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The invariant
// suite checks shipped code: tests exercise hostile and synthetic
// configurations on purpose (lying frames, deterministic math/rand
// inputs), so every analyzer skips them.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// TypeName returns the fully qualified name of t's core named type
// ("math/big.Int" for *big.Int), unwrapping one pointer level, or ""
// when t has no name.
func TypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// LocalTypeName is TypeName without the package qualifier — the form
// analyzers match on when an invariant is about a type shape
// (partyflow's "Message") rather than one import path, which also
// keeps them testable on self-contained fixtures.
func LocalTypeName(t types.Type) string {
	full := TypeName(t)
	if i := strings.LastIndex(full, "."); i >= 0 {
		return full[i+1:]
	}
	return full
}
