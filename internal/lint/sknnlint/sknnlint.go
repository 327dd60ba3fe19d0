// Package sknnlint assembles the repo's analyzer suite and runs it over
// loaded packages. Its one runner is TestRepoClean, which keeps the
// tree at zero diagnostics from every `go test ./...` (`make sknnlint`
// runs that test alone).
package sknnlint

import (
	"fmt"
	"go/token"
	"sort"

	"sknn/internal/lint/analysis"
	"sknn/internal/lint/annotation"
	"sknn/internal/lint/cryptorand"
	"sknn/internal/lint/errwire"
	"sknn/internal/lint/loader"
	"sknn/internal/lint/lockguard"
	"sknn/internal/lint/partyflow"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	annotation.Analyzer,
	cryptorand.Analyzer,
	errwire.Analyzer,
	lockguard.Analyzer,
	partyflow.Analyzer,
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// RunPackages applies the suite to every successfully loaded package
// and returns all findings, sorted by position, plus any load or
// analysis failures.
func RunPackages(pkgs []*loader.Package) ([]Diagnostic, []error) {
	var out []Diagnostic
	var errs []error
	for _, pkg := range pkgs {
		if pkg.Err != nil {
			errs = append(errs, pkg.Err)
			continue
		}
		for _, a := range Analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					out = append(out, Diagnostic{
						Analyzer: a.Name,
						Position: pkg.Fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Errorf("%s: %s: %v", pkg.Types.Path(), a.Name, err))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, errs
}
