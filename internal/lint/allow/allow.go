// Package allow parses sknnlint's annotation escape hatch.
//
// An invariant exception is declared as
//
//	//sknnlint:allow <rule> -- <justification>
//
// next to the code it exempts. The justification is mandatory — the
// point of the annotation is to carry the security argument for the
// exception in the code itself — and the rule-owning analyzer reports
// an annotation whose justification is missing, so the allowlist cannot
// rot silently. Unknown rule names are reported by the annotation
// analyzer (internal/lint/annotation).
package allow

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Prefix opens every annotation comment.
const Prefix = "//sknnlint:allow"

// KnownRules is the set of annotatable analyzer names.
var KnownRules = map[string]bool{
	"cryptorand": true,
	"partyflow":  true,
	"lockguard":  true,
	"errwire":    true,
}

// Allowance is one parsed annotation.
type Allowance struct {
	// Rule names the analyzer being waived ("" when the annotation is
	// too malformed to tell).
	Rule string
	// Justification is the text after "--", trimmed. Empty means the
	// annotation is invalid and will be reported.
	Justification string
	Pos           token.Pos
	Line          int
	File          string
}

var annotationRE = regexp.MustCompile(`^//sknnlint:allow(?:\s+(\S+))?\s*(?:--\s*(.*))?$`)

// match applies the annotation grammar to a comment's text, ignoring a
// trailing "// want" clause so fixtures can state expectations on the
// annotation's own line.
func match(text string) []string {
	if i := strings.Index(text, "// want"); i > 0 {
		text = strings.TrimRight(text[:i], " \t")
	}
	return annotationRE.FindStringSubmatch(text)
}

// Scan returns every annotation in f, malformed ones included.
func Scan(fset *token.FileSet, f *ast.File) []Allowance {
	var out []Allowance
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, Prefix) {
				continue
			}
			a := Allowance{Pos: c.Pos()}
			pos := fset.Position(c.Pos())
			a.Line = pos.Line
			a.File = pos.Filename
			if m := match(c.Text); m != nil {
				a.Rule = m[1]
				a.Justification = strings.TrimSpace(m[2])
			}
			out = append(out, a)
		}
	}
	return out
}

// ForImport returns the annotation covering an import spec, looking at
// the spec's doc comment, its trailing line comment, and the import
// declaration's doc comment.
func ForImport(fset *token.FileSet, decl *ast.GenDecl, spec *ast.ImportSpec, rule string) (Allowance, bool) {
	groups := []*ast.CommentGroup{spec.Doc, spec.Comment, decl.Doc}
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, Prefix) {
				continue
			}
			if m := match(c.Text); m != nil && m[1] == rule {
				return Allowance{
					Rule:          m[1],
					Justification: strings.TrimSpace(m[2]),
					Pos:           c.Pos(),
					Line:          fset.Position(c.Pos()).Line,
					File:          fset.Position(c.Pos()).Filename,
				}, true
			}
		}
	}
	return Allowance{}, false
}

// Covering returns the annotation for rule that covers pos: one in the
// enclosing function's doc comment, or one on pos's line or the line
// directly above it in the same file.
func Covering(fset *token.FileSet, file *ast.File, fn *ast.FuncDecl, pos token.Pos, rule string) (Allowance, bool) {
	if fn != nil && fn.Doc != nil {
		for _, a := range Scan(fset, &ast.File{Comments: []*ast.CommentGroup{fn.Doc}}) {
			if a.Rule == rule {
				return a, true
			}
		}
	}
	target := fset.Position(pos)
	for _, a := range Scan(fset, file) {
		if a.Rule != rule || a.File != target.Filename {
			continue
		}
		if a.Line == target.Line || a.Line == target.Line-1 {
			return a, true
		}
	}
	return Allowance{}, false
}
