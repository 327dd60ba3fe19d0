// Package partyflow machine-checks the paper's party boundary — the
// dataflow statement its entire security argument reduces to (ICDE'14
// §4): C1 only ever holds ciphertexts and blinded material, and C2 may
// only decrypt values that were blinded and permuted before they
// crossed the wire, returning nothing decrypt-derived without a fresh
// encryption. Two mechanisms enforce it:
//
// Role ban. Every non-test file of a scoped package carries a party
// role, declared in the manifest (manifest.go) or by a file pragma
//
//	//sknnlint:role <c1|c2|owner|client>
//
// A file with role c1 or client must not reference key material at
// all: the PrivateKey or smc Responder types, or any
// Decrypt/DecryptSigned/SK call. The manifest is checked both ways
// (missing file, stale entry), so the boundary declaration cannot rot.
//
// Taint flow. Within role-carrying files, a forward taint analysis
// over the per-function CFG (internal/lint/cfg + internal/lint/
// dataflow) tracks plaintexts born from Decrypt calls. A tainted value
// reaching a wire sink — a Send argument, an encodeX argument, or a
// Message.Ints field — is a finding unless it passed a sanitizer first
// (fresh Encrypt, blind/mask/permute). Per-package function summaries
// extend the reach one call deep: a function that decrypts and returns
// an unsanitized value is treated as a taint source at its call sites,
// even when the dependence is control-only — the argmin shape, where
// the returned position is determined by which β = r·(dmin − dᵢ)
// decrypted to zero.
//
// The paper deliberately leaks three things (SkNNb's plaintext ranks,
// the reveal step's C1-masked attributes, the clustered index's
// cluster position); those sites carry //sknnlint:allow partyflow with
// the justification spelled out, which is the point: every crossing of
// the party boundary is either mechanical noise the analyzer rejects,
// or a documented design decision.
package partyflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"regexp"
	"sort"
	"strings"

	"sknn/internal/lint/allow"
	"sknn/internal/lint/analysis"
	"sknn/internal/lint/cfg"
	"sknn/internal/lint/dataflow"
)

// Analyzer is the party-boundary checker.
var Analyzer = &analysis.Analyzer{
	Name: "partyflow",
	Doc:  "decrypted plaintexts must be blinded or re-encrypted before wire sinks; C1-role files must not reference key material",
	Run:  run,
}

// RolePragma opens a file-role declaration comment.
const RolePragma = "//sknnlint:role"

var pragmaRE = regexp.MustCompile(`^//sknnlint:role\s+(\S+)\s*$`)

// decryptNames are the calls whose results are decrypted plaintext.
var decryptNames = map[string]bool{
	"Decrypt":       true,
	"DecryptSigned": true,
}

// keyBan are the identifiers a c1/client-role file may not reference:
// key-material types and accessors.
var keyBan = map[string]bool{
	"PrivateKey":   true,
	"Responder":    true,
	"NewResponder": true,
	"SK":           true,
}

// sanitizers launder decrypted plaintext: a fresh encryption, or the
// blinding/masking/permutation the simulation argument requires.
var sanitizers = map[string]bool{
	"Encrypt":     true,
	"encrypt":     true,
	"EncryptList": true,
	// The split encryption (paillier.Nonce): the message-dependent half,
	// and the batch form that draws and raises its own nonces.
	"EncryptWith": true,
	"EncryptMany": true,
	"Blind":       true,
	"blind":       true,
	"Mask":        true,
	"mask":        true,
	"Permute":     true,
	"permute":     true,
}

func run(pass *analysis.Pass) error {
	roles, scoped := fileRoles(pass)
	if !scoped {
		return nil
	}
	checkManifest(pass, roles)
	summaries := summarize(pass, roles)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		role, ok := roles[f]
		if !ok {
			continue // already reported as unassigned
		}
		if role == RoleC1 || role == RoleClient {
			banKeyMaterial(pass, f, role)
		}
		checkFlows(pass, f, summaries)
	}
	return nil
}

// fileRoles resolves each non-test file's role from its pragma or the
// manifest, reporting invalid pragmas and unassigned files. The second
// result reports whether the package is in scope at all: listed in
// ScopedPackages, or (for fixtures) carrying at least one role pragma.
func fileRoles(pass *analysis.Pass) (map[*ast.File]string, bool) {
	roles := make(map[*ast.File]string)
	scoped := ScopedPackages[pass.Pkg.Path()]
	type pragma struct {
		file *ast.File
		role string
	}
	var pragmas []pragma
	hadPragma := make(map[*ast.File]bool)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, RolePragma) {
					continue
				}
				hadPragma[f] = true
				text := c.Text
				if i := strings.Index(text, "// want"); i > 0 {
					text = strings.TrimRight(text[:i], " \t")
				}
				m := pragmaRE.FindStringSubmatch(text)
				if m == nil || !KnownRoles[m[1]] {
					name := ""
					if m != nil {
						name = m[1]
					}
					pass.Reportf(c.Pos(),
						"unknown party role %q: valid roles are c1, c2, owner, client", name)
					continue
				}
				scoped = true
				pragmas = append(pragmas, pragma{f, m[1]})
			}
		}
	}
	if !scoped {
		return nil, false
	}
	for _, p := range pragmas {
		roles[p.file] = p.role
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if _, ok := roles[f]; ok {
			continue
		}
		if hadPragma[f] {
			continue // its pragma was already reported as invalid
		}
		key := pass.Pkg.Path() + "/" + path.Base(pass.Fset.Position(f.Pos()).Filename)
		if role, ok := Manifest[key]; ok {
			roles[f] = role
			continue
		}
		pass.Reportf(f.Pos(),
			"file has no party role: add it to the partyflow manifest (internal/lint/partyflow/manifest.go) or declare %s <role>", RolePragma)
	}
	return roles, true
}

// checkManifest reports manifest entries whose files no longer exist —
// the stale half of the two-way check.
func checkManifest(pass *analysis.Pass, roles map[*ast.File]string) {
	if !ScopedPackages[pass.Pkg.Path()] || len(pass.Files) == 0 {
		return
	}
	present := make(map[string]bool)
	for _, f := range pass.Files {
		present[path.Base(pass.Fset.Position(f.Pos()).Filename)] = true
	}
	prefix := pass.Pkg.Path() + "/"
	var stale []string
	for key := range Manifest {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		base := strings.TrimPrefix(key, prefix)
		if strings.Contains(base, "/") {
			continue // a nested package's entry
		}
		if !present[base] {
			stale = append(stale, base)
		}
	}
	sort.Strings(stale)
	for _, base := range stale {
		pass.Reportf(pass.Files[0].Pos(),
			"partyflow manifest names %s, which is not a file of %s: remove the stale entry", base, pass.Pkg.Path())
	}
}

// banKeyMaterial reports any reference to key material in a c1- or
// client-role file.
func banKeyMaterial(pass *analysis.Pass, f *ast.File, role string) {
	var fns []*ast.FuncDecl
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			fns = append(fns, fn)
		}
	}
	enclosing := func(pos ast.Node) *ast.FuncDecl {
		for _, fn := range fns {
			if fn.Pos() <= pos.Pos() && pos.Pos() < fn.End() {
				return fn
			}
		}
		return nil
	}
	report := func(n ast.Node, what string) {
		a, ok := allow.Covering(pass.Fset, f, enclosing(n), n.Pos(), "partyflow")
		if ok && a.Justification == "" {
			pass.Reportf(a.Pos,
				"%s partyflow annotation lacks a justification: write %s partyflow -- <why this does not breach the party boundary>",
				allow.Prefix, allow.Prefix)
			return
		}
		if ok {
			return
		}
		pass.Reportf(n.Pos(),
			"%s-role file references %s: this party must never hold key material (see the role manifest, internal/lint/partyflow/manifest.go)", role, what)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				return true
			}
			if _, isType := obj.(*types.TypeName); isType && keyBan[x.Name] {
				report(x, "the "+x.Name+" type")
			}
		case *ast.CallExpr:
			name := dataflow.CalleeName(x)
			if decryptNames[name] || name == "SK" || name == "NewResponder" {
				report(x, name+"()")
			}
		}
		return true
	})
}

// summarize runs a fixpoint over the package's functions, marking
// those whose results carry decrypt-derived data: the body reaches a
// decrypt (directly or through an already-marked callee) and at least
// one return value is neither sanitized nor trivially clean. The
// deliberately coarse return rule covers control-only dependence — the
// argmin shape — which a pure data-flow check would miss.
func summarize(pass *analysis.Pass, roles map[*ast.File]string) map[types.Object]bool {
	type fnInfo struct {
		decl *ast.FuncDecl
		obj  types.Object
	}
	var fns []fnInfo
	for _, f := range pass.Files {
		if _, ok := roles[f]; !ok {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
				fns = append(fns, fnInfo{fn, obj})
			}
		}
	}
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if tainted[fi.obj] {
				continue
			}
			if returnsDecryptDerived(pass, fi.decl, tainted) {
				tainted[fi.obj] = true
				changed = true
			}
		}
	}
	return tainted
}

func returnsDecryptDerived(pass *analysis.Pass, fn *ast.FuncDecl, tainted map[types.Object]bool) bool {
	hasSource := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if decryptNames[dataflow.CalleeName(call)] || tainted[calleeObj(pass.TypesInfo, call)] {
			hasSource = true
		}
		return true
	})
	if !hasSource {
		return false
	}
	leaky := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !cleanReturn(pass, res) {
				leaky = true
			}
		}
		return true
	})
	return leaky
}

// cleanReturn reports whether a return expression is trivially free of
// decrypt-derived data: a literal, nil, an error, or a sanitizer call.
func cleanReturn(pass *analysis.Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		if x.Name == "nil" {
			return true
		}
	case *ast.CallExpr:
		if sanitizers[dataflow.CalleeName(x)] {
			return true
		}
	}
	if t := pass.TypesInfo.TypeOf(e); t != nil && t.String() == "error" {
		return true
	}
	return false
}

func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// checkFlows runs the taint analysis over every function of f and
// reports tainted values reaching wire sinks.
func checkFlows(pass *analysis.Pass, f *ast.File, summaries map[types.Object]bool) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		checkBody(pass, f, fn, fn.Body, summaries)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkBody(pass, f, fn, lit.Body, summaries)
			}
			return true
		})
	}
}

func checkBody(pass *analysis.Pass, f *ast.File, fn *ast.FuncDecl, body *ast.BlockStmt, summaries map[types.Object]bool) {
	g := cfg.New(body)
	taint := &dataflow.Taint{
		Info: pass.TypesInfo,
		Source: func(call *ast.CallExpr) bool {
			if decryptNames[dataflow.CalleeName(call)] {
				return true
			}
			return summaries[calleeObj(pass.TypesInfo, call)]
		},
		Sanitizer: func(call *ast.CallExpr) bool {
			return sanitizers[dataflow.CalleeName(call)]
		},
	}
	res := dataflow.Solve(g, &dataflow.Analysis{Meet: dataflow.May, Transfer: taint.Transfer})
	report := func(n ast.Node, sink string) {
		a, ok := allow.Covering(pass.Fset, f, fn, n.Pos(), "partyflow")
		if ok && a.Justification == "" {
			pass.Reportf(a.Pos,
				"%s partyflow annotation lacks a justification: write %s partyflow -- <why this leak is part of the protocol>",
				allow.Prefix, allow.Prefix)
			return
		}
		if ok {
			return
		}
		pass.Reportf(n.Pos(),
			"decrypted plaintext reaches wire sink %s without blinding or re-encryption: C2 may only emit values blinded as β = r·(dmin−dᵢ) or freshly encrypted (annotate deliberate protocol leaks with %s partyflow -- <why>)",
			sink, allow.Prefix)
	}
	res.Replay(func(n ast.Node, facts dataflow.Facts) {
		cfg.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				name := dataflow.CalleeName(x)
				if name == "Send" || strings.HasPrefix(name, "encode") {
					for _, arg := range x.Args {
						if taint.Tainted(arg, facts) {
							report(x, fmt.Sprintf("%s()", name))
							break
						}
					}
				}
			case *ast.CompositeLit:
				if !isMessageType(pass.TypesInfo.TypeOf(x)) {
					return true
				}
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "Ints" {
						continue
					}
					if taint.Tainted(kv.Value, facts) {
						report(kv.Value, "Message.Ints")
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Ints" || !isMessageType(pass.TypesInfo.TypeOf(sel.X)) {
						continue
					}
					if i < len(x.Rhs) && taint.Tainted(x.Rhs[i], facts) {
						report(x.Rhs[i], "Message.Ints")
					}
				}
			}
			return true
		})
	})
}

// isMessageType matches the wire message struct by local name, so
// fixtures can declare their own Message type.
func isMessageType(t types.Type) bool {
	return t != nil && analysis.LocalTypeName(t) == "Message"
}
