// Package errwire tracks errors born from wire operations — Send,
// Recv, RoundTrip, smc's exchange (a Requester round trip whose reply
// it decodes), and the encode*/decode* codec family — and reports the
// ways they escape handling: discarded outright (bare call statement
// or assigned to _), overwritten by a later assignment before any
// check, or still pending on a path that reaches a return.
//
// The protocol stack's failure model depends on this: a lost Send
// error means C1 keeps driving rounds against a dead link and the
// query hangs instead of failing fast, and a swallowed decode error
// turns a lying peer's frame into silently wrong plaintext results.
//
// Pending errors are a may dataflow analysis over the function CFG:
// the defining assignment generates a fact, any later use of the
// variable (a nil check, a return, wrapping with fmt.Errorf) consumes
// it, and a fact surviving to function exit on any path is a finding.
// Bare returns consume named error results. Function literals are
// analyzed separately.
//
// Escape hatch: //sknnlint:allow errwire -- <why> on the offending
// line (e.g. a best-effort goodbye frame on an already-failed link).
package errwire

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sknn/internal/lint/allow"
	"sknn/internal/lint/analysis"
	"sknn/internal/lint/cfg"
	"sknn/internal/lint/dataflow"
)

// Analyzer rejects discarded, overwritten, or never-checked wire
// errors.
var Analyzer = &analysis.Analyzer{
	Name: "errwire",
	Doc:  "errors from Send/Recv/RoundTrip/exchange and encode*/decode* calls must be checked, not discarded, shadowed, or dropped on a return path",
	Run:  run,
}

// wireNames are the exact method/function names whose errors the rule
// tracks; encode/decode prefixes extend the set to the codec family.
var wireNames = map[string]bool{
	"Send":      true,
	"Recv":      true,
	"RoundTrip": true,
	"roundTrip": true,
	"exchange":  true,
}

func isWireCallee(name string) bool {
	if wireNames[name] {
		return true
	}
	return strings.HasPrefix(name, "encode") || strings.HasPrefix(name, "decode")
}

// pending is the fact value for one unchecked wire error.
type pending struct {
	pos    token.Pos
	callee string
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if len(f.Decls) > 0 && pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{pass: pass, file: f, fn: fn}
			c.checkBody(fn.Body, fn.Type)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkBody(lit.Body, lit.Type)
					return false
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	file *ast.File
	fn   *ast.FuncDecl
}

func (c *checker) checkBody(body *ast.BlockStmt, ftyp *ast.FuncType) {
	g := cfg.New(body)
	named := namedErrorResults(c.pass.TypesInfo, ftyp)
	an := &dataflow.Analysis{
		Meet:     dataflow.May,
		Transfer: func(n ast.Node, f dataflow.Facts) { c.transfer(n, f, named) },
	}
	res := dataflow.Solve(g, an)
	res.Replay(func(n ast.Node, f dataflow.Facts) { c.visit(n, f) })

	// Facts that survive the exit block escaped every check on some
	// path.
	exit := g.Exit()
	if !g.Reachable(exit) {
		return
	}
	out := res.In(exit).Clone()
	for _, n := range exit.Nodes {
		an.Transfer(n, out) // Replay already visited these nodes
	}
	for _, v := range out {
		p := v.(pending)
		c.report(p.pos, "error from %s() can reach a return without being checked: a wire failure must stop the protocol, not leak into the next round",
			p.callee)
	}
}

// namedErrorResults collects the objects of named error-typed results,
// which a bare return hands to the caller.
func namedErrorResults(info *types.Info, ftyp *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ftyp.Results == nil {
		return out
	}
	for _, fld := range ftyp.Results.List {
		for _, name := range fld.Names {
			obj := info.Defs[name]
			if obj != nil && isErrorType(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// transfer advances the pending-error facts across one CFG node: uses
// consume, assignments from wire calls generate, bare returns consume
// named results.
func (c *checker) transfer(n ast.Node, f dataflow.Facts, named map[types.Object]bool) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.killUses(r, f)
		}
		assigned := c.errorTargets(s)
		for _, id := range assigned {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				delete(f, obj)
			}
		}
		if call, ok := wireCallRHS(s, c.pass.TypesInfo); ok {
			for _, id := range assigned {
				obj := c.pass.TypesInfo.ObjectOf(id)
				if obj != nil {
					f[obj] = pending{pos: call.Pos(), callee: dataflow.CalleeName(call)}
				}
			}
		}
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			for obj := range named {
				delete(f, obj)
			}
		}
		for _, r := range s.Results {
			c.killUses(r, f)
		}
	case *ast.DeferStmt:
		// The call replays at exit as *cfg.Deferred; uses of tracked
		// variables in its arguments still consume here.
		c.killUses(s.Call, f)
	default:
		c.killUses(n, f)
	}
}

// killUses deletes the fact for every tracked variable read inside n.
func (c *checker) killUses(n ast.Node, f dataflow.Facts) {
	cfg.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			delete(f, obj)
		}
		return true
	})
}

// errorTargets returns the error-typed non-blank identifiers assigned
// by s.
func (c *checker) errorTargets(s *ast.AssignStmt) []*ast.Ident {
	var out []*ast.Ident
	for _, l := range s.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if isErrorType(c.pass.TypesInfo.TypeOf(id)) {
			out = append(out, id)
		}
	}
	return out
}

// wireCallRHS reports whether s's single RHS is a wire call returning
// an error.
func wireCallRHS(s *ast.AssignStmt, info *types.Info) (*ast.CallExpr, bool) {
	if len(s.Rhs) != 1 {
		return nil, false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !isWireCallee(dataflow.CalleeName(call)) {
		return nil, false
	}
	if !callReturnsError(call, info) {
		return nil, false
	}
	return call, true
}

func callReturnsError(call *ast.CallExpr, info *types.Info) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// visit raises the immediate findings — discards and overwrites — with
// the facts holding just before the node.
func (c *checker) visit(n ast.Node, f dataflow.Facts) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			c.checkDiscardedCall(call)
		}
	case *cfg.Deferred:
		c.checkDiscardedCall(s.Call)
	case *ast.AssignStmt:
		c.checkAssign(s, f)
	}
}

// checkDiscardedCall flags a wire call used as a bare statement.
func (c *checker) checkDiscardedCall(call *ast.CallExpr) {
	if !isWireCallee(dataflow.CalleeName(call)) || !callReturnsError(call, c.pass.TypesInfo) {
		return
	}
	c.report(call.Pos(),
		"error from %s() is discarded: every wire operation can fail mid-protocol, and the failure must reach the caller",
		dataflow.CalleeName(call))
}

func (c *checker) checkAssign(s *ast.AssignStmt, f dataflow.Facts) {
	// Blank-assigning a wire call's error, directly or from a pending
	// variable, is a discard.
	if call, ok := wireCallRHS(s, c.pass.TypesInfo); ok {
		for i, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name != "_" {
				continue
			}
			if c.blankSlotIsError(s, call, i) {
				c.report(id.Pos(),
					"error from %s() is assigned to _: every wire operation can fail mid-protocol, and the failure must reach the caller",
					dataflow.CalleeName(call))
			}
		}
	}
	if len(s.Rhs) == 1 {
		if id, ok := s.Rhs[0].(*ast.Ident); ok && allBlank(s.Lhs) {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				if p, pend := f[obj].(pending); pend {
					c.report(id.Pos(),
						"error from %s() is discarded via _ without being checked",
						p.callee)
				}
			}
		}
	}
	// Overwriting a variable whose wire error is still pending loses
	// the first failure.
	for _, id := range c.errorTargets(s) {
		obj := c.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		if p, ok := f[obj].(pending); ok && !usedIn(s.Rhs, c.pass.TypesInfo, obj) {
			c.report(s.Pos(),
				"this assignment overwrites the unchecked error from %s() before it is examined",
				p.callee)
		}
	}
}

// blankSlotIsError reports whether LHS slot i of a (possibly
// multi-value) wire-call assignment has error type.
func (c *checker) blankSlotIsError(s *ast.AssignStmt, call *ast.CallExpr, i int) bool {
	t := c.pass.TypesInfo.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok && len(s.Lhs) == tup.Len() {
		return isErrorType(tup.At(i).Type())
	}
	return isErrorType(t)
}

func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

func usedIn(exprs []ast.Expr, info *types.Info, obj types.Object) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if a, ok := allow.Covering(c.pass.Fset, c.file, c.fn, pos, "errwire"); ok {
		if a.Justification == "" {
			c.pass.Reportf(a.Pos,
				"%s errwire annotation lacks a justification: write %s errwire -- <why losing this wire error is safe>",
				allow.Prefix, allow.Prefix)
		}
		return
	}
	c.pass.Reportf(pos, format, args...)
}
