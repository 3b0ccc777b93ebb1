package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsGuard enforces the observability layer's zero-cost contract: every
// call to an obs recorder or metric instrument in simulation code must sit
// behind a nil check of the hook it was read from, so a run without
// observability attached pays one predictable branch and zero allocations.
//
//	if p.rec != nil {
//	    p.rec.Span(p.track, start, p.sched.Now(), "access") // ok
//	}
//	p.metrics.Frames.Inc() // flagged unless inside "if p.metrics != nil"
//
// The frame-provenance ledger follows the same contract: every
// Resolve/QueueDrop on a *obs.Provenance hook must sit behind a nil guard
// (the if-init form "if pr := p.med.Prov; pr != nil { pr.Resolve(...) }"
// counts), so simulations without a ledger attached skip the bookkeeping
// entirely.
//
// Calls whose receiver is rooted at a function parameter are exempt: those
// are wiring-time helpers (TraceTo, Observe) whose caller owns
// the nil decision. Guards must be in the same function literal as the
// call — a check at schedule time does not protect a deferred closure.
// Individual lines can be exempted with "//wile:allow obsguard".
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc: "require obs recorder/metric calls in simulation code to sit behind " +
		"a nil guard of the hook field, keeping disabled-path runs zero-cost",
	Run: runObsGuard,
}

// obsPkgPath is the package whose method calls the analyzer polices.
const obsPkgPath = "wile/internal/obs"

// obsguardAllowedPrefixes lists import-path prefixes where unguarded obs
// calls are fine: entry points that just built the recorder themselves, and
// the obs package's own implementation.
var obsguardAllowedPrefixes = []string{
	"wile/cmd/",
	"wile/examples/",
	obsPkgPath,
}

func runObsGuard(pass *Pass) error {
	for _, prefix := range obsguardAllowedPrefixes {
		if pass.Pkg.PkgPath == strings.TrimSuffix(prefix, "/") ||
			strings.HasPrefix(pass.Pkg.PkgPath, prefix) {
			return nil
		}
	}
	for _, f := range pass.Pkg.Syntax {
		walkWithStack(f, func(stack []ast.Node) {
			call, ok := stack[len(stack)-1].(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if !isObsMethod(pass.Pkg.Info, sel) {
				return
			}
			recv := exprPath(sel.X)
			if recv == "" {
				return // computed receiver; out of scope for the heuristic
			}
			if rootIsParam(stack, recv) {
				return
			}
			if guardedAgainstNil(stack, recv) {
				return
			}
			pass.Reportf(call.Pos(), "obs call %s.%s is not behind a nil guard; "+
				"wrap it in \"if %s != nil\" so disabled runs stay zero-cost",
				recv, sel.Sel.Name, guardRoot(recv))
		})
	}
	return nil
}

// isObsMethod reports whether sel resolves to a method whose receiver type
// is declared in wile/internal/obs (Recorder, Registry, Counter,
// Provenance, TimeSeries).
func isObsMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == obsPkgPath
}

// exprPath renders a receiver chain of identifiers and field selections as
// a dotted path ("p.metrics.Frames"), or "" for anything more exotic.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprPath(e.X)
	}
	return ""
}

// guardRoot suggests which prefix of the receiver path to nil-check: the
// hook field itself for metric instruments ("p.metrics" for
// "p.metrics.Frames"), the whole path otherwise.
func guardRoot(recv string) string {
	if i := strings.LastIndexByte(recv, '.'); i > 0 && strings.Count(recv, ".") >= 2 {
		return recv[:i]
	}
	return recv
}

// rootIsParam reports whether the leftmost identifier of the receiver path
// names a parameter of the innermost enclosing function.
func rootIsParam(stack []ast.Node, recv string) bool {
	root, _, _ := strings.Cut(recv, ".")
	for i := len(stack) - 1; i >= 0; i-- {
		var params *ast.FieldList
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			params = fn.Type.Params
		case *ast.FuncDecl:
			params = fn.Type.Params
		default:
			continue
		}
		if params != nil {
			for _, field := range params.List {
				for _, name := range field.Names {
					if name.Name == root {
						return true
					}
				}
			}
		}
		return false // innermost function wins; its closure vars need guards
	}
	return false
}

// guardedAgainstNil reports whether the call is dominated, within its own
// function literal, by a proof that a prefix of the receiver path is
// non-nil: either an enclosing "if recvPrefix != nil" then-branch, or an
// earlier "if recvPrefix == nil { return }" in a block on the path.
func guardedAgainstNil(stack []ast.Node, recv string) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return false // a guard outside the closure ran at schedule time
		case *ast.IfStmt:
			// Only the then-branch is protected by the condition.
			if i+1 < len(stack) && stack[i+1] == n.Body && condProvesNonNil(n.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			if i+1 < len(stack) && nilReturnBefore(n, stack[i+1], recv) {
				return true
			}
		}
	}
	return false
}

// nilReturnBefore reports whether a statement earlier in block than the one
// containing the call bails out whenever a prefix of the receiver path is
// nil ("if recvPrefix == nil { return }").
func nilReturnBefore(block *ast.BlockStmt, inner ast.Node, recv string) bool {
	for _, stmt := range block.List {
		if stmt == inner {
			return false
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil || !condImpliedByNil(ifs.Cond, recv) {
			continue
		}
		if n := len(ifs.Body.List); n > 0 {
			if _, ok := ifs.Body.List[n-1].(*ast.ReturnStmt); ok {
				return true
			}
		}
	}
	return false
}

// condProvesNonNil reports whether cond, taken as true, implies some prefix
// of the receiver path is non-nil. Only conjunctions are descended: in
// "a != nil || b" neither disjunct is guaranteed.
func condProvesNonNil(cond ast.Expr, recv string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condProvesNonNil(c.X, recv)
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "&&":
			return condProvesNonNil(c.X, recv) || condProvesNonNil(c.Y, recv)
		case "!=":
			var checked ast.Expr
			if isNilIdent(c.Y) {
				checked = c.X
			} else if isNilIdent(c.X) {
				checked = c.Y
			} else {
				return false
			}
			path := exprPath(checked)
			return path != "" && (recv == path || strings.HasPrefix(recv, path+"."))
		}
	}
	return false
}

// condImpliedByNil reports whether cond is guaranteed true whenever a
// prefix of the receiver path is nil, so "if cond { return }" bails out on
// every nil receiver. Disjunctions are descended: "a == nil || b" still
// fires whenever a is nil.
func condImpliedByNil(cond ast.Expr, recv string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condImpliedByNil(c.X, recv)
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "||":
			return condImpliedByNil(c.X, recv) || condImpliedByNil(c.Y, recv)
		case "==":
			var checked ast.Expr
			if isNilIdent(c.Y) {
				checked = c.X
			} else if isNilIdent(c.X) {
				checked = c.Y
			} else {
				return false
			}
			path := exprPath(checked)
			return path != "" && (recv == path || strings.HasPrefix(recv, path+"."))
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// walkWithStack traverses the file keeping the ancestor chain; fn sees the
// full stack with the visited node last.
func walkWithStack(f *ast.File, fn func(stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		fn(stack)
		return true
	})
}
