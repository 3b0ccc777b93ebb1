package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockGuard enforces documented lock discipline mechanically. A struct
// field whose declaration comment says "guarded by <mutex>" (where <mutex>
// names a sync.Mutex or sync.RWMutex field of the same struct) may only be
// read or written while that mutex is held on the same base expression:
//
//	type Tally struct {
//		mu    sync.Mutex
//		count int64 // guarded by mu
//	}
//
//	t.mu.Lock()
//	t.count++        // ok: t.mu held
//	t.mu.Unlock()
//	return t.count   // flagged: t.mu released
//
// Held-lock state flows through the function's control-flow graph:
// Lock/RLock acquire, Unlock/RUnlock release, "defer mu.Unlock()" keeps
// the mutex held to function exit, and a merge point only keeps locks held
// on every incoming path. Helpers that run with the caller's lock held
// declare it with a "//wile:holds <base>.<mutex>" line in their doc
// comment. Accesses through a freshly constructed value (the flow graph
// proves the base was a composite literal or new() in this function) are
// exempt — nobody else can see the object yet. Closures are analyzed with
// an empty held set: a lock taken at schedule time is not proof for a body
// that runs later.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "struct fields annotated \"guarded by mu\" may only be accessed " +
		"with the named mutex held (Lock/Unlock and defer tracked flow-sensitively)",
	Run: runLockGuard,
}

// lgGuard describes one guarded field.
type lgGuard struct {
	mutex string    // sibling field name of the guarding mutex
	pos   token.Pos // position of the annotation, for -explain
}

// lgState is the must-held lock set, keyed by the source path of the
// mutex expression ("t.mu", "p.pool.mu").
type lgState map[string]bool

type lgClient struct {
	pass     *Pass
	info     *types.Info
	graph    *FlowGraph
	guards   map[types.Object]lgGuard
	reported map[token.Pos]bool
}

func runLockGuard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &lgClient{
				pass:     pass,
				info:     pass.Pkg.Info,
				graph:    BuildFlow(pass.Pkg.Info, fd.Body),
				guards:   guards,
				reported: make(map[token.Pos]bool),
			}
			entry := lgState{}
			for _, path := range holdsDirectives(fd.Doc) {
				entry[path] = true
			}
			cfgWalk(fd.Body, entry, c)
			// Closures start from an empty held set (plus their own holds
			// are established inside); walk each nested literal separately.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					cfgWalk(fl.Body, lgState{}, c)
				}
				return true
			})
		}
	}
	return nil
}

// collectGuards finds "guarded by <name>" annotations on struct fields and
// validates that the named mutex is a sibling field.
func collectGuards(pass *Pass) map[types.Object]lgGuard {
	guards := make(map[types.Object]lgGuard)
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			fieldNames := make(map[string]*ast.Field)
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					fieldNames[name.Name] = field
				}
			}
			for _, field := range st.Fields.List {
				mutex, pos, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				mf, exists := fieldNames[mutex]
				if !exists || !isMutexType(pass.Pkg.Info.TypeOf(mf.Type)) {
					pass.Reportf(pos, "guarded-by annotation names %q, which is not a sync.Mutex/RWMutex field of this struct", mutex)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						guards[obj] = lgGuard{mutex: mutex, pos: pos}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's "guarded by X"
// doc or line comment.
func guardAnnotation(field *ast.Field) (mutex string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := c.Text
			i := strings.Index(text, "guarded by ")
			if i < 0 {
				continue
			}
			rest := text[i+len("guarded by "):]
			name := rest
			if j := strings.IndexFunc(rest, func(r rune) bool {
				return !(r == '_' || r == '.' ||
					('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9'))
			}); j >= 0 {
				name = rest[:j]
			}
			name = strings.TrimSuffix(name, ".")
			if name != "" {
				return name, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// holdsDirectives parses "//wile:holds a.mu b.mu" lines from a function's
// doc comment: the listed mutex paths are held on entry (the caller's
// documented obligation).
func holdsDirectives(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//wile:holds")
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		if i := strings.Index(rest, " -- "); i >= 0 {
			rest = rest[:i]
		}
		out = append(out, strings.Fields(rest)...)
	}
	return out
}

func (c *lgClient) copyState(st lgState) lgState {
	out := make(lgState, len(st))
	for k := range st {
		out[k] = true
	}
	return out
}

// join keeps only locks held on both paths — the must-hold semantics that
// make the analysis sound at merge points.
func (c *lgClient) join(a, b lgState) lgState {
	for k := range a {
		if !b[k] {
			delete(a, k)
		}
	}
	return a
}

func (c *lgClient) stmt(s ast.Stmt, st lgState) lgState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if path, op, ok := lockCall(c.info, s.X); ok {
			switch op {
			case "Lock", "RLock":
				st[path] = true
			case "Unlock", "RUnlock":
				delete(st, path)
			}
			return st
		}
		c.checkExpr(s.X, st)
		return st
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the rest of the
		// function; any other deferred call is checked against the state
		// at function exit, which we approximate with the current state.
		if _, op, ok := lockCall(c.info, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return st
		}
		c.checkExpr(s.Call, st)
		return st
	case *ast.RangeStmt:
		return st // X already checked via expr
	default:
		c.checkStmtExprs(s, st)
		return st
	}
}

func (c *lgClient) expr(e ast.Expr, st lgState) lgState {
	c.checkExpr(e, st)
	return st
}

// checkStmtExprs checks every expression hanging off a non-control
// statement without descending into nested statements (the walker owns
// those) or function literals (analyzed separately with an empty set).
func (c *lgClient) checkStmtExprs(s ast.Stmt, st lgState) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			c.checkSelector(n, st)
			return true
		}
		return true
	})
}

func (c *lgClient) checkExpr(e ast.Expr, st lgState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			c.checkSelector(n, st)
			return true
		}
		return true
	})
}

// checkSelector flags base.field accesses of guarded fields when the
// guarding mutex is not held on the same base.
func (c *lgClient) checkSelector(sel *ast.SelectorExpr, st lgState) {
	s, ok := c.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	guard, guarded := c.guards[s.Obj()]
	if !guarded || c.reported[sel.Sel.Pos()] {
		return
	}
	base := exprPath(sel.X)
	if base == "" {
		return // computed base: out of the heuristic's reach
	}
	need := base + "." + guard.mutex
	if st[need] {
		return
	}
	// A freshly constructed object is not shared yet: exempt accesses
	// whose base root provably came from a literal/new in this function.
	root, _, _ := strings.Cut(base, ".")
	if obj := c.lookupIdent(sel.X, root); obj != nil {
		if _, fresh := c.graph.FreshAt(obj); fresh {
			return
		}
	}
	c.reported[sel.Sel.Pos()] = true
	steps := []FlowStep{{
		Pos:  c.pass.Pkg.Fset.Position(guard.pos),
		Desc: s.Obj().Name() + " declared guarded by " + guard.mutex + " here",
	}, {
		Pos:  c.pass.Pkg.Fset.Position(sel.Pos()),
		Desc: base + "." + s.Obj().Name() + " accessed without " + need + " held",
	}}
	c.pass.ReportRangef(sel.Pos(), sel.End(), steps,
		"%s.%s is guarded by %s; hold it across this access", base, s.Obj().Name(), need)
}

// lookupIdent finds the leftmost identifier object of a selector base.
func (c *lgClient) lookupIdent(e ast.Expr, root string) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == root {
				return c.info.Uses[x]
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// lockCall recognizes "<path>.Lock()" / "<path>.Unlock()" (and the RW
// variants) on a sync.Mutex or sync.RWMutex, returning the mutex path and
// the operation.
func lockCall(info *types.Info, e ast.Expr) (path, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	if !isMutexType(info.TypeOf(sel.X)) {
		return "", "", false
	}
	path = exprPath(sel.X)
	if path == "" {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
