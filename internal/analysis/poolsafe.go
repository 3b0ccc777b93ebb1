package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafe guards the repository's object-recycling discipline. The hot
// paths recycle aggressively — mac.Port's receive path hands every frame
// it decodes back to dot11's sync.Pools via Release once its hooks have
// returned, and the next Get/Decode overwrites the object in place — so
// touching a pooled object after its release is a corruption bug that
// surfaces frames later as an FCS mismatch or as another frame's fields
// (the class a hook that keeps a frame instead of a copy falls into).
// PoolSafe walks each function's control-flow graph tracking, per path,
// which objects have been released:
//
//   - a release point is a call to a function or method named Release,
//     release, Recycle, or recycle (dot11.Release), a sync.Pool Put, or
//     an append onto a freelist field (a field named free, freeList, or
//     freelist);
//   - any later use of the released object — or of anything the
//     value-flow graph says may alias it — on any path is flagged,
//     including uses inside closures created after the release;
//   - releasing an object that previously escaped into a goroutine, a
//     deferred or stored closure, a struct field, or a channel is flagged
//     too: the escapee can run (or be read) after recycling, which is how
//     use-after-release hides from path-local reasoning.
//
// Rebinding a variable (f = other, f := Decode(...)) clears its fact, so
// get/use/release loops analyze cleanly. Diagnostics carry the release
// site and the aliasing chain; wile-vet -explain prints them.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc: "pooled objects (frames, freelist events) must not be used after " +
		"their Release/recycle call on any path, nor released after escaping",
	Run: runPoolSafe,
}

// poolFact records where (and how) an object was released.
type poolFact struct {
	pos  token.Pos
	via  string // "Release call", "freelist append", ...
	name string // source-level name of the object the fact was derived for
}

// escFact records where (and how) an object escaped the function.
type escFact struct {
	pos token.Pos
	via string // "goroutine", "closure", "field store", "channel send"
}

// psState is the per-path abstract state: the may-released and
// may-escaped object sets.
type psState struct {
	released map[types.Object]poolFact
	escaped  map[types.Object]escFact
}

type psClient struct {
	pass     *Pass
	info     *types.Info
	graph    *FlowGraph
	reported map[token.Pos]bool
}

func runPoolSafe(pass *Pass) error {
	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &psClient{
				pass:     pass,
				info:     pass.Pkg.Info,
				graph:    BuildFlow(pass.Pkg.Info, fd.Body),
				reported: make(map[token.Pos]bool),
			}
			entry := psState{released: map[types.Object]poolFact{}, escaped: map[types.Object]escFact{}}
			cfgWalk(fd.Body, entry, c)
		}
	}
	return nil
}

func (c *psClient) copyState(st psState) psState {
	out := psState{
		released: make(map[types.Object]poolFact, len(st.released)),
		escaped:  make(map[types.Object]escFact, len(st.escaped)),
	}
	for k, v := range st.released {
		out.released[k] = v
	}
	for k, v := range st.escaped {
		out.escaped[k] = v
	}
	return out
}

// join unions the two paths' fact sets: released-on-some-path is enough to
// make a later use suspicious.
func (c *psClient) join(a, b psState) psState {
	for k, v := range b.released {
		if _, ok := a.released[k]; !ok {
			a.released[k] = v
		}
	}
	for k, v := range b.escaped {
		if _, ok := a.escaped[k]; !ok {
			a.escaped[k] = v
		}
	}
	return a
}

func (c *psClient) expr(e ast.Expr, st psState) psState {
	return c.scan(e, st, false)
}

func (c *psClient) stmt(s ast.Stmt, st psState) psState {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = c.scan(rhs, st, false)
		}
		// A freelist append is a release of the appended objects; any
		// other store into a field (or through an index/deref) makes the
		// stored value escape the function's reasoning.
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				rhs = s.Rhs[i]
			}
			switch l := lhs.(type) {
			case *ast.Ident:
				// Rebinding kills the variable's facts: the name no
				// longer refers to the released object.
				if obj := c.objOf(l); obj != nil {
					delete(st.released, obj)
					delete(st.escaped, obj)
				}
			case *ast.SelectorExpr:
				st = c.scan(l.X, st, false)
				if rhs != nil {
					if x, ok := freelistAppend(c.info, l, rhs); ok {
						st = c.markReleased(x, "freelist append", rhs.Pos(), st)
					} else {
						st = c.escape(rhs, "field store", st)
					}
				}
			case *ast.IndexExpr:
				st = c.scan(l, st, false)
				if rhs != nil {
					st = c.escape(rhs, "container store", st)
				}
			case *ast.StarExpr:
				st = c.scan(l.X, st, false)
				if rhs != nil {
					st = c.escape(rhs, "pointer store", st)
				}
			}
		}
		return st
	case *ast.ExprStmt:
		return c.scan(s.X, st, false)
	case *ast.IncDecStmt:
		return c.scan(s.X, st, false)
	case *ast.SendStmt:
		st = c.scan(s.Chan, st, false)
		st = c.scan(s.Value, st, false)
		return c.escape(s.Value, "channel send", st)
	case *ast.GoStmt:
		st = c.scanCallShallow(s.Call, st)
		for _, arg := range s.Call.Args {
			st = c.escape(arg, "goroutine", st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st = c.scanBody(fl.Body, st)
			st = c.escapeCaptures(fl, "goroutine", st)
		}
		return st
	case *ast.DeferStmt:
		st = c.scanCallShallow(s.Call, st)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st = c.scanBody(fl.Body, st)
			st = c.escapeCaptures(fl, "deferred closure", st)
		}
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = c.scan(r, st, false)
		}
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = c.scan(v, st, false)
					}
				}
			}
		}
		return st
	case *ast.RangeStmt:
		// The walker already evaluated s.X; the loop variables rebind at
		// every iteration.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := c.objOf(id); obj != nil {
					delete(st.released, obj)
					delete(st.escaped, obj)
				}
			}
		}
		return st
	default:
		return st
	}
}

// scan walks an expression checking every identifier against the released
// set, applying release effects of calls, and treating closures created
// here as escapes for everything they capture (a stored closure can run
// after a later release). insideLit marks that the walk is already inside
// a function literal's body.
func (c *psClient) scan(e ast.Expr, st psState, insideLit bool) psState {
	switch x := e.(type) {
	case nil:
		return st
	case *ast.Ident:
		c.checkUse(x, st)
		return st
	case *ast.SelectorExpr:
		// Only the base is a value use; the selected name is not an
		// object reference in the released set.
		return c.scan(x.X, st, insideLit)
	case *ast.CallExpr:
		st = c.scanCallShallow(x, st)
		if fl, ok := x.Fun.(*ast.FuncLit); ok {
			// Immediately invoked literal: its body runs now, so check
			// uses but register no escape.
			st = c.scanBody(fl.Body, st)
			return st
		}
		if released, via, ok := releaseCall(c.info, x); ok {
			for _, arg := range released {
				st = c.markReleased(arg, via, x.Pos(), st)
			}
		}
		return st
	case *ast.FuncLit:
		// A literal that is not immediately invoked: uses inside it happen
		// whenever it runs — after any release already on this path — and
		// everything it captures may outlive the current statement.
		st = c.scanBody(x.Body, st)
		return c.escapeCaptures(x, "closure", st)
	case *ast.ParenExpr:
		return c.scan(x.X, st, insideLit)
	case *ast.StarExpr:
		return c.scan(x.X, st, insideLit)
	case *ast.UnaryExpr:
		return c.scan(x.X, st, insideLit)
	case *ast.BinaryExpr:
		st = c.scan(x.X, st, insideLit)
		return c.scan(x.Y, st, insideLit)
	case *ast.SliceExpr:
		st = c.scan(x.X, st, insideLit)
		for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
			if idx != nil {
				st = c.scan(idx, st, insideLit)
			}
		}
		return st
	case *ast.IndexExpr:
		st = c.scan(x.X, st, insideLit)
		return c.scan(x.Index, st, insideLit)
	case *ast.TypeAssertExpr:
		return c.scan(x.X, st, insideLit)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				st = c.scan(kv.Value, st, insideLit)
				continue
			}
			st = c.scan(el, st, insideLit)
		}
		return st
	case *ast.KeyValueExpr:
		return c.scan(x.Value, st, insideLit)
	default:
		return st
	}
}

// scanCallShallow checks the function expression and arguments of a call
// for uses of released objects, without applying the call's own effects.
func (c *psClient) scanCallShallow(call *ast.CallExpr, st psState) psState {
	if _, isLit := call.Fun.(*ast.FuncLit); !isLit {
		st = c.scan(call.Fun, st, false)
	}
	for _, arg := range call.Args {
		st = c.scan(arg, st, false)
	}
	return st
}

// scanBody checks a closure body against the current released set. The
// closure may introduce its own locals; rebinding inside the closure is
// not tracked — uses of outer released objects are what matter.
func (c *psClient) scanBody(body *ast.BlockStmt, st psState) psState {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			c.checkUse(id, st)
		}
		return true
	})
	return st
}

func (c *psClient) objOf(id *ast.Ident) types.Object {
	if obj := c.info.Defs[id]; obj != nil {
		return obj
	}
	return c.info.Uses[id]
}

// checkUse reports a read of an object the current path has released.
func (c *psClient) checkUse(id *ast.Ident, st psState) {
	obj := c.info.Uses[id]
	if obj == nil {
		return
	}
	fact, ok := st.released[obj]
	if !ok || c.reported[id.Pos()] {
		return
	}
	c.reported[id.Pos()] = true
	steps := []FlowStep{{
		Pos:  c.pass.Pkg.Fset.Position(fact.pos),
		Desc: fact.name + " released here (" + fact.via + ")",
	}, {
		Pos:  c.pass.Pkg.Fset.Position(id.Pos()),
		Desc: id.Name + " used here",
	}}
	c.pass.ReportRangef(id.Pos(), id.End(), steps,
		"use of %s after its release (%s on line %d); the pooled object may already be recycled",
		id.Name, fact.via, c.pass.Pkg.Fset.Position(fact.pos).Line)
}

// release marks the object behind e — and everything the flow graph says
// aliased it before this point — as released, flagging releases of
// already-escaped objects.
func (c *psClient) markReleased(e ast.Expr, via string, pos token.Pos, st psState) psState {
	for _, root := range c.graph.roots(e, nil) {
		name := root.obj.Name()
		for _, obj := range c.aliasesBefore(root.obj, pos) {
			if esc, ok := st.escaped[obj]; ok && !c.reported[pos] {
				c.reported[pos] = true
				steps := []FlowStep{{
					Pos:  c.pass.Pkg.Fset.Position(esc.pos),
					Desc: obj.Name() + " escapes here (" + esc.via + ")",
				}, {
					Pos:  c.pass.Pkg.Fset.Position(pos),
					Desc: name + " released here (" + via + ")",
				}}
				c.pass.ReportRangef(pos, token.NoPos, steps,
					"%s is released after escaping (%s on line %d); the escapee may use it after recycling",
					name, esc.via, c.pass.Pkg.Fset.Position(esc.pos).Line)
			}
			if _, ok := st.released[obj]; !ok {
				st.released[obj] = poolFact{pos: pos, via: via, name: name}
			}
		}
	}
	return st
}

// escape marks the objects behind e (and their prior aliases) as escaped.
func (c *psClient) escape(e ast.Expr, via string, st psState) psState {
	for _, root := range c.graph.roots(e, nil) {
		if !isRefType(root.obj.Type()) {
			continue
		}
		for _, obj := range c.aliasesBefore(root.obj, e.Pos()) {
			if _, ok := st.escaped[obj]; !ok {
				st.escaped[obj] = escFact{pos: e.Pos(), via: via}
			}
		}
	}
	return st
}

// escapeCaptures marks every outer object a function literal captures.
func (c *psClient) escapeCaptures(fl *ast.FuncLit, via string, st psState) psState {
	for _, obj := range c.captures(fl) {
		for _, o := range c.aliasesBefore(obj, fl.Pos()) {
			if _, ok := st.escaped[o]; !ok {
				st.escaped[o] = escFact{pos: fl.Pos(), via: via}
			}
		}
	}
	return st
}

// captures lists the ref-typed objects fl's body uses that are declared
// outside the literal.
func (c *psClient) captures(fl *ast.FuncLit) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.info.Uses[id]
		if obj == nil || seen[obj] || !isRefType(obj.Type()) {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
			return true // the literal's own local or parameter
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// aliasesBefore returns obj plus every object connected to it through
// flow-graph edges established before pos — the aliases that can already
// hold the same storage when the release/escape happens.
func (c *psClient) aliasesBefore(obj types.Object, pos token.Pos) []types.Object {
	out := []types.Object{obj}
	for _, other := range c.graph.AliasSet(obj) {
		if path, ok := c.graph.AliasPath(obj, other); ok {
			before := true
			for _, e := range path {
				if e.Pos >= pos {
					before = false
					break
				}
			}
			if before {
				out = append(out, other)
			}
		}
	}
	return out
}

// releaseCall reports whether call releases pooled objects, returning the
// released argument expressions and a human-readable description.
func releaseCall(info *types.Info, call *ast.CallExpr) (released []ast.Expr, via string, ok bool) {
	var name string
	var recv ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = fun.X
	default:
		return nil, "", false
	}
	switch name {
	case "Release", "release", "Recycle", "recycle":
		for _, arg := range call.Args {
			if isRefType(info.TypeOf(arg)) {
				released = append(released, arg)
			}
		}
		if len(released) == 0 && recv != nil && len(call.Args) == 0 {
			// f.Release(): the receiver itself is recycled.
			released = append(released, recv)
		}
		if len(released) == 0 {
			return nil, "", false
		}
		return released, name + " call", true
	case "Put":
		// sync.Pool.Put(x) recycles x.
		if recv == nil || len(call.Args) != 1 {
			return nil, "", false
		}
		if !isSyncPool(info.TypeOf(recv)) {
			return nil, "", false
		}
		return []ast.Expr{call.Args[0]}, "sync.Pool Put", true
	}
	return nil, "", false
}

// freelistAppend reports whether "recv.free = append(recv.free, x)" style
// recycling is happening, returning the appended object expression.
func freelistAppend(info *types.Info, lhs *ast.SelectorExpr, rhs ast.Expr) (ast.Expr, bool) {
	switch lhs.Sel.Name {
	case "free", "freeList", "freelist":
	default:
		return nil, false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return nil, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	// Single appended element that is a reference: the recycled node.
	if len(call.Args) != 2 || !isRefType(info.TypeOf(call.Args[1])) {
		return nil, false
	}
	return call.Args[1], true
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}
