// Package epochpin is the invariant pass enforcing the routing layer's
// epoch-pinning discipline: every routing table obtained from
// Router.AcquireModel must reach release() on every return path of the acquiring function — via defer, via a release on
// each branch, or by an explicit handoff (returning the pinned table,
// storing it, or passing it on transfers the obligation to the new
// owner). A pin that can leak keeps the epoch's in-flight refcount
// above zero forever, so Drain never completes and plan swaps wedge.
// Intentional leaks (e.g. a drain-timeout path that deliberately
// abandons the epoch) opt out with //lint:escape epochpin <reason>.
package epochpin

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Pass returns the registered form of the epochpin pass.
func Pass() analysis.Pass {
	return analysis.Pass{
		Name: "epochpin",
		Doc:  "Router.AcquireModel results must reach release() (or an explicit handoff) on every return path",
		Run:  run,
	}
}

func run(u *analysis.Unit, report func(token.Pos, string)) {
	for _, f := range u.Files {
		parents := analysis.Parents(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(u, fd, parents, report)
			}
		}
	}
}

// isAcquire reports whether the call is Router.AcquireModel from a
// package named serving (the fixtures' fake package matches the real one
// by name).
func isAcquire(u *analysis.Unit, call *ast.CallExpr) bool {
	fn := u.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "serving" {
		return false
	}
	if fn.Name() != "AcquireModel" {
		return false
	}
	return analysis.ReceiverNamed(fn, "Router")
}

// checkFunc tracks every statement-level acquire binding in the
// function. Bindings at the top level of the function body get the
// path-sensitive treatment; bindings nested inside branches fall back
// to an existence check (some release or handoff after the acquire).
func checkFunc(u *analysis.Unit, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, report func(token.Pos, string)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isAcquire(u, call) {
				report(call.Pos(), "acquired epoch is discarded: bind the routing table and release() it")
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !isAcquire(u, call) {
				return true
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name == "_" {
				report(call.Pos(), "acquired epoch is discarded: bind the routing table and release() it")
				return true
			}
			c := &pinCheck{u: u, obj: u.ObjectOf(lhs), fnName: u.CalleeFunc(call).Name(), report: report, pos: call.Pos()}
			if len(s.Lhs) == 2 {
				if errID, ok := s.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
					c.errObj = u.ObjectOf(errID)
				}
			}
			if c.obj == nil {
				return true
			}
			if block, ok := parents[s].(*ast.BlockStmt); ok && block == fd.Body {
				rest := restAfter(block.List, s)
				st, terminated := c.walk(rest, pinState{}, false)
				if !terminated && !st.rel {
					c.report(c.pos, c.leakMsg("function can fall off the end without releasing it"))
				}
			} else if !c.anyEffectAfter(fd.Body, s.End()) {
				c.report(c.pos, c.leakMsg("no release or handoff follows the acquire"))
			}
		}
		return true
	})
}

// restAfter returns the statements following s in list.
func restAfter(list []ast.Stmt, s ast.Stmt) []ast.Stmt {
	for i, st := range list {
		if st == s {
			return list[i+1:]
		}
	}
	return nil
}

// pinState is the abstract state of one pinned table along one path.
type pinState struct {
	// rel is true once release() is guaranteed (called, deferred, or the
	// pin escaped to a new owner).
	rel bool
}

// pinCheck carries one tracked acquire through the path walk.
type pinCheck struct {
	u      *analysis.Unit
	obj    types.Object // the pinned *RoutingTable variable
	errObj types.Object // error result of the acquire, exempting err-check branches
	fnName string
	report func(token.Pos, string)
	pos    token.Pos
}

func (c *pinCheck) leakMsg(how string) string {
	return "epoch pinned by " + c.fnName + " may leak: " + how +
		" (defer release(), release on every path, or //lint:escape epochpin)"
}

// walk interprets a statement list, returning the state after it and
// whether every path through it terminated (returned or panicked).
// errExempt marks paths where the acquire failed (table is nil).
func (c *pinCheck) walk(stmts []ast.Stmt, st pinState, errExempt bool) (pinState, bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			if !st.rel && !errExempt && !c.mentions(s) {
				c.report(s.Pos(), c.leakMsg("this return path drops the pin"))
			}
			return st, true
		case *ast.DeferStmt:
			if c.effect(s.Call) {
				st.rel = true
			}
		case *ast.BlockStmt:
			var term bool
			st, term = c.walk(s.List, st, errExempt)
			if term {
				return st, true
			}
		case *ast.LabeledStmt:
			var term bool
			st, term = c.walk([]ast.Stmt{s.Stmt}, st, errExempt)
			if term {
				return st, true
			}
		case *ast.IfStmt:
			if s.Init != nil {
				st, _ = c.walk([]ast.Stmt{s.Init}, st, errExempt)
			}
			bodyExempt := errExempt || c.isErrCheck(s.Cond)
			bSt, bTerm := c.walk(s.Body.List, st, bodyExempt)
			eSt, eTerm := st, false
			if s.Else != nil {
				eSt, eTerm = c.walk([]ast.Stmt{s.Else}, st, errExempt)
			}
			if bTerm && eTerm {
				return st, true
			}
			st.rel = (bTerm || bSt.rel) && (eTerm || eSt.rel)
		case *ast.ForStmt:
			// The body may run zero times, so nothing it does is
			// guaranteed; returns inside it are still checked.
			c.walk(s.Body.List, st, errExempt)
			if s.Cond == nil && !hasBreak(s.Body) {
				return st, true // for{} without break never falls through
			}
		case *ast.RangeStmt:
			c.walk(s.Body.List, st, errExempt)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var term bool
			st, term = c.walkBranches(stmt, st, errExempt)
			if term {
				return st, true
			}
		case *ast.GoStmt:
			if c.effect(s.Call) {
				st.rel = true // handed off to the goroutine
			}
		default:
			if c.terminates(stmt) {
				return st, true
			}
			if c.effect(stmt) {
				st.rel = true
			}
		}
	}
	return st, false
}

// walkBranches handles switch/type-switch/select: the state after is
// the meet over branches; a select (or a switch with a default) whose
// branches all release-or-terminate guarantees the release.
func (c *pinCheck) walkBranches(stmt ast.Stmt, st pinState, errExempt bool) (pinState, bool) {
	var bodies [][]ast.Stmt
	exhaustive := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			bodies = append(bodies, cc.Body)
			if cc.List == nil {
				exhaustive = true
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CaseClause)
			bodies = append(bodies, cc.Body)
			if cc.List == nil {
				exhaustive = true
			}
		}
	case *ast.SelectStmt:
		exhaustive = true // select executes exactly one branch
		for _, cl := range s.Body.List {
			bodies = append(bodies, cl.(*ast.CommClause).Body)
		}
	}
	allDone, allTerm := true, len(bodies) > 0
	for _, body := range bodies {
		bSt, bTerm := c.walk(body, st, errExempt)
		if !bTerm {
			allTerm = false
			if !bSt.rel {
				allDone = false
			}
		}
	}
	if exhaustive && allTerm {
		return st, true
	}
	st.rel = st.rel || (exhaustive && allDone)
	return st, false
}

// hasBreak reports whether the loop body contains a break that exits it
// (nested loops shadow theirs; labels are treated conservatively).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt:
			if n.(*ast.BranchStmt).Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		}
		return !found
	})
	return found
}

// isErrCheck reports whether cond is `err != nil` for the acquire's
// error result — the branch where the table is nil and needs no release.
func (c *pinCheck) isErrCheck(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ || c.errObj == nil {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && c.u.ObjectOf(id) == c.errObj {
			return true
		}
	}
	return false
}

// mentions reports whether the return statement carries the pinned
// table (a handoff: the caller inherits the release obligation).
func (c *pinCheck) mentions(ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		if c.refersTo(res) {
			return true
		}
	}
	return false
}

// refersTo reports whether the subtree uses the pinned variable.
func (c *pinCheck) refersTo(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.u.ObjectOf(id) == c.obj {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether the statement unconditionally ends the
// function (panic, os.Exit, log.Fatal*, runtime.Goexit).
func (c *pinCheck) terminates(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && c.u.ObjectOf(id) == nil {
		return true
	}
	fn := c.u.CalleeFunc(call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln":
		return true
	}
	return false
}

// effect reports whether the node releases the pin or lets it escape to
// a new owner (call argument, store into a field/index/alias, composite
// literal, address-of, channel send, or capture by a closure).
func (c *pinCheck) effect(n ast.Node) bool {
	if n == nil {
		return false
	}
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[nd] = stack[len(stack)-1]
		}
		descend := !found
		switch v := nd.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && c.u.ObjectOf(id) == c.obj &&
					(sel.Sel.Name == "release" || sel.Sel.Name == "Release") {
					found = true // the release itself
					descend = false
				}
			}
		case *ast.FuncLit:
			if c.refersTo(v.Body) {
				found = true // captured by a closure: handoff
			}
			descend = false
		case *ast.Ident:
			if c.u.ObjectOf(v) == c.obj && c.escapesAt(v, parents) {
				found = true
				descend = false
			}
		}
		if descend {
			stack = append(stack, nd)
		}
		return descend
	})
	return found
}

// escapesAt classifies one use of the pinned variable by its parent:
// reads (selector base, index base, comparisons) keep the obligation
// here; value positions hand it off.
func (c *pinCheck) escapesAt(id *ast.Ident, parents map[ast.Node]ast.Node) bool {
	switch p := parents[id].(type) {
	case *ast.SelectorExpr:
		return false // rt.Field / rt.Method(): a read
	case *ast.IndexExpr:
		return p.Index == ast.Expr(id) // base position is a read
	case *ast.BinaryExpr:
		return false // comparison: a read
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(id) {
				return true // passed to a callee: handoff
			}
		}
		return false
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.KeyValueExpr, *ast.CompositeLit, *ast.SendStmt:
		return true
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(id) {
				return true // reassigned: stop tracking the old pin
			}
		}
		return true // stored somewhere (field, index, alias): handoff
	case *ast.ValueSpec:
		return true
	}
	return false
}

// anyEffectAfter reports whether any release or handoff of the pin
// occurs after pos anywhere in the function (the conservative check for
// acquires nested inside branches).
func (c *pinCheck) anyEffectAfter(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if n.Pos() >= pos && c.effect(n) {
			found = true
		}
		return !found
	})
	return found
}
