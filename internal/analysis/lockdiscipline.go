package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline enforces the service's shard-ownership design: the fast
// path takes one uncontended lock per job (the shard's owner lock, by
// TryLock from a submitter or Lock from the shard's worker) and none per
// packet, and the few other locks that exist (registry families, the
// service lifecycle) are held briefly and released on every path.
// Two rules, checked per function over sync.Mutex / sync.RWMutex
// (including embedded) lock sites:
//
//  1. A lock acquired in a function must be released on all paths: either
//     a defer of the matching unlock, or an unlock reachable on every
//     return. Returning while a lock is held, or falling off the end of
//     the function without any matching unlock, is a finding.
//
//  2. No channel send, receive, or select while a lock is held. Blocking
//     on a channel under a lock couples the lock's critical section to
//     another goroutine's progress — the deadlock shape the ownership
//     design exists to avoid: what a job must tell another goroutine
//     (results, completion) is collected under the owner lock and sent
//     after it is released.
//
// A conditional acquisition counts where its success is known: inside
// `if mu.TryLock() { ... }`, and after `if !mu.TryLock() { return }`
// (also as one operand of an && / || chain in the condition).
//
// The analysis is intra-procedural and branch-local: a branch that
// unlocks before returning is fine; effects of one branch do not leak
// into its siblings. Lock identity is the receiver expression text plus
// the reader/writer mode, so mu.RLock()/mu.RUnlock() and
// mu.Lock()/mu.Unlock() pair independently.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "locks must be released on all paths and never held across channel operations",
	Run:  runLockDiscipline,
	Summary: func(prog *Program) string {
		return fmt.Sprintf("%d function bodies scanned", len(prog.Functions()))
	},
}

func runLockDiscipline(prog *Program, report Reporter) {
	// Each entry in the shared function index — declarations and literals
	// alike — is scanned as its own function: a literal's locks are its
	// own, not its enclosing function's.
	for _, fn := range prog.Functions() {
		if body := fn.Body(); body != nil {
			checkLockBody(fn.Pkg.Info, prog, body, report)
		}
	}
}

// lockState tracks which locks are held at a point in the scan. Deferred
// unlocks release the lock for path purposes (it cannot leak past a
// return) but the critical section still spans to the function's end, so
// the channel-operation rule keeps applying.
type lockState struct {
	held     map[string]ast.Node // lock key -> acquisition site
	deferred map[string]ast.Node // released at return, still held for chan ops
}

func newLockState() *lockState {
	return &lockState{held: map[string]ast.Node{}, deferred: map[string]ast.Node{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	return c
}

func (s *lockState) anyHeld() (string, ast.Node, bool) {
	for k, n := range s.held {
		return k, n, true
	}
	for k, n := range s.deferred {
		return k, n, true
	}
	return "", nil, false
}

type lockChecker struct {
	info    *types.Info
	prog    *Program
	report  Reporter
	unlocks map[string]int // unlock call count per key, anywhere in the function
}

func checkLockBody(info *types.Info, prog *Program, body *ast.BlockStmt, report Reporter) {
	c := &lockChecker{info: info, prog: prog, report: report, unlocks: map[string]int{}}
	// Pre-pass: count unlock sites per lock key so the end-of-function
	// check only fires for locks with no matching unlock at all (branchy
	// unlock placements the branch-local scan cannot prove are still
	// credited).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if key, locking, ok := c.lockCall(call); ok && !locking {
				c.unlocks[key]++
			}
		}
		return true
	})
	state := newLockState()
	c.scanStmts(body.List, state)
	for key, site := range state.held {
		if c.unlocks[key] == 0 {
			c.report(site.Pos(), "%s is locked but never unlocked in this function; release it on all paths (defer the unlock or unlock in the same block)", key)
		}
	}
}

// scanStmts walks a statement list in order, mutating state for linear
// control flow and cloning it for branches.
func (c *lockChecker) scanStmts(stmts []ast.Stmt, state *lockState) {
	for _, stmt := range stmts {
		c.scanStmt(stmt, state)
	}
}

func (c *lockChecker) scanStmt(stmt ast.Stmt, state *lockState) {
	// Channel operations anywhere inside this statement (closures and
	// nested branches handled structurally below).
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, locking, ok := c.lockCall(call); ok {
				if locking {
					state.held[key] = call
				} else {
					delete(state.held, key)
					delete(state.deferred, key)
				}
				return
			}
		}
		c.checkChanOps(s.X, state)
	case *ast.DeferStmt:
		if key, locking, ok := c.lockCall(s.Call); ok && !locking {
			if _, heldNow := state.held[key]; heldNow {
				state.deferred[key] = state.held[key]
				delete(state.held, key)
			}
			return
		}
		// defer func() { ...; mu.Unlock(); ... }() — treat any unlock in
		// the deferred closure as a deferred release.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, locking, ok := c.lockCall(call); ok && !locking {
						if _, heldNow := state.held[key]; heldNow {
							state.deferred[key] = state.held[key]
							delete(state.held, key)
						}
					}
				}
				return true
			})
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkChanOps(e, state)
		}
		if key, site, held := firstHeld(state.held); held {
			c.report(s.Pos(), "return while holding %s (locked at %s); unlock before returning or defer the unlock", key, c.prog.Fset.Position(site.Pos()))
		}
	case *ast.SendStmt:
		if key, site, held := state.anyHeld(); held {
			c.report(s.Pos(), "channel send while holding %s (locked at %s); never block on a channel under a lock", key, c.prog.Fset.Position(site.Pos()))
		}
		c.checkChanOps(s.Value, state)
	case *ast.SelectStmt:
		if key, site, held := state.anyHeld(); held {
			c.report(s.Pos(), "select while holding %s (locked at %s); never block on a channel under a lock", key, c.prog.Fset.Position(site.Pos()))
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			c.scanStmts(cc.Body, state.clone())
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkChanOps(e, state)
		}
	case *ast.DeclStmt:
		c.checkChanOps(s, state)
	case *ast.IncDecStmt:
		// no channel ops possible
	case *ast.GoStmt:
		// the goroutine body runs elsewhere; its locks are its own
	case *ast.BlockStmt:
		c.scanStmts(s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, state)
		}
		c.checkChanOps(s.Cond, state)
		body := state.clone()
		if key, call, ok := c.tryLockIn(s.Cond, token.LAND, false); ok {
			body.held[key] = call // the body runs only if TryLock succeeded
		}
		c.scanStmts(s.Body.List, body)
		if s.Else != nil {
			c.scanStmt(s.Else, state.clone())
		}
		if key, call, ok := c.tryLockIn(s.Cond, token.LOR, true); ok {
			state.held[key] = call // falling through means TryLock succeeded
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, state)
		}
		if s.Cond != nil {
			c.checkChanOps(s.Cond, state)
		}
		c.scanStmts(s.Body.List, state.clone())
	case *ast.RangeStmt:
		c.checkChanOps(s.X, state)
		c.scanStmts(s.Body.List, state.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, state)
		}
		if s.Tag != nil {
			c.checkChanOps(s.Tag, state)
		}
		for _, clause := range s.Body.List {
			c.scanStmts(clause.(*ast.CaseClause).Body, state.clone())
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			c.scanStmts(clause.(*ast.CaseClause).Body, state.clone())
		}
	case *ast.LabeledStmt:
		c.scanStmt(s.Stmt, state)
	}
}

// checkChanOps reports channel receives embedded in an expression (or
// declaration) evaluated while a lock is held. Closure bodies are skipped:
// defining a function under a lock is fine, only running one is not, and
// literal bodies are analyzed as functions in their own right.
func (c *lockChecker) checkChanOps(n ast.Node, state *lockState) {
	if n == nil {
		return
	}
	key, site, held := state.anyHeld()
	if !held {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.report(n.Pos(), "channel receive while holding %s (locked at %s); never block on a channel under a lock", key, c.prog.Fset.Position(site.Pos()))
			}
		}
		return true
	})
}

func firstHeld(m map[string]ast.Node) (string, ast.Node, bool) {
	for k, n := range m {
		return k, n, true
	}
	return "", nil, false
}

// tryLockIn finds a TryLock / TryRLock call among the operands of cond's
// top-level op chain (&& or ||), negated or not as asked: `a && mu.TryLock()`
// guarantees the lock inside the if body, `a || !mu.TryLock()` guarantees
// it on the path that skips the body.
func (c *lockChecker) tryLockIn(cond ast.Expr, op token.Token, negated bool) (string, ast.Node, bool) {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == op {
		if key, n, ok := c.tryLockIn(b.X, op, negated); ok {
			return key, n, true
		}
		return c.tryLockIn(b.Y, op, negated)
	}
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		if !negated {
			return "", nil, false
		}
		cond, negated = ast.Unparen(u.X), false
	}
	call, ok := cond.(*ast.CallExpr)
	if negated || !ok {
		return "", nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "TryLock" && sel.Sel.Name != "TryRLock") {
		return "", nil, false
	}
	obj, isFn := c.info.Uses[sel.Sel].(*types.Func)
	if !isFn || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", nil, false
	}
	key := exprText(sel.X)
	if sel.Sel.Name == "TryRLock" {
		key += " (read)"
	}
	return key, call, true
}

// lockCall classifies a call as a lock or unlock on a sync.Mutex or
// sync.RWMutex (direct or embedded). The key combines the receiver
// expression text with the reader/writer mode.
func (c *lockChecker) lockCall(call *ast.CallExpr) (key string, locking, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	obj, isFn := c.info.Uses[sel.Sel].(*types.Func)
	if !isFn || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false, false
	}
	recv := recvTypeName(obj)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", false, false
	}
	name := sel.Sel.Name
	mode := ""
	if strings.HasPrefix(name, "R") && recv == "RWMutex" {
		mode = "R"
	}
	key = exprText(sel.X)
	if mode == "R" {
		key += " (read)"
	}
	switch name {
	case "Lock", "RLock":
		return key, true, true
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// exprText renders the receiver expression of a lock call for pairing and
// messages (e.g. "s.mu", "t.mu").
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	default:
		return "lock"
	}
}
