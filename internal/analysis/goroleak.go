package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak checks goroutine lifecycles: the workers, the start watcher
// and telemetry servers the service spawns must all terminate when the
// service shuts down, or Close hangs on its WaitGroup and every test
// leaks a goroutine.
//
// Two rules, both module-wide over the call graph:
//
//  1. Every go statement's target must have a provable termination
//     path. The heuristic: an unconditional loop (for { ... }) in the
//     goroutine's body must contain an exit statement — a return, or a
//     labeled break/goto — typically the `case <-ctx.Done(): return`
//     clause of its select. Bounded and range loops, and loop-free
//     bodies, pass. A go statement whose target cannot be resolved
//     statically is reported, not ignored.
//  2. Every sync.WaitGroup.Add must be matched by a Done on the same
//     WaitGroup variable somewhere in the module (object identity, so
//     a field Add in one package matches the deferred Done in another).
//
// Deliberate fire-and-forget goroutines can be waived at the go
// statement with //gflint:ignore goroleak <reason>.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine needs a termination path, every WaitGroup.Add a reachable Done",
	Run:  runGoroLeak,
	Summary: func(prog *Program) string {
		gos, adds := 0, 0
		for _, fn := range prog.Functions() {
			gos += len(fn.Gos())
		}
		for _, pkg := range prog.Pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if obj, ok := calleeObject(pkg.Info, call).(*types.Func); ok && obj.FullName() == wgAdd {
							adds++
						}
					}
					return true
				})
			}
		}
		return fmt.Sprintf("%d goroutines, %d WaitGroup.Add sites", gos, adds)
	},
}

const (
	wgAdd  = "(*sync.WaitGroup).Add"
	wgDone = "(*sync.WaitGroup).Done"
)

func runGoroLeak(prog *Program, report Reporter) {
	g := prog.CallGraph()

	// Rule 1: goroutine targets. Collect the distinct target set first so
	// a worker launched from several places is checked once.
	targets := make(map[*Function]bool)
	var order []*Function
	for _, fn := range g.Functions() {
		for _, call := range fn.Calls() {
			if !call.Go {
				continue
			}
			if call.Unresolved {
				report(call.Site.Pos(), "cannot resolve the target of this go statement; its lifecycle is unverifiable — call a declared function or literal directly")
				continue
			}
			for _, callee := range call.Callees {
				if !targets[callee] {
					targets[callee] = true
					order = append(order, callee)
				}
			}
		}
	}
	for _, target := range order {
		checkGoroutineBody(target, report)
	}

	// Rule 2: WaitGroup Add/Done pairing by variable object identity.
	checkWaitGroups(prog, report)
}

// checkGoroutineBody flags unconditional loops with no exit statement in
// the body a go statement runs. Only the immediate target is checked:
// loops further down the call chain belong to functions with their own
// contracts.
func checkGoroutineBody(fn *Function, report Reporter) {
	fn.Walk(func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !hasLoopExit(loop.Body) {
			report(loop.Pos(), "unconditional loop in goroutine %s has no exit path; select on ctx.Done or a termination channel and return", fn.Name())
		}
		return true
	})
}

// hasLoopExit reports whether the loop body contains a statement that
// can leave the loop: a return, or a labeled break/goto. An unlabeled
// break is not counted — inside the select or switch these loops wrap,
// it only exits the clause.
func hasLoopExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested goroutine/closure exits itself, not this loop
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Label != nil && (n.Tok == token.BREAK || n.Tok == token.GOTO) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkWaitGroups matches every (*sync.WaitGroup).Add call against Done
// references on the same variable. Receivers are resolved to their
// innermost named object — a struct field or variable — so identity
// holds across packages; receivers that are not simple variable chains
// (map elements, function results) are skipped rather than guessed.
func checkWaitGroups(prog *Program, report Reporter) {
	type addSite struct {
		pos  token.Pos
		name string
	}
	adds := make(map[types.Object][]addSite)
	var addOrder []types.Object
	dones := make(map[types.Object]bool)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				method, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				switch method.FullName() {
				case wgAdd:
					recv, name := receiverVar(pkg.Info, sel.X)
					if recv != nil {
						if _, seen := adds[recv]; !seen {
							addOrder = append(addOrder, recv)
						}
						adds[recv] = append(adds[recv], addSite{sel.Pos(), name})
					}
				case wgDone:
					// Any reference counts: a call, a deferred call, or a
					// method value handed to a worker.
					if recv, _ := receiverVar(pkg.Info, sel.X); recv != nil {
						dones[recv] = true
					}
				}
				return true
			})
		}
	}
	for _, recv := range addOrder {
		if dones[recv] {
			continue
		}
		for _, site := range adds[recv] {
			report(site.pos, "sync.WaitGroup.Add on %s has no matching Done anywhere in the module; the Wait can never return", site.name)
		}
	}
}

// receiverVar resolves a WaitGroup receiver expression (wg, s.done,
// w.pool.wg, possibly through pointers) to the variable or field object
// naming it, plus a display name.
func receiverVar(info *types.Info, e ast.Expr) (types.Object, string) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v, x.Name
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v, types.ExprString(x)
		}
	case *ast.StarExpr:
		return receiverVar(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return receiverVar(info, x.X)
		}
	}
	return nil, ""
}
