package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// This file is the shared interprocedural substrate every analyzer runs
// on: a Function index (one entry per executable body in the module —
// declared functions and methods, function literals, and package-level
// variable initializers) and a conservative static CallGraph over it.
//
// Both are built once per Program and cached, so the whole gflint suite
// shares one type-checked program and one graph: the intra-procedural
// analyzers (hotalloc, lockdiscipline, atomicmix, detrand) iterate the
// index instead of re-walking files, and the interprocedural ones
// (hotcall, goroleak, the hotcert report) traverse the graph.
//
// Resolution is conservative in the "sound over precise" direction:
//
//   - direct calls and method calls on concrete receivers resolve to the
//     single declared target (promoted methods from embedded fields
//     resolve to the embedding's actual method);
//   - a call through an interface method resolves to the set of methods
//     of every module type implementing that interface (the
//     implementing-type set), plus any non-module implementors;
//   - a call through a function value resolves to every module function,
//     method, or literal whose value is taken somewhere in the module
//     and whose signature matches the call;
//   - deferred calls and go statements produce edges flagged as such.
//
// A dynamic call with an empty candidate set is recorded as Unresolved
// rather than dropped — hotcall turns those into findings instead of
// silently certifying around them.

// Function is one analyzable body in the module.
type Function struct {
	Pkg  *Package
	Decl *ast.FuncDecl // declared function/method, nil otherwise
	Lit  *ast.FuncLit  // function literal, nil otherwise
	init []ast.Expr    // package-level var initializer expressions

	name string

	calls []Call
	gos   []*ast.GoStmt
}

// Name returns a stable display name: "Process" or "(*VSwitch).Process"
// for declarations, "func@file.go:12" for literals, "init@file.go" for
// package-level initializer expressions.
func (f *Function) Name() string { return f.name }

// Body returns the function body, or nil for package initializers and
// bodyless declarations.
func (f *Function) Body() *ast.BlockStmt {
	switch {
	case f.Decl != nil:
		return f.Decl.Body
	case f.Lit != nil:
		return f.Lit.Body
	}
	return nil
}

// Pos anchors diagnostics about the function as a whole.
func (f *Function) Pos() token.Pos {
	switch {
	case f.Decl != nil:
		return f.Decl.Pos()
	case f.Lit != nil:
		return f.Lit.Pos()
	case len(f.init) > 0:
		return f.init[0].Pos()
	}
	return token.NoPos
}

// Calls returns the function's own call sites (nested literals own
// theirs), resolved against the whole module.
func (f *Function) Calls() []Call { return f.calls }

// Gos returns the go statements launched directly from this body.
func (f *Function) Gos() []*ast.GoStmt { return f.gos }

// Walk visits the function's own nodes. Nested function literals are
// skipped — each is a Function in its own right — so a statement is
// visited exactly once across the whole index.
func (f *Function) Walk(visit func(n ast.Node) bool) {
	skipLits := func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return n == nil || visit(n)
	}
	if body := f.Body(); body != nil {
		ast.Inspect(body, skipLits)
		return
	}
	for _, e := range f.init {
		ast.Inspect(e, skipLits)
	}
}

// CallKind classifies how a call site was resolved.
type CallKind uint8

const (
	// CallStatic is a direct call to a declared function or a method on
	// a concrete receiver (including method expressions).
	CallStatic CallKind = iota
	// CallInterface dispatches through an interface method; Callees is
	// the implementing-type set.
	CallInterface
	// CallFuncValue calls through a function-typed value; Callees is the
	// set of address-taken functions and literals with matching
	// signatures.
	CallFuncValue
	// CallBuiltin invokes a language builtin (append, make, close, ...).
	CallBuiltin
	// CallConversion is a type conversion, not a call.
	CallConversion
)

// Call is one resolved call site.
type Call struct {
	Site     *ast.CallExpr
	Kind     CallKind
	Deferred bool // reached via a defer statement
	Go       bool // reached via a go statement

	// Callees are the module-defined candidate targets (one for static
	// calls, the full candidate set for dynamic ones).
	Callees []*Function
	// External are candidate targets declared outside the module
	// (standard library, or non-module implementors of an interface).
	External []*types.Func
	// Builtin is the builtin's name for CallBuiltin sites.
	Builtin string
	// Unresolved marks a dynamic call with an empty candidate set.
	Unresolved bool
}

// CallGraph indexes every Function in the Program and resolves every
// call site. Build it through Program.CallGraph.
type CallGraph struct {
	prog  *Program
	funcs []*Function

	byObj map[*types.Func]*Function
	byLit map[*ast.FuncLit]*Function

	// addrTaken marks declared functions referenced outside call
	// position; takenLits are literals not immediately invoked. Both are
	// the candidate pool for calls through function values.
	addrTaken map[*types.Func]bool
	takenLits map[*ast.FuncLit]bool

	implCache map[string]implSet
}

type implSet struct {
	funcs []*Function
	ext   []*types.Func
}

// Functions returns every Function in deterministic (package, position)
// order.
func (g *CallGraph) Functions() []*Function { return g.funcs }

// Functions lazily builds and caches the module-wide function index.
func (p *Program) Functions() []*Function {
	return p.CallGraph().Functions()
}

// CallGraph lazily builds and caches the module-wide call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:      prog,
		byObj:     make(map[*types.Func]*Function),
		byLit:     make(map[*ast.FuncLit]*Function),
		addrTaken: make(map[*types.Func]bool),
		takenLits: make(map[*ast.FuncLit]bool),
		implCache: make(map[string]implSet),
	}
	g.collectFunctions()
	g.collectTaken()
	for _, f := range g.funcs {
		g.resolveCalls(f)
	}
	return g
}

// collectFunctions builds the index: declarations, literals, and one
// pseudo-function per file holding package-level initializer
// expressions.
func (g *CallGraph) collectFunctions() {
	for _, pkg := range g.prog.Pkgs {
		for _, file := range pkg.Files {
			fname := filepath.Base(g.prog.Fset.Position(file.Pos()).Filename)
			var inits []ast.Expr
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							inits = append(inits, vs.Values...)
						}
					}
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := &Function{Pkg: pkg, Decl: fd, name: declName(pkg, fd)}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.byObj[obj.Origin()] = fn
				}
				g.funcs = append(g.funcs, fn)
			}
			if len(inits) > 0 {
				g.funcs = append(g.funcs, &Function{Pkg: pkg, init: inits, name: "init@" + fname})
			}
			// Literals anywhere in the file (bodies, initializers) are
			// their own Functions.
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				pos := g.prog.Fset.Position(lit.Pos())
				fn := &Function{Pkg: pkg, Lit: lit,
					name: fmt.Sprintf("func@%s:%d", fname, pos.Line)}
				g.byLit[lit] = fn
				g.funcs = append(g.funcs, fn)
				return true
			})
		}
	}
	sort.SliceStable(g.funcs, func(i, j int) bool {
		a, b := g.funcs[i], g.funcs[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Pos() < b.Pos()
	})
}

// declName renders "Name" or "(Recv).Name" / "(*Recv).Name".
func declName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	return "(" + recv + ")." + fd.Name.Name
}

// DisplayName renders a declared function for reports: methods as
// "(*Recv).Name" relative to their package, plain functions by name.
func DisplayName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(obj.Pkg())) + ")." + obj.Name()
	}
	return obj.Name()
}

// collectTaken finds every function whose value escapes into a variable,
// field, argument, or return — the candidate pool for function-value
// calls — and every literal not immediately invoked.
func (g *CallGraph) collectTaken() {
	for _, pkg := range g.prog.Pkgs {
		// Identifiers in call position: the Fun of a CallExpr (directly
		// or through a selector). Everything else naming a function is a
		// taken value.
		callPos := make(map[*ast.Ident]bool)
		invokedLits := make(map[*ast.FuncLit]bool)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callPos[fun] = true
				case *ast.SelectorExpr:
					callPos[fun.Sel] = true
				case *ast.FuncLit:
					invokedLits[fun] = true
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || callPos[id] {
				continue
			}
			g.addrTaken[fn.Origin()] = true
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && !invokedLits[lit] {
					g.takenLits[lit] = true
				}
				return true
			})
		}
	}
}

// resolveCalls records and resolves every call site owned by f.
func (g *CallGraph) resolveCalls(f *Function) {
	info := f.Pkg.Info
	// Defer/go call expressions, so the direct call sites can carry the
	// right flags.
	deferred := make(map[*ast.CallExpr]bool)
	goCalls := make(map[*ast.CallExpr]*ast.GoStmt)
	f.Walk(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			deferred[s.Call] = true
		case *ast.GoStmt:
			goCalls[s.Call] = s
			f.gos = append(f.gos, s)
		}
		return true
	})
	f.Walk(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c := g.resolveCall(info, call)
		c.Deferred = deferred[call]
		c.Go = goCalls[call] != nil
		f.calls = append(f.calls, c)
		return true
	})
}

// resolveCall classifies one call site.
func (g *CallGraph) resolveCall(info *types.Info, call *ast.CallExpr) Call {
	c := Call{Site: call}
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.Kind = CallConversion
		return c
	}

	// Immediately-invoked literal: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		c.Kind = CallStatic
		if target := g.byLit[lit]; target != nil {
			c.Callees = []*Function{target}
		}
		return c
	}

	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}

	if b, ok := obj.(*types.Builtin); ok {
		c.Kind = CallBuiltin
		c.Builtin = b.Name()
		return c
	}

	if fnObj, ok := obj.(*types.Func); ok {
		sig, _ := fnObj.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// Interface dispatch: resolve to the implementing-type set.
			c.Kind = CallInterface
			impls := g.implementors(sig.Recv().Type(), fnObj)
			c.Callees = impls.funcs
			c.External = impls.ext
			c.Unresolved = len(c.Callees) == 0 && len(c.External) == 0
			return c
		}
		c.Kind = CallStatic
		if target := g.byObj[fnObj.Origin()]; target != nil {
			c.Callees = []*Function{target}
		} else {
			c.External = []*types.Func{fnObj}
		}
		return c
	}

	// Function value: resolve to every taken function or literal with a
	// matching signature.
	c.Kind = CallFuncValue
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		if t := info.TypeOf(call.Fun); t != nil {
			sig, _ = t.Underlying().(*types.Signature)
		}
	}
	if sig == nil {
		c.Unresolved = true
		return c
	}
	for fnObj := range g.addrTaken {
		cand, _ := fnObj.Type().(*types.Signature)
		if cand == nil || !sigMatches(sig, cand) {
			continue
		}
		if target := g.byObj[fnObj]; target != nil {
			c.Callees = append(c.Callees, target)
		} else {
			c.External = append(c.External, fnObj)
		}
	}
	for lit := range g.takenLits {
		cand, _ := g.byLit[lit].Pkg.Info.TypeOf(lit).(*types.Signature)
		if cand != nil && sigMatches(sig, cand) {
			c.Callees = append(c.Callees, g.byLit[lit])
		}
	}
	sortCandidates(g.prog.Fset, &c)
	c.Unresolved = len(c.Callees) == 0 && len(c.External) == 0
	return c
}

// implementors returns the implementing-type set of an interface method:
// for every named non-interface type in the module whose type (or
// pointer type) implements the interface, the concrete method the
// dispatch would land on.
func (g *CallGraph) implementors(ifaceType types.Type, method *types.Func) implSet {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return implSet{}
	}
	key := types.TypeString(ifaceType, nil) + "." + method.Name()
	if s, ok := g.implCache[key]; ok {
		return s
	}
	var s implSet
	for _, named := range namedTypes(g.prog) {
		impl := implMethod(named, iface, method)
		if impl == nil {
			continue
		}
		if target := g.byObj[impl.Origin()]; target != nil {
			s.funcs = append(s.funcs, target)
		} else {
			s.ext = append(s.ext, impl)
		}
	}
	sort.Slice(s.funcs, func(i, j int) bool { return s.funcs[i].Pos() < s.funcs[j].Pos() })
	sort.Slice(s.ext, func(i, j int) bool { return s.ext[i].FullName() < s.ext[j].FullName() })
	g.implCache[key] = s
	return s
}

// namedTypes returns the program's named non-interface types: the
// candidates for implementing an interface.
func namedTypes(prog *Program) []*types.Named {
	var out []*types.Named
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					out = append(out, named)
				}
			}
		}
	}
	return out
}

// implMethod returns the method that an interface method dispatches to on
// named or *named, whichever implements iface, or nil when neither does.
func implMethod(named *types.Named, iface *types.Interface, method *types.Func) *types.Func {
	var recv types.Type
	switch {
	case types.Implements(named, iface):
		recv = named
	case types.Implements(types.NewPointer(named), iface):
		recv = types.NewPointer(named)
	default:
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(recv, true, method.Pkg(), method.Name())
	impl, _ := m.(*types.Func)
	return impl
}

// sigMatches reports whether a candidate function's signature (receiver
// stripped) is call-compatible with the call site's signature.
func sigMatches(call, cand *types.Signature) bool {
	if call.Variadic() != cand.Variadic() {
		return false
	}
	return types.Identical(
		types.NewSignatureType(nil, nil, nil, call.Params(), call.Results(), call.Variadic()),
		types.NewSignatureType(nil, nil, nil, cand.Params(), cand.Results(), cand.Variadic()))
}

// sortCandidates orders a dynamic call's candidate sets deterministically
// (map iteration built them).
func sortCandidates(fset *token.FileSet, c *Call) {
	sort.Slice(c.Callees, func(i, j int) bool {
		a, b := c.Callees[i], c.Callees[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Pos() < b.Pos()
	})
	sort.Slice(c.External, func(i, j int) bool {
		return c.External[i].FullName() < c.External[j].FullName()
	})
}

// externalPath returns the defining package path of a non-module callee
// ("" for universe-scope objects like error.Error).
func externalPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
