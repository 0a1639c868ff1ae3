package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode finds declarations the shipped code can lose without breaking
// any build: functions, methods, types and package-level vars of non-main
// packages (unexported ones everywhere, exported ones under internal/;
// constants name values of a format and are out of scope) that no
// non-test code outside the declaration (a type's methods count as part
// of it) and no test of another package references. A test of the
// declaration's own package could carry it in a _test.go file instead. A
// method that makes its type satisfy an interface declared in the module
// or in a standard-library package it imports (fmt.Stringer, error,
// json.Marshaler, …) is live. The rule needs every reference in view, so
// it reports nothing unless the program is the whole module (LoadModule).
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every declaration is referenced by non-test code or by another package's test",
	Run:  runDeadCode,
	Summary: func(prog *Program) string {
		if !prog.whole {
			return "off: not the whole module"
		}
		return fmt.Sprintf("%d declarations", len(deadCodeCandidates(prog)))
	},
}

// deadDecl is one declaration in scope and the nodes references from
// inside which do not count: its own, and a type's methods.
type deadDecl struct {
	kind string
	self []ast.Node
}

func runDeadCode(prog *Program, report Reporter) {
	if !prog.whole {
		return
	}
	decls := deadCodeCandidates(prog)
	live := interfaceMethods(prog)
	for _, pkg := range prog.Pkgs {
	uses:
		for id, obj := range pkg.Info.Uses {
			d := decls[origin(obj)]
			if d == nil {
				continue
			}
			for _, n := range d.self {
				if n.Pos() <= id.Pos() && id.Pos() < n.End() {
					continue uses
				}
			}
			live[origin(obj)] = true
		}
	}
	tests := prog.testRefs()
	for _, e := range tests.errs {
		report(e.pos, "cannot type-check tests (%v); their references are unknown", e.err)
	}
	for obj, d := range decls {
		if !live[obj] && !tests.used[obj] {
			name := obj.Name()
			if fn, ok := obj.(*types.Func); ok {
				name = DisplayName(fn)
			}
			report(obj.Pos(), "%s %s is referenced by no non-test code and by no other package's test", d.kind, name)
		}
	}
}

// deadCodeCandidates indexes the declarations in deadcode's scope.
func deadCodeCandidates(prog *Program) map[types.Object]*deadDecl {
	decls := make(map[types.Object]*deadDecl)
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		internal := strings.Contains("/"+pkg.Path+"/", "/internal/")
		add := func(id *ast.Ident, kind string, self ast.Node) {
			if obj := pkg.Info.Defs[id]; obj != nil && id.Name != "_" && (internal || !obj.Exported()) {
				decls[obj] = &deadDecl{kind: kind, self: []ast.Node{self}}
			}
		}
		var methods []*ast.FuncDecl
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						methods = append(methods, decl)
						add(decl.Name, "method", decl)
					} else if decl.Name.Name != "init" {
						add(decl.Name, "func", decl)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, "type", spec)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if decl.Tok == token.VAR {
									add(id, "var", spec)
								}
							}
						}
					}
				}
			}
		}
		for _, fd := range methods {
			recv := pkg.Info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && decls[named.Origin().Obj()] != nil {
				d := decls[named.Origin().Obj()]
				d.self = append(d.self, fd)
			}
		}
	}
	return decls
}

// origin looks through a generic instantiation to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// interfaceMethods returns, as a set, every module method that makes its
// type satisfy an interface: one the module declares (named, or a literal
// such as a constraint or an assertion's type) or one declared in a
// standard-library package the module imports, directly or not.
func interfaceMethods(prog *Program) map[types.Object]bool {
	var ifaces []*types.Interface
	seen := make(map[types.Type]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	candidates := namedTypes(prog)
	live := make(map[types.Object]bool)
	for _, iface := range ifaces {
		for _, named := range candidates {
			for i := 0; i < iface.NumMethods(); i++ {
				impl := implMethod(named, iface, iface.Method(i))
				if impl == nil {
					break
				}
				live[impl.Origin()] = true
			}
		}
	}
	return live
}

// testRefs holds every object a test uses that another package declares,
// and the test packages that did not type-check.
type testRefs struct {
	used map[types.Object]bool
	errs []testErr
}

type testErr struct {
	pos token.Pos
	err error
}

// testRefs lazily type-checks every package's tests: its in-package test
// files together with its own files, and its external _test package.
// Other module packages come through the loader, so a test's use of one
// of their objects is the object the analyzers see.
func (p *Program) testRefs() *testRefs {
	if p.tests != nil {
		return p.tests
	}
	r := &testRefs{used: make(map[types.Object]bool)}
	p.tests = r
	for _, pkg := range p.Pkgs {
		files, err := p.ld.parseDir(pkg.Dir, true)
		if err != nil {
			r.fail(pkg.Files, err)
			continue
		}
		var own, ext []*ast.File
		for _, f := range files {
			if f.Name.Name == pkg.Types.Name() {
				own = append(own, f)
			} else {
				ext = append(ext, f)
			}
		}
		var self *types.Package
		if len(own) > 0 {
			self, err = r.check(p, pkg.Path, pkg.Path, append(pkg.Files[:len(pkg.Files):len(pkg.Files)], own...), p.ld)
			r.fail(own, err)
		}
		if len(ext) > 0 {
			// The external package sees the package as the module does,
			// unless it needs what an export_test.go file declares: then
			// it sees it as its own tests do. (The go tool would rebuild
			// every dependency against the latter; the loader keeps one
			// copy of each.)
			_, err = r.check(p, pkg.Path, pkg.Path+"_test", ext, p.ld)
			if err != nil && self != nil {
				_, err = r.check(p, pkg.Path, pkg.Path+"_test", ext, importerFunc(func(path string) (*types.Package, error) {
					if path == pkg.Path {
						return self, nil
					}
					return p.ld.Import(path)
				}))
			}
			r.fail(ext, err)
		}
	}
	return r
}

// check type-checks one test package, records its uses of objects
// declared outside pkgPath, and returns its first type error.
func (r *testRefs) check(p *Program, pkgPath, path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	tpkg, err := conf.Check(path, p.Fset, files, info)
	for _, obj := range info.Uses {
		if obj.Pkg() != nil && obj.Pkg().Path() != pkgPath {
			r.used[origin(obj)] = true
		}
	}
	return tpkg, err
}

// fail records a test package's error, if any, at its position.
func (r *testRefs) fail(files []*ast.File, err error) {
	if te, ok := err.(types.Error); ok {
		r.errs = append(r.errs, testErr{te.Pos, te})
	} else if err != nil {
		r.errs = append(r.errs, testErr{files[0].Package, err})
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
