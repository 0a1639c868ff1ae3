package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package.
type Package struct {
	Path  string // import path, e.g. "gigaflow/internal/gigaflow"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded set of packages sharing one FileSet, ready for the
// analyzers. Packages loaded through one Program share type-object
// identity, so analyzers can correlate uses of the same field or function
// across packages.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Module is the go.mod module path; analyzers use it to tell module
	// packages type-checked as dependencies (in pattern-limited runs)
	// from genuinely external code.
	Module string

	// whole marks a program of every package of the module (LoadModule),
	// the only one deadcode runs on.
	whole bool
	ld    *loader

	// Shared analyzer infrastructure, built once on demand: the function
	// index and call graph (Functions/CallGraph), the hot-path
	// certification (certification) and the objects other packages'
	// tests reference (testRefs). Analyzers must not mutate them.
	graph *CallGraph
	cert  *certification
	tests *testRefs
}

// LoadModule loads and type-checks every package under the module rooted
// at root, skipping testdata, hidden, and underscore-prefixed directories
// as the go tool does. Test files (_test.go) are not loaded: the
// invariants gflint enforces are fast-path and simulator properties of
// production code, and several (hotalloc, detrand) explicitly exempt
// tests.
func LoadModule(root string) (*Program, error) {
	var rels []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if len(rels) == 0 || rels[len(rels)-1] != rel {
			rels = append(rels, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	prog, err := LoadDirs(root, rels...)
	if prog != nil {
		prog.whole = true
	}
	return prog, err
}

// LoadDirs loads and type-checks the packages in the given
// module-root-relative directories (plus, transitively, any module
// packages they import). Only the listed directories appear in the
// returned Program; dependencies are type-checked but not analyzed.
func LoadDirs(root string, rels ...string) (*Program, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    absRoot,
		module:  modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	prog := &Program{Fset: l.fset, Module: modPath, ld: l}
	seen := make(map[string]bool)
	for _, rel := range rels {
		path := l.importPath(rel)
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// loader resolves and type-checks module packages on demand, delegating
// imports outside the module to the source importer (which type-checks
// the standard library from GOROOT source — no compiled export data or
// x/tools needed).
type loader struct {
	fset    *token.FileSet
	root    string
	module  string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func (l *loader) importPath(rel string) string {
	rel = filepath.ToSlash(filepath.Clean(rel))
	if rel == "." {
		return l.module
	}
	return l.module + "/" + rel
}

// Import implements types.Importer for the type-checker: module-internal
// paths load through the loader (preserving object identity), everything
// else falls through to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.root
	if path != l.module {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file of the single package in dir,
// or with tests every _test.go file (which may hold two packages: the
// package's own and its external _test package).
func (l *loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if tests {
			files = append(files, f)
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s holds two packages (%s, %s)", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, nil
}
