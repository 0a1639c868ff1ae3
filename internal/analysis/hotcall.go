package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotCall certifies the transitive closure of every //gf:hotpath
// function. Where hotalloc checks the annotated body, hotcall follows
// the call graph: every function reachable from a hot root is held to
// the allocation rules (for unannotated helpers; hotalloc already owns
// the roots) plus the blocking rules the fast path demands —
//
//   - no channel operations (send, receive, select, close, range over a
//     channel): a cache hit must never block;
//   - no goroutine launches and no defer (a defer costs a frame entry
//     on every hit);
//   - no calls into package sync: lock acquisition belongs behind a
//     //gf:hotpath-safe boundary, never on the hit path;
//   - no package-level time functions (time.Now, time.Since): only
//     //gf:hotpath-safe code may read the clock — the flight recorder's
//     anchored stamps are the one sanctioned pattern;
//   - external calls only into the certifiable leaf packages
//     (sync/atomic, math, math/bits, unsafe);
//   - no unresolvable dynamic calls: a function value or interface
//     method the call graph cannot resolve is reported, not ignored.
//
// The traversal stops at //gf:hotpath-safe boundaries: functions a hot
// root may call but that are cold inside (slowpath compilation, run
// capture). The annotation requires a reason and every crossing is
// surfaced in the HOTPATH.md certification report, so each exemption is
// a reviewed, auditable decision rather than a silent suppression.
var HotCall = &Analyzer{
	Name: "hotcall",
	Doc:  "everything transitively reachable from //gf:hotpath must be allocation- and block-free",
	Run: func(prog *Program, report Reporter) {
		for _, f := range prog.certify().findings {
			report(f.pos, "%s", f.msg)
		}
	},
	Summary: func(prog *Program) string {
		c := prog.certify()
		ok := 0
		for _, r := range c.roots {
			if r.ok {
				ok++
			}
		}
		return fmt.Sprintf("%d/%d roots certified, %d functions traversed, %d boundaries",
			ok, len(c.roots), c.traversed, len(c.bounds))
	},
}

// certifiableLeaves are the external packages hot code may call into:
// compiler-intrinsic or lock-free by construction.
var certifiableLeaves = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"unsafe":      true,
	"":            true, // universe scope (error.Error has no package)
}

// certFinding is a finding recorded during certification, replayed by
// the HotCall analyzer.
type certFinding struct {
	pos token.Pos
	msg string
}

// rootCert is the per-root traversal record behind one HOTPATH.md row.
type rootCert struct {
	fn       *Function
	maxDepth int      // longest call chain walked from the root
	visited  int      // functions certified in the closure (root included)
	bounds   []string // //gf:hotpath-safe boundaries crossed, in visit order
	ok       bool     // no findings anywhere in the closure
}

// boundaryCert is one //gf:hotpath-safe function and its stated reason.
type boundaryCert struct {
	fn     *Function
	reason string
}

// certification is the shared result of the hot-path traversal: hotcall
// replays its findings, hotcert renders its roots and boundaries. Built
// once per Program.
type certification struct {
	findings  []certFinding
	roots     []rootCert
	bounds    []boundaryCert
	traversed int // distinct functions rule-checked across all roots
}

// certify lazily builds and caches the module-wide certification.
func (p *Program) certify() *certification {
	if p.cert == nil {
		p.cert = buildCertification(p)
	}
	return p.cert
}

func buildCertification(prog *Program) *certification {
	c := &certification{}
	g := prog.CallGraph()
	record := func(pos token.Pos, format string, args ...any) {
		c.findings = append(c.findings, certFinding{pos, fmt.Sprintf(format, args...)})
	}

	// Boundary set first: //gf:hotpath-safe declarations, reason required.
	boundary := make(map[*Function]bool)
	for _, fn := range g.Functions() {
		if fn.Decl == nil {
			continue
		}
		safe, reason := directiveText(fn.Decl.Doc, hotsafeDirective)
		if !safe {
			continue
		}
		boundary[fn] = true
		c.bounds = append(c.bounds, boundaryCert{fn, reason})
		if reason == "" {
			record(fn.Pos(), "//gf:hotpath-safe on %s needs a reason: //gf:hotpath-safe <why cold work is confined here>", fn.Name())
		}
		if hasDirective(fn.Decl.Doc, hotpathDirective) {
			record(fn.Pos(), "%s is both //gf:hotpath and //gf:hotpath-safe; a function cannot be a certification root and a cold boundary", fn.Name())
		}
	}

	// Rule checks are memoized module-wide: a helper shared by several
	// roots is checked (and reported) once, under the first root that
	// reaches it; dirty remembers the outcome for later roots' verdicts.
	checked := make(map[*Function]bool)
	dirty := make(map[*Function]bool)
	check := func(fn, root *Function) {
		if checked[fn] {
			return
		}
		checked[fn] = true
		dirty[fn] = checkHotFunction(fn, root, prog.Module, record)
	}

	for _, root := range g.Functions() {
		if root.Decl == nil || !hasDirective(root.Decl.Doc, hotpathDirective) {
			continue
		}
		rc := rootCert{fn: root, ok: true}
		visited := make(map[*Function]bool)
		crossed := make(map[*Function]bool)
		var walk func(fn *Function, depth int)
		walk = func(fn *Function, depth int) {
			if visited[fn] {
				return
			}
			visited[fn] = true
			if depth > rc.maxDepth {
				rc.maxDepth = depth
			}
			if fn != root && boundary[fn] {
				if !crossed[fn] {
					crossed[fn] = true
					rc.bounds = append(rc.bounds, fn.Name())
				}
				return
			}
			check(fn, root)
			if dirty[fn] {
				rc.ok = false
			}
			for _, call := range fn.Calls() {
				for _, callee := range call.Callees {
					walk(callee, depth+1)
				}
			}
		}
		walk(root, 0)
		rc.visited = len(visited) - len(crossed)
		c.roots = append(c.roots, rc)
	}
	c.traversed = len(checked)
	return c
}

// checkHotFunction applies the blocking rules (all hot functions), the
// allocation rules (unannotated helpers only — hotalloc owns the
// annotated roots), and the call-site rules to one function. Reports
// through record and returns whether anything was found.
func checkHotFunction(fn, root *Function, module string, record func(pos token.Pos, format string, args ...any)) bool {
	isRoot := fn.Decl != nil && hasDirective(fn.Decl.Doc, hotpathDirective)
	label := fn.Name()
	if !isRoot {
		label = fmt.Sprintf("%s (hot via %s)", fn.Name(), root.Name())
	}
	found := false
	report := func(pos token.Pos, format string, args ...any) {
		found = true
		record(pos, format, args...)
	}

	fn.Walk(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			report(n.Pos(), "defer in hot function %s; the hot path must not pay for frame cleanup", label)
		case *ast.GoStmt:
			report(n.Pos(), "go statement in hot function %s; the hot path must not spawn goroutines", label)
		case *ast.SendStmt:
			report(n.Pos(), "channel send in hot function %s; the hot path must never block", label)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive in hot function %s; the hot path must never block", label)
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select in hot function %s; the hot path must never block", label)
		case *ast.RangeStmt:
			if t := fn.Pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "range over channel in hot function %s; the hot path must never block", label)
				}
			}
		}
		return true
	})

	if !isRoot {
		if body := fn.Body(); body != nil {
			checkAllocBody(fn.Pkg.Info, body, label, report)
		}
	}

	for _, call := range fn.Calls() {
		checkHotCallSite(call, label, module, report)
	}
	return found
}

// checkHotCallSite vets one call site of a hot function: channel close,
// unresolvable dynamic calls, and external callees outside the
// certifiable leaves. Callees in module packages that were type-checked
// as dependencies but not loaded for analysis (pattern-limited runs)
// are skipped: the whole-module run — the one that generates HOTPATH.md
// and gates CI — resolves and certifies them.
func checkHotCallSite(call Call, label, module string, report Reporter) {
	switch call.Kind {
	case CallConversion:
		return
	case CallBuiltin:
		if call.Builtin == "close" {
			report(call.Site.Pos(), "channel close in hot function %s; hot code must not manage channel lifecycles", label)
		}
		return
	}
	if call.Unresolved {
		if call.Kind == CallInterface {
			report(call.Site.Pos(), "interface call in hot function %s has no known implementation; the hot path cannot be certified through it", label)
		} else {
			report(call.Site.Pos(), "dynamic call in hot function %s cannot be resolved statically; hot code must call certified functions directly", label)
		}
		return
	}
	for _, ext := range call.External {
		switch path := externalPath(ext); path {
		case "sync":
			report(call.Site.Pos(), "call to sync.%s in hot function %s; locking belongs behind a //gf:hotpath-safe boundary", DisplayName(ext), label)
		case "time":
			if sig, ok := ext.Type().(*types.Signature); ok && sig.Recv() == nil {
				report(call.Site.Pos(), "time.%s in hot function %s; only //gf:hotpath-safe code may read the clock", ext.Name(), label)
			}
		default:
			if certifiableLeaves[path] {
				continue
			}
			if module != "" && (path == module || strings.HasPrefix(path, module+"/")) {
				continue // module package outside this pattern-limited run
			}
			report(call.Site.Pos(), "call to %s.%s in hot function %s is not certifiable; move it behind a //gf:hotpath-safe boundary", path, ext.Name(), label)
		}
	}
}
