package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the "zero added allocations" promise on the packet
// fast path. A function annotated //gf:hotpath in its doc comment — the
// VSwitch process chain, the LTM/megaflow/microflow lookups, the
// telemetry counter increments — may not contain heap-allocating
// constructs:
//
//   - calls into package fmt (formatting always allocates);
//   - string concatenation and string<->byte/rune-slice conversions;
//   - map, slice, and function (closure) literals;
//   - make, new, and &T{...};
//   - append, unless it targets a struct-field-backed reusable buffer
//     (c.buf = append(c.buf[:0], ...)), the amortized-zero idiom the
//     caches use for their lookup scratch;
//   - interface conversions that box a non-pointer value (pointers fit in
//     the interface word; everything else escapes).
//
// Cold work, such as compiling a slowpath miss, must be factored into
// separate functions behind a //gf:hotpath-safe boundary rather than
// waived: the hot function stays small enough to read at a glance and
// the invariant stays machine-checked.
//
// HotAlloc is intra-procedural: it checks annotated bodies only. Its
// interprocedural twin hotcall applies the same allocation rules (plus
// the blocking rules) to every function transitively reachable from a
// //gf:hotpath root.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//gf:hotpath functions must be free of heap-allocating constructs",
	Run:  runHotAlloc,
	Summary: func(prog *Program) string {
		n := 0
		for _, fn := range prog.Functions() {
			if fn.Decl != nil && hasDirective(fn.Decl.Doc, hotpathDirective) {
				n++
			}
		}
		return fmt.Sprintf("%d hot functions", n)
	},
}

const (
	hotpathDirective = "gf:hotpath"
	hotsafeDirective = "gf:hotpath-safe"
)

func runHotAlloc(prog *Program, report Reporter) {
	for _, fn := range prog.Functions() {
		if fn.Decl == nil || fn.Decl.Body == nil || !hasDirective(fn.Decl.Doc, hotpathDirective) {
			continue
		}
		checkAllocBody(fn.Pkg.Info, fn.Decl.Body, fn.Decl.Name.Name, report)
	}
}

// checkAllocBody applies the hot-path allocation rules to one function
// body. label names the function in messages — the bare name for
// hotalloc's annotated roots, "name (hot via root)" when hotcall checks
// a transitively reachable callee.
func checkAllocBody(info *types.Info, body *ast.BlockStmt, label string, report Reporter) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal in hot function %s allocates; hoist it or pass a method value from a cold caller", label)
			return false // the closure body is cold by definition
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal in hot function %s allocates", label)
			case *types.Slice:
				report(n.Pos(), "slice literal in hot function %s allocates", label)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal in hot function %s heap-allocates", label)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				report(n.Pos(), "string concatenation in hot function %s allocates", label)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string append (+=) in hot function %s allocates", label)
			}
		case *ast.CallExpr:
			checkAllocCall(info, label, n, report)
		}
		return true
	})
}

func checkAllocCall(info *types.Info, label string, call *ast.CallExpr, report Reporter) {
	// Builtins: append / make / new.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if len(call.Args) > 0 && !isReusableBuffer(call.Args[0]) {
					report(call.Pos(), "append to a non-field-backed slice in hot function %s may allocate; use a reusable buffer (c.buf = append(c.buf[:0], ...))", label)
				}
			case "make":
				report(call.Pos(), "make in hot function %s allocates; preallocate in the constructor", label)
			case "new":
				report(call.Pos(), "new in hot function %s heap-allocates", label)
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune and friends.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, info.TypeOf(call.Args[0])
			if isString(to) && !isString(from) && !isUntypedConst(info, call.Args[0]) {
				report(call.Pos(), "conversion to string in hot function %s allocates", label)
			} else if isByteOrRuneSlice(to) && isString(from) {
				report(call.Pos(), "string-to-slice conversion in hot function %s allocates", label)
			}
		}
		return
	}
	// Calls into package fmt.
	if obj := calleeObject(info, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt.%s in hot function %s allocates; move formatting to a cold path", obj.Name(), label)
		return
	}
	// Interface boxing of non-pointer arguments.
	sig, ok := typeAsSignature(info.TypeOf(call.Fun))
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxesIntoInterface(info, pt, arg) {
			report(arg.Pos(), "passing non-pointer %s as interface in hot function %s boxes (heap-allocates) the value", info.TypeOf(arg), label)
		}
	}
}

// isReusableBuffer reports whether an append target is a struct field
// (optionally re-sliced, as in c.buf[:0]) — the amortized-allocation-free
// scratch-buffer idiom. Appending to a plain local or fresh slice grows
// from nothing and allocates on the hot path.
func isReusableBuffer(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			return true
		default:
			return false
		}
	}
}

// calleeObject resolves the called function's object (nil for indirect
// calls through function values).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// boxesIntoInterface reports whether assigning arg to a parameter of type
// param converts a concrete non-pointer value into an interface.
func boxesIntoInterface(info *types.Info, param types.Type, arg ast.Expr) bool {
	if param == nil || !types.IsInterface(param) {
		return false
	}
	at := info.TypeOf(arg)
	if at == nil || types.IsInterface(at) {
		return false // interface-to-interface carries the existing word
	}
	if b, ok := at.(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Info()&types.IsUntyped != 0 && isNilLiteral(arg)) {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the interface data word
	}
	return true
}

func isNilLiteral(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
