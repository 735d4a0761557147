package lint

// The hotpath analyzer checks functions annotated //exspan:hotpath — the
// alloc-fenced paths: rule firing, round apply/fire, simnet dispatch, scheduler
// delivery, intern lookups and the AppendKey family — for allocation-
// introducing constructs. The runtime fences (engine/hotpath_test.go,
// simnet/hotpath_test.go, types/intern_test.go) measure actual allocations;
// this analyzer catches the construct classes at review time, before a
// change ever runs:
//
//   - map/slice composite literals and make() calls
//   - string([]byte) / []byte(string) / []rune conversions, except the
//     compiler-optimized map-lookup and comparison forms
//   - closures capturing variables
//   - interface boxing at call sites (concrete argument, interface param)
//   - fmt.* calls
//   - append rooted at package-level state (receiver-, parameter- and
//     local-rooted appends are the amortized arena idiom and stay legal),
//     and appends whose result is discarded
//
// Escape hatch: //exspanlint:alloc-ok <reason> (e.g. error paths).

import (
	"go/ast"
	"go/types"
)

var HotpathAnalyzer = &Analyzer{
	Name:     "hotpath",
	Doc:      "flags allocation-introducing constructs inside //exspan:hotpath functions",
	Suppress: "alloc-ok",
	Run:      runHotpath,
}

const hotpathMarker = "//exspan:hotpath"

func runHotpath(p *Pass) {
	info := p.Pkg.Info
	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		if !funcAnnotated(fd, hotpathMarker) {
			return
		}
		w := &hotpathWalker{p: p, info: info, fd: fd}
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			w.visit(n, stack)
			stack = append(stack, n)
			return true
		})
	})
}

// hotpathWalker walks a hot function's body keeping the parent chain, which
// the conversion check needs to recognize the compiler-optimized
// m[string(b)] lookup and string(b) == s comparison forms.
type hotpathWalker struct {
	p    *Pass
	info *types.Info
	fd   *ast.FuncDecl
}

func (w *hotpathWalker) visit(n ast.Node, parents []ast.Node) {
	switch x := n.(type) {
	case *ast.CompositeLit:
		t := w.info.Types[x].Type
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				w.p.Reportf(x.Pos(), "map literal allocates in a hot path")
			case *types.Slice:
				w.p.Reportf(x.Pos(), "slice literal allocates in a hot path")
			}
		}
	case *ast.FuncLit:
		if name, ok := w.capturedVar(x); ok {
			w.p.Reportf(x.Pos(), "closure captures %s: the capture allocates in a hot path", name)
		}
		// The literal body runs on the hot path too; Inspect walks it.
	case *ast.CallExpr:
		w.checkCall(x, parents)
	}
}

func (w *hotpathWalker) checkCall(call *ast.CallExpr, parents []ast.Node) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := w.info.Types[fun]; ok && tv.IsType() {
		w.checkConversion(call, tv.Type, parents)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.p.Reportf(call.Pos(), "make() allocates in a hot path")
			case "append":
				w.checkAppend(call, parents)
			}
			return
		}
	}
	if pkgPath, name := calleePkgFunc(w.info, call); pkgPath == "fmt" {
		w.p.Reportf(call.Pos(), "fmt.%s allocates (formatting + boxing) in a hot path", name)
		return // boxing into ...any args is implied; one finding is enough
	}
	w.checkBoxing(call)
}

// checkConversion flags string<->[]byte/[]rune conversions, excepting the
// two forms the compiler compiles allocation-free: a map lookup keyed by
// string(b) (rvalue position only) and a comparison against string(b).
func (w *hotpathWalker) checkConversion(call *ast.CallExpr, to types.Type, parents []ast.Node) {
	if len(call.Args) != 1 {
		return
	}
	from := w.info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	toStr, fromStr := isString(to), isString(from)
	toBytes, fromBytes := isByteOrRuneSlice(to), isByteOrRuneSlice(from)
	switch {
	case toStr && fromBytes:
		if w.freeStringConversion(parents) {
			return
		}
		w.p.Reportf(call.Pos(), "string(%s) conversion copies in a hot path (map-lookup and comparison forms are exempt)", typeShort(from))
	case toBytes && fromStr:
		w.p.Reportf(call.Pos(), "%s(string) conversion copies in a hot path", typeShort(to))
	}
}

// freeStringConversion reports whether the conversion's parent is a form
// the compiler optimizes to zero allocations: m[string(b)] as an rvalue,
// or string(b) ==/!=/</> s.
func (w *hotpathWalker) freeStringConversion(parents []ast.Node) bool {
	if len(parents) == 0 {
		return false
	}
	parent := parents[len(parents)-1]
	switch par := parent.(type) {
	case *ast.BinaryExpr:
		return true // string comparisons against a converted []byte are free
	case *ast.IndexExpr:
		if !isMapType(w.info.Types[par.X].Type) {
			return false
		}
		// An index on the left of an assignment is a map write: the key
		// string must persist, so the conversion allocates.
		if len(parents) >= 2 {
			if as, ok := parents[len(parents)-2].(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if ast.Unparen(lhs) == par {
						return false
					}
				}
			}
		}
		return true
	}
	return false
}

// checkAppend enforces slice ownership: growing receiver-, parameter- or
// local-rooted slices is the arena idiom the fences measure (amortized);
// growing package-level state from a hot path is not, and an append whose
// result is dropped is always a bug.
func (w *hotpathWalker) checkAppend(call *ast.CallExpr, parents []ast.Node) {
	if len(parents) > 0 {
		// `_ = append(...)` (a bare append statement does not compile):
		// the grown slice is dropped, so the growth was pure waste.
		if as, ok := parents[len(parents)-1].(*ast.AssignStmt); ok {
			discarded := len(as.Lhs) > 0
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name != "_" {
					discarded = false
				}
			}
			if discarded {
				w.p.Reportf(call.Pos(), "append result discarded")
				return
			}
		}
	}
	if len(call.Args) == 0 {
		return
	}
	root := rootIdent(call.Args[0])
	if root == nil {
		w.p.Reportf(call.Pos(), "append to a slice not rooted at an identifier: ownership unclear in a hot path")
		return
	}
	obj := w.info.Uses[root]
	if obj == nil {
		obj = w.info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		w.p.Reportf(call.Pos(), "append to package-level %s in a hot path: not receiver-owned", root.Name)
	}
}

// checkBoxing flags concrete arguments passed to interface parameters: the
// conversion boxes (allocates) unless the value is pointer-shaped.
func (w *hotpathWalker) checkBoxing(call *ast.CallExpr) {
	tv, ok := w.info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1 && call.Ellipsis == 0:
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := w.info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointer-shaped: interface conversion copies the word
		}
		w.p.Reportf(arg.Pos(), "%s argument boxes into interface %s in a hot path", typeShort(at), typeShort(pt))
	}
}

// capturedVar reports the first variable a function literal captures from
// an enclosing scope.
func (w *hotpathWalker) capturedVar(lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil {
			return true
		}
		if v.Parent() == types.Universe || v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = id.Name
		}
		return name == ""
	})
	return name, name != ""
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
