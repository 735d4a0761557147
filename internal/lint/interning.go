package lint

// The interning analyzer enforces the identity discipline types.Value
// bought in PR 3: heavy payloads are interned to canonical handles, so
// equality is ==, a Value is a map key directly, and rendering or
// re-encoding a value to build a string identity is always wasted work —
// and was an actual regression class (the first-sight string-key copies
// removed in PR 7). Flagged:
//
//   - fmt.Sprintf/Sprint-style key building: a formatted string with a
//     Value/Tuple/ID argument used as a map key or compared
//   - .String()/.Encode()/.Key() derived strings compared against each
//     other (compare the values with == / Compare instead)
//   - indexing a map[string] with a canonical encoding of a Value or Tuple
//     (AppendKey/AppendArgsKey fixed-width handle keys are the sanctioned
//     idiom and do not trip this)
//   - reflect.DeepEqual over interned types (== is exact and cheap)
//
// Escape hatch: //exspanlint:intern-ok <reason>.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var InterningAnalyzer = &Analyzer{
	Name:     "interning",
	Doc:      "flags string-identity building (Sprintf/String/Encode keys) for interned Value types",
	Suppress: "intern-ok",
	Run:      runInterning,
}

// internedTypes are the types whose identity is handle-based.
var internedTypes = map[string]bool{
	"repro/internal/types.Value": true,
	"repro/internal/types.Tuple": true,
	"repro/internal/types.ID":    true,
}

func runInterning(p *Pass) {
	info := p.Pkg.Info
	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		// Tests are exempt: Tuple is not Go-comparable (its Args field is a
		// slice), so content-keyed snapshot maps in tests legitimately key
		// by the canonical encoding, and readable string keys are what make
		// failure diffs debuggable. The discipline protects production
		// identity paths.
		if strings.HasSuffix(p.Pkg.Fset.Position(fd.Pos()).Filename, "_test.go") {
			return
		}
		// keyVars: locals whose value is a canonical string derived from an
		// interned type, by the defining statement ("k := v.String()",
		// "k := fmt.Sprintf(..., v)", "k := string(t.Encode(nil))").
		keyVars := map[types.Object]string{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				desc := canonicalStringDeriv(info, rhs)
				if desc == "" {
					continue
				}
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						keyVars[obj] = desc
					} else if obj := info.Uses[id]; obj != nil {
						keyVars[obj] = desc
					}
				}
			}
			return true
		})

		deriv := func(e ast.Expr) string {
			if d := canonicalStringDeriv(info, e); d != "" {
				return d
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				obj := info.Uses[id]
				if d, ok := keyVars[obj]; ok {
					return d
				}
			}
			return ""
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IndexExpr:
				mt, ok := info.Types[x.X].Type.Underlying().(*types.Map)
				if !ok || !isString(mt.Key()) {
					return true
				}
				if d := deriv(x.Index); d != "" {
					p.Reportf(x.Index.Pos(), "map[string] keyed by %s: interned values are map keys directly (or use the AppendKey handle-key idiom)", d)
				}
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				ld, rd := deriv(x.X), deriv(x.Y)
				if ld != "" && rd != "" {
					p.Reportf(x.Pos(), "comparing %s against %s: interned values compare with == (or Compare)", ld, rd)
				}
			case *ast.CallExpr:
				if pkgPath, name := calleePkgFunc(info, x); pkgPath == "reflect" && name == "DeepEqual" {
					for _, arg := range x.Args {
						if t := info.Types[arg].Type; t != nil && mentionsInternedType(t, 0) {
							p.Reportf(x.Pos(), "reflect.DeepEqual over %s: interned types compare exactly with ==", typeShort(t))
							break
						}
					}
				}
			}
			return true
		})
	})
}

// canonicalStringDeriv reports how e builds a string identity from an
// interned type, or "".
func canonicalStringDeriv(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	// string(x.Encode(...)) — unwrap the conversion.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && isString(tv.Type) && len(call.Args) == 1 {
		if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
			call = inner
		} else {
			return ""
		}
	}
	if pkgPath, name := calleePkgFunc(info, call); pkgPath == "fmt" && (name == "Sprintf" || name == "Sprint" || name == "Sprintln") {
		for _, arg := range call.Args {
			if t := info.Types[arg].Type; t != nil && internedTypes[namedTypePath(t)] {
				return "fmt." + name + "(" + typeShort(t) + ")"
			}
		}
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := namedTypePath(info.Types[sel.X].Type)
	if !internedTypes[recv] {
		return ""
	}
	switch sel.Sel.Name {
	case "String", "Encode", "Key", "Short":
		return typeShort(info.Types[sel.X].Type) + "." + sel.Sel.Name + "()"
	}
	return ""
}

// mentionsInternedType reports whether t contains an interned type within
// two levels of composition (slice/array/map/pointer).
func mentionsInternedType(t types.Type, depth int) bool {
	if depth > 3 || t == nil {
		return false
	}
	if internedTypes[namedTypePath(t)] {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return mentionsInternedType(u.Elem(), depth+1)
	case *types.Array:
		return mentionsInternedType(u.Elem(), depth+1)
	case *types.Pointer:
		return mentionsInternedType(u.Elem(), depth+1)
	case *types.Map:
		return mentionsInternedType(u.Key(), depth+1) || mentionsInternedType(u.Elem(), depth+1)
	}
	return false
}
