package lint

// The determinism analyzer guards the repo's strongest invariant: fixpoints,
// wire traffic and dumps are bit-identical across hosts, worker-pool sizes
// and runs. Two violation classes have already cost PRs here — map-iteration
// order leaking into output (fixed in PR 2) and environment-dependent
// behavior (the GOMAXPROCS test-cache miss in PR 9) — so both are machine-
// checked:
//
//  1. A `range` over a map whose body has an ordered effect (sends on a
//     channel, launches goroutines, appends to state declared outside the
//     loop, writes/encodes/prints, concatenates strings) is flagged unless
//     the appended-to slice is visibly sorted in the statements following
//     the loop.
//  2. Inside the deterministic core (internal/engine, internal/simnet,
//     internal/types, internal/apps) wall-clock reads (time.Now/Since/
//     Until), environment reads (os.Getenv & friends) and the process-
//     global math/rand source are flagged; a seeded rand.New(rand.
//     NewSource(...)) stays legal.
//
// Escape hatch: //exspanlint:nondeterministic-ok <reason>.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

var DeterminismAnalyzer = &Analyzer{
	Name:     "determinism",
	Doc:      "flags map-iteration order leaking into ordered effects, and wall-clock/env/global-rand reads in the deterministic core",
	Suppress: "nondeterministic-ok",
	Run:      runDeterminism,
}

// deterministicCore lists the packages that must be reproducible bit for
// bit: the engine, both network substrates' shared value model, and the
// workload programs. Their test variants and external test packages (X_test)
// are held to the same bar — the determinism fences themselves live there.
var deterministicCore = map[string]bool{
	"repro/internal/engine": true,
	"repro/internal/simnet": true,
	"repro/internal/types":  true,
	"repro/internal/apps":   true,
	// Golden-fixture packages (lint_test.go); not reachable from ./... .
	"repro/internal/lint/testdata/src/determinism": true,
	"repro/internal/lint/testdata/src/suppress":    true,
}

// globalRandOK lists math/rand (and v2) constructors that do not touch the
// process-global source; everything else package-level there does.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// orderedSinkRe matches callee names whose invocation inside a map range is
// an ordered effect: emitting, encoding or enqueueing in iteration order.
var orderedSinkRe = regexp.MustCompile(`(?i)^(encode|marshal|write|print|fprint|send|emit|enqueue|deliver|publish)`)

func runDeterminism(p *Pass) {
	info := p.Pkg.Info
	inCore := deterministicCore[strings.TrimSuffix(strings.Fields(p.Pkg.Path)[0], "_test")]

	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		// Pass 2 sources: wall clock, environment, global rand.
		if inCore {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkgPath, name := calleePkgFunc(info, call)
				switch pkgPath {
				case "time":
					if name == "Now" || name == "Since" || name == "Until" {
						p.Reportf(call.Pos(), "wall-clock read time.%s in the deterministic core; use the substrate's virtual clock", name)
					}
				case "os":
					if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
						p.Reportf(call.Pos(), "environment read os.%s in the deterministic core; plumb configuration explicitly", name)
					}
				case "math/rand", "math/rand/v2":
					if !globalRandOK[name] {
						p.Reportf(call.Pos(), "process-global rand.%s in the deterministic core; use a seeded *rand.Rand", name)
					}
				}
				return true
			})
		}

		// Pass 1: range over maps with ordered effects.
		walkWithBlocks(fd.Body, func(rs *ast.RangeStmt, after []ast.Stmt) {
			t := info.Types[rs.X].Type
			if !isMapType(t) {
				return
			}
			checkMapRangeBody(p, info, rs, after)
		})
	})
}

// walkWithBlocks visits every range statement, handing the visitor the
// statements that follow it in its enclosing blocks, innermost first — a
// sort can legally sit after the loop itself or after an enclosing loop or
// if (for the sorted-after-the-loop exemption).
func walkWithBlocks(body *ast.BlockStmt, visit func(*ast.RangeStmt, []ast.Stmt)) {
	// suffix[stmt] = the statements following stmt in its own block.
	suffix := map[ast.Stmt][]ast.Stmt{}
	record := func(list []ast.Stmt) {
		for i, st := range list {
			suffix[st] = list[i+1:]
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			record(b.List)
		case *ast.CaseClause:
			record(b.Body)
		case *ast.CommClause:
			record(b.Body)
		}
		return true
	})
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			var after []ast.Stmt
			after = append(after, suffix[rs]...)
			for i := len(stack) - 1; i >= 0; i-- {
				if st, ok := stack[i].(ast.Stmt); ok {
					after = append(after, suffix[st]...)
				}
			}
			visit(rs, after)
		}
		stack = append(stack, n)
		return true
	})
}

// checkMapRangeBody flags ordered effects inside one map-range body.
func checkMapRangeBody(p *Pass, info *types.Info, rs *ast.RangeStmt, after []ast.Stmt) {
	// Objects declared inside the loop (incl. the iteration vars): effects
	// confined to them are invisible outside an iteration.
	inner := map[types.Object]bool{}
	ast.Inspect(rs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				inner[obj] = true
			}
		}
		return true
	})
	outerRoot := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil || inner[obj] {
			return nil
		}
		if _, ok := obj.(*types.Var); !ok {
			return nil
		}
		return obj
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			if st != rs && isMapType(info.Types[st.X].Type) {
				return false // nested map range reports on its own
			}
		case *ast.SendStmt:
			p.Reportf(st.Pos(), "channel send inside a map range: iteration order reaches the receiver")
		case *ast.GoStmt:
			p.Reportf(st.Pos(), "goroutine launched inside a map range: spawn order is nondeterministic")
		case *ast.AssignStmt:
			checkMapRangeAssign(p, info, st, outerRoot, after)
		case *ast.CallExpr:
			checkMapRangeSink(p, info, st, outerRoot)
		}
		return true
	})
}

// checkMapRangeSink flags sink-named calls that carry iteration order out
// of the loop: a method whose receiver lives outside the loop (an
// accumulator, writer, queue or transport), or a direct print. A sink
// method on a loop-local receiver — e.g. encoding each entry into scratch
// that is collected and sorted afterwards — is the canonical *fix* for map
// nondeterminism and stays legal.
func checkMapRangeSink(p *Pass, info *types.Info, call *ast.CallExpr, outerRoot func(ast.Expr) types.Object) {
	name := calleeName(call)
	if name == "" || !orderedSinkRe.MatchString(name) {
		return
	}
	if pkgPath, fname := calleePkgFunc(info, call); pkgPath != "" {
		// Package-level sink: printing goes straight to an ordered stream;
		// anything else is ordered only if it writes into outer state.
		if strings.HasPrefix(strings.ToLower(fname), "print") || strings.HasPrefix(strings.ToLower(fname), "fprint") {
			p.Reportf(call.Pos(), "%s inside a map range: output is emitted in iteration order", fname)
			return
		}
		for _, arg := range call.Args {
			if obj := outerRoot(arg); obj != nil {
				p.Reportf(call.Pos(), "call to %s writes into %s inside a map range: iteration order reaches an ordered sink", name, obj.Name())
				return
			}
		}
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := outerRoot(sel.X); obj != nil {
			p.Reportf(call.Pos(), "call to %s.%s inside a map range: iteration order reaches an ordered sink", obj.Name(), name)
		}
	}
}

// checkMapRangeAssign flags assignments inside a map range that leak
// iteration order: appends to outer slices (unless sorted right after the
// loop) and string concatenation into outer variables. Map writes and
// commutative numeric updates stay legal.
func checkMapRangeAssign(p *Pass, info *types.Info, st *ast.AssignStmt, outerRoot func(ast.Expr) types.Object, after []ast.Stmt) {
	for i, lhs := range st.Lhs {
		obj := outerRoot(lhs)
		if obj == nil {
			continue
		}
		if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex && isMapType(typeOfIndexBase(info, lhs)) {
			continue // keyed map writes are iteration-order independent
		}
		lhsType := info.Types[lhs].Type
		if st.Tok == token.ADD_ASSIGN && lhsType != nil && isString(lhsType) {
			p.Reportf(st.Pos(), "string built up across a map range: %s concatenates in iteration order", obj.Name())
			continue
		}
		if i < len(st.Rhs) || len(st.Rhs) == 1 {
			rhs := st.Rhs[min(i, len(st.Rhs)-1)]
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
				if sortedAfter(info, obj, after) {
					continue
				}
				p.Reportf(st.Pos(), "append to %s inside a map range without sorting afterwards: element order is map-iteration order", obj.Name())
			}
		}
	}
}

func typeOfIndexBase(info *types.Info, e ast.Expr) types.Type {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		return info.Types[ix.X].Type
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeName returns the bare name of a call's callee (method or function),
// or "" when the callee is not a simple selector/identifier.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// sortedAfter reports whether one of the statements following the loop
// (in its own or an enclosing block) visibly sorts obj: a call into
// package sort/slices, or one whose callee name mentions "sort"
// (types.SortValues, sortKeys, ...), with obj among its argument subtrees.
func sortedAfter(info *types.Info, obj types.Object, after []ast.Stmt) bool {
	for _, st := range after {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			name := calleeName(call)
			pkgPath, _ := calleePkgFunc(info, call)
			if pkgPath != "sort" && pkgPath != "slices" &&
				!strings.Contains(strings.ToLower(name), "sort") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
