// Package lint is exspanlint: a static-analysis suite that machine-checks
// the engine's three load-bearing source-level invariants — bit-exact
// determinism, zero-allocation hot paths and interned-value identity
// discipline. Each invariant has one analyzer (determinism.go, hotpath.go,
// interning.go); cmd/exspanlint drives all three over the tree as the
// blocking `make lint` CI gate. Concurrency is not checked here: a node
// evaluates on one goroutine, and what runs in parallel (the Scheduler's
// worker pool across nodes, the deployment's goroutines) is the race
// detector's job, `make test-race`.
//
// The analyzers mirror the golang.org/x/tools/go/analysis shape
// (Analyzer/Pass/Diagnostic) but are built on the standard library alone:
// the module deliberately pins no third-party dependencies, so load.go
// implements package loading via `go list -export` and the gc export-data
// importer instead of go/packages.
//
// Annotation grammar (documented in ARCHITECTURE.md "Static analysis"):
//
//	//exspan:hotpath            marks a function allocation-fenced; the
//	                            hotpath analyzer checks its body
//	//exspanlint:<key>-ok <reason>
//	                            suppresses one finding on this or the next
//	                            line; the reason is mandatory and unused
//	                            suppressions are themselves findings
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string // short name, printed in diagnostics and used in -only
	Doc  string // one-line description
	// Suppress is the suppression key honored by this analyzer: a comment
	// `//exspanlint:<Suppress> <reason>` on the flagged line (or the line
	// above) silences the finding.
	Suppress string
	Run      func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags       []Diagnostic
	suppression map[string]map[int]*suppression // file -> line -> comment
}

type suppression struct {
	key    string
	reason string
	pos    token.Position
	used   bool
}

var suppressRe = regexp.MustCompile(`^//exspanlint:([a-z-]+)(?:\s+(.*))?$`)

// newPass indexes the package's suppression comments and returns a ready
// pass.
func newPass(a *Analyzer, pkg *Package) *Pass {
	p := &Pass{Analyzer: a, Pkg: pkg, suppression: map[string]map[int]*suppression{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := p.suppression[pos.Filename]
				if byLine == nil {
					byLine = map[int]*suppression{}
					p.suppression[pos.Filename] = byLine
				}
				byLine[pos.Line] = &suppression{key: m[1], reason: strings.TrimSpace(m[2]), pos: pos}
			}
		}
	}
	return p
}

// Reportf records a finding unless a matching suppression comment covers
// the position. A suppression with an empty reason is converted into a
// finding of its own (the escape hatch requires a rationale).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if s := p.suppressionAt(position); s != nil && s.key == p.Analyzer.Suppress {
		s.used = true
		if s.reason == "" {
			p.diags = append(p.diags, Diagnostic{
				Pos:      s.pos,
				Analyzer: p.Analyzer.Name,
				Message:  fmt.Sprintf("suppression //exspanlint:%s needs a reason", s.key),
			})
		}
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressionAt finds a suppression comment on the given line or the line
// directly above it.
func (p *Pass) suppressionAt(pos token.Position) *suppression {
	byLine := p.suppression[pos.Filename]
	if byLine == nil {
		return nil
	}
	if s := byLine[pos.Line]; s != nil {
		return s
	}
	return byLine[pos.Line-1]
}

// finish reports stale suppressions: a comment carrying this analyzer's key
// that silenced nothing is dead weight that would mask a future regression
// silently, so it must be removed (or was a typo for another key).
func (p *Pass) finish() []Diagnostic {
	for _, byLine := range p.suppression {
		for _, s := range byLine {
			if s.key == p.Analyzer.Suppress && !s.used {
				p.diags = append(p.diags, Diagnostic{
					Pos:      s.pos,
					Analyzer: p.Analyzer.Name,
					Message:  fmt.Sprintf("unused suppression //exspanlint:%s (nothing to silence here)", s.key),
				})
			}
		}
	}
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return p.diags[i].Message < p.diags[j].Message
	})
	return p.diags
}

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DeterminismAnalyzer, HotpathAnalyzer, InterningAnalyzer}
}

// RunAnalyzer applies one analyzer to one loaded package.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	p := newPass(a, pkg)
	a.Run(p)
	return p.finish()
}

// Run applies the whole suite to every package, returning position-sorted
// findings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			all = append(all, RunAnalyzer(a, pkg)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if all[i].Analyzer != all[j].Analyzer {
			return all[i].Analyzer < all[j].Analyzer
		}
		return all[i].Message < all[j].Message
	})
	return all
}

// --- shared AST/type helpers ---

// funcAnnotated reports whether a function declaration's doc comment block
// carries the given machine annotation (e.g. "//exspan:hotpath").
func funcAnnotated(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// enclosingFuncs maps every node inside a function body to its declaration
// by walking declarations in file order.
func forEachFunc(pkg *Package, fn func(*ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// calleePkgFunc resolves a call to a package-level function and returns its
// package path and name, or "", "". Methods resolve to "", "": a call like
// rng.Intn on a seeded *rand.Rand must not be mistaken for the process-
// global rand.Intn.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	}
	if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil {
			return f.Pkg().Path(), f.Name()
		}
	}
	return "", ""
}

// rootIdent walks a selector/index/star chain to its base identifier:
// n.fires[i].ent -> n. Returns nil for anything not rooted at a plain
// identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedTypePath returns "pkgpath.Name" for a (possibly pointer-wrapped)
// named type, or "".
func namedTypePath(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
