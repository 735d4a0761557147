package apps

import (
	"slices"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// The §5.1/§6.2 query programs must parse and validate as legal NDlog
// (locations, safety, aggregate restrictions). QueryProgramSrc is also
// executable; core.TestNDlogQueryProgramExecution runs it against the
// native processor.
func TestQueryProgramParsesAndValidates(t *testing.T) {
	prog, err := ndlog.Parse(QueryProgramSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ndlog.Validate(prog); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var labels []string
	var c0 *ndlog.Rule
	for _, r := range prog.Rules {
		labels = append(labels, r.Label)
		if r.Label == "c0" {
			c0 = r
		}
	}
	want := []string{"edb1", "c0", "in0", "in1", "in2", "idb1", "idb2", "idb3", "idb4",
		"rv1", "rv2", "rv3", "rv4", "qr"}
	if !slices.Equal(labels, want) {
		t.Fatalf("rules = %v, want %v", labels, want)
	}
	if agg, _ := c0.AggSpec(); agg == nil || agg.Fn != "COUNT" || !agg.Star {
		t.Fatalf("c0 aggregate = %+v", c0.Head)
	}
	// Only in1's counter adds; identifiers are framed with f_append, never
	// concatenated, and list inputs come from in0-in2, not f_item.
	for _, r := range prog.Rules {
		walkExprs(r, func(e ndlog.Expr) {
			switch e := e.(type) {
			case *ndlog.Call:
				if e.Fn == "f_item" {
					t.Errorf("%s calls f_item", r.Label)
				}
			case *ndlog.BinOp:
				if c, ok := e.R.(*ndlog.Const); e.Op == "+" && (!ok || c.Val.Kind() != types.KindInt) {
					t.Errorf("%s adds non-integers: %s", r.Label, r)
				}
			}
		})
	}
}

// walkExprs calls fn on every expression and subexpression of r.
func walkExprs(r *ndlog.Rule, fn func(ndlog.Expr)) {
	var walk func(e ndlog.Expr)
	walk = func(e ndlog.Expr) {
		fn(e)
		switch e := e.(type) {
		case *ndlog.BinOp:
			walk(e.L)
			walk(e.R)
		case *ndlog.Call:
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	for _, a := range r.Head.Args {
		walk(a)
	}
	for _, term := range r.Body {
		switch term := term.(type) {
		case *ndlog.Atom:
			for _, a := range term.Args {
				walk(a)
			}
		case *ndlog.Assign:
			walk(term.Rhs)
		case *ndlog.Cond:
			walk(term.Expr)
		}
	}
}
