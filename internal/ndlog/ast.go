// Package ndlog implements the Network Datalog (NDlog) language used by
// ExSPAN: a distributed Datalog with location specifiers (@), event
// predicates, aggregates and built-in functions. The package provides a
// lexer, parser, pretty-printer, localization checks and the automatic
// provenance rewrite of the paper's Algorithm 1.
package ndlog

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Program is a parsed NDlog program: an ordered list of rules plus any
// ground facts.
type Program struct {
	Rules []*Rule
	Facts []*Atom
}

// Rule is one NDlog rule: Label Head :- Body.
// A rule with an empty body is a fact-producing rule (not used in the
// paper's programs but accepted).
type Rule struct {
	Label string
	Head  *Atom
	Body  []BodyTerm
}

// BodyTerm is either a predicate atom, an assignment, or a boolean
// condition.
type BodyTerm interface{ bodyTerm() }

// Atom is a predicate with arguments, e.g. link(@S,D,C). LocPos is the
// argument index carrying the @ location specifier, or -1 when absent.
type Atom struct {
	Pred   string
	LocPos int
	Args   []Expr
}

func (*Atom) bodyTerm() {}

// IsEvent reports whether the predicate is an event (transient, not
// materialized), following the paper's convention that event predicate
// names start with "e" followed by an uppercase letter.
func (a *Atom) IsEvent() bool { return IsEventPred(a.Pred) }

// IsEventPred reports whether a predicate name denotes an event.
func IsEventPred(pred string) bool {
	return len(pred) >= 2 && pred[0] == 'e' && pred[1] >= 'A' && pred[1] <= 'Z'
}

// Assign binds a fresh variable to the value of an expression, e.g.
// C = C1 + C2.
type Assign struct {
	Lhs string // variable name
	Rhs Expr
}

func (*Assign) bodyTerm() {}

// Cond is a boolean constraint over bound variables, e.g. Z != Y.
type Cond struct {
	Expr Expr
}

func (*Cond) bodyTerm() {}

// Expr is an NDlog expression.
type Expr interface{ expr() }

// Var references a variable (names start with an uppercase letter).
type Var struct{ Name string }

// Const is a literal value (integer, string, or node).
type Const struct{ Val types.Value }

// BinOp is a binary operation. Supported operators: + - * / == != < <= >
// >= && ||. On strings, + is concatenation.
type BinOp struct {
	Op   string
	L, R Expr
}

// Call invokes a built-in function, e.g. f_sha1, f_append, f_size.
type Call struct {
	Fn   string
	Args []Expr
}

// Agg is an aggregate head argument, e.g. min<C> or COUNT<*>. For MIN and
// MAX, Vars[0] is the aggregated attribute and any further variables are
// carried attributes resolved by arg-min/arg-max (used by PATHVECTOR to
// carry the path alongside its cost). Star marks COUNT<*>.
type Agg struct {
	Fn   string // MIN, MAX, COUNT, SUM, AGGLIST
	Vars []string
	Star bool
}

func (*Var) expr()   {}
func (*Const) expr() {}
func (*BinOp) expr() {}
func (*Call) expr()  {}
func (*Agg) expr()   {}

// AggSpec returns the aggregate argument of the rule head and its position,
// or (nil, -1) when the rule is not an aggregate rule.
func (r *Rule) AggSpec() (*Agg, int) {
	for i, a := range r.Head.Args {
		if agg, ok := a.(*Agg); ok {
			return agg, i
		}
	}
	return nil, -1
}

// BodyAtoms returns the predicate atoms of the body in order.
func (r *Rule) BodyAtoms() []*Atom {
	var out []*Atom
	for _, t := range r.Body {
		if a, ok := t.(*Atom); ok {
			out = append(out, a)
		}
	}
	return out
}

// Vars returns the set of variable names appearing in an expression.
func Vars(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	var rec func(Expr)
	rec = func(x Expr) {
		switch v := x.(type) {
		case *Var:
			if !seen[v.Name] {
				seen[v.Name] = true
				out = append(out, v.Name)
			}
		case *BinOp:
			rec(v.L)
			rec(v.R)
		case *Call:
			for _, a := range v.Args {
				rec(a)
			}
		case *Agg:
			for _, n := range v.Vars {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	rec(e)
	return out
}

// String renders the program in source form.
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Facts {
		sb.WriteString(f.String())
		sb.WriteString(".\n")
	}
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders the rule in source form.
func (r *Rule) String() string {
	var sb strings.Builder
	if r.Label != "" {
		sb.WriteString(r.Label)
		sb.WriteByte(' ')
	}
	sb.WriteString(r.Head.String())
	if len(r.Body) > 0 {
		sb.WriteString(" :- ")
		parts := make([]string, len(r.Body))
		for i, t := range r.Body {
			parts[i] = BodyTermString(t)
		}
		sb.WriteString(strings.Join(parts, ", "))
	}
	sb.WriteByte('.')
	return sb.String()
}

// BodyTermString renders one body term in source form.
func BodyTermString(t BodyTerm) string {
	switch v := t.(type) {
	case *Atom:
		return v.String()
	case *Assign:
		return fmt.Sprintf("%s = %s", v.Lhs, ExprString(v.Rhs))
	case *Cond:
		return ExprString(v.Expr)
	}
	return "?"
}

// String renders the atom in source form.
func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, arg := range a.Args {
		s := ExprString(arg)
		if i == a.LocPos {
			s = "@" + s
		}
		parts[i] = s
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// ExprString renders an expression in source form.
func ExprString(e Expr) string {
	switch v := e.(type) {
	case *Var:
		return v.Name
	case *Const:
		if v.Val.Kind() == types.KindStr {
			return quote(v.Val.AsStr())
		}
		return v.Val.String()
	case *BinOp:
		return fmt.Sprintf("%s %s %s", exprOperand(v.L), v.Op, exprOperand(v.R))
	case *Call:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", v.Fn, strings.Join(parts, ","))
	case *Agg:
		if v.Star {
			return v.Fn + "<*>"
		}
		return v.Fn + "<" + strings.Join(v.Vars, ",") + ">"
	}
	return "?"
}

func exprOperand(e Expr) string {
	if b, ok := e.(*BinOp); ok {
		return "(" + ExprString(b) + ")"
	}
	return ExprString(e)
}
