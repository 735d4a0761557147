package ndlog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// ProvenanceRewrite implements the paper's Algorithm 1: given a localized
// NDlog program, it returns a new program in which every rule is replaced
// by a set of rules that execute the original derivation *and* maintain the
// distributed provenance relations
//
//	prov(@Loc, VID, RID, RLoc)
//	ruleExec(@RLoc, RID, R, VIDList)
//
// shipping only the (RID, RLoc) pair with each derivation — reference-based
// distributed provenance.
//
// Where the paper computes identifiers with string concatenation
// (RID = f_sha1("sp2"+RLoc+List)), this implementation uses the built-ins
// f_vid(name, args...) and f_rid(rule, loc, list), which hash an
// *injective* canonical encoding of the same fields. The paper's
// concatenation is not injective ("ab"+"c" = "a"+"bc"); hashing the framed
// encoding preserves intent while eliminating accidental collisions.
//
// Rules without aggregates expand to the five rules of Algorithm 1
// (r20–r24 in the paper's §4.2.1 example). Aggregate (MIN/MAX) rules keep
// the original rule and add three provenance rules that trace the result to
// the winning input tuple, per the paper's discussion of MIN/MAX
// provenance. For every EDB predicate, a rule is added that registers base
// tuples in prov with a null RID, matching Table 1's base-tuple rows.
func ProvenanceRewrite(p *Program) (*Program, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	// Rules 2-5 of Algorithm 1 depend only on the head predicate; emitted
	// records the heads that have them.
	emitted := map[string]bool{}
	out := &Program{Facts: p.Facts}
	for i, r := range p.Rules {
		label := r.Label
		if label == "" {
			label = fmt.Sprintf("r%d", i+1)
		}
		if agg, _ := r.AggSpec(); agg != nil {
			rules, err := rewriteAggRule(r, label)
			if err != nil {
				return nil, err
			}
			out.Rules = append(out.Rules, rules...)
			continue
		}
		rules, err := rewriteRule(r, label, emitted)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, rules...)
	}
	// Base-tuple provenance: one rule per EDB predicate, in sorted predicate
	// order — rule order is program structure (rule indexes, occurrence
	// order, firing order), so appending in map-iteration order would make
	// the rewritten program differ run to run. Determine arity from the
	// predicate's first occurrence in a body or fact.
	baseAtoms := basePredAtoms(p)
	basePreds := make([]string, 0, len(baseAtoms))
	for pred := range baseAtoms {
		basePreds = append(basePreds, pred)
	}
	sort.Strings(basePreds)
	for _, pred := range basePreds {
		out.Rules = append(out.Rules, baseProvRule(pred, baseAtoms[pred]))
	}
	return out, nil
}

// fresh returns name if unused in the rule, otherwise name with "_p"
// suffixes until unique.
func fresh(used map[string]bool, name string) string {
	for used[name] {
		name += "_p"
	}
	used[name] = true
	return name
}

func usedVars(r *Rule) map[string]bool {
	used := map[string]bool{}
	collect := func(e Expr) {
		for _, v := range Vars(e) {
			used[v] = true
		}
	}
	for _, a := range r.Head.Args {
		collect(a)
	}
	for _, t := range r.Body {
		switch v := t.(type) {
		case *Atom:
			for _, a := range v.Args {
				collect(a)
			}
		case *Assign:
			used[v.Lhs] = true
			collect(v.Rhs)
		case *Cond:
			collect(v.Expr)
		}
	}
	return used
}

// headVarsOf normalizes the head arguments to plain variables, introducing
// assignments for expression arguments (the Algorithm assumes variable
// heads).
func headVarsOf(r *Rule, used map[string]bool) (vars []string, extra []BodyTerm) {
	for i, a := range r.Head.Args {
		if v, ok := a.(*Var); ok {
			vars = append(vars, v.Name)
			continue
		}
		hv := fresh(used, fmt.Sprintf("HArg%d", i+1))
		extra = append(extra, &Assign{Lhs: hv, Rhs: a})
		vars = append(vars, hv)
	}
	return vars, extra
}

func varAtoms(names ...string) []Expr {
	out := make([]Expr, len(names))
	for i, n := range names {
		out[i] = &Var{Name: n}
	}
	return out
}

func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// eventNames returns the names of the temp event and the shipped event for
// a head predicate, avoiding collision when the head is itself an event.
func eventNames(head string) (temp, send string) {
	base := title(head)
	if IsEventPred(head) {
		// ePacket -> ePacketProvTemp / ePacketProvMsg
		return head + "ProvTemp", head + "ProvMsg"
	}
	return "e" + base + "Temp", "e" + base
}

func rewriteRule(r *Rule, label string, emitted map[string]bool) ([]*Rule, error) {
	used := usedVars(r)
	locVar, err := BodyLocation(r)
	if err != nil {
		return nil, err
	}
	headVars, extraAssigns := headVarsOf(r, used)

	rlocV := fresh(used, "RLoc")
	rV := fresh(used, "R")
	ridV := fresh(used, "RID")
	listV := fresh(used, "List")
	vidV := fresh(used, "VID")

	atoms := r.BodyAtoms()
	pidVars := make([]string, len(atoms))
	for i := range atoms {
		pidVars[i] = fresh(used, fmt.Sprintf("PID%d", i+1))
	}

	tempName, sendName := eventNames(r.Head.Pred)

	// Rule 1: eHTemp(@RLoc, H1..Ho, RID, R, List) :- body, bookkeeping.
	var body []BodyTerm
	body = append(body, r.Body...)
	body = append(body, extraAssigns...)
	body = append(body, &Assign{Lhs: rlocV, Rhs: &Var{Name: locVar}})
	body = append(body, &Assign{Lhs: rV, Rhs: &Const{Val: types.Str(label)}})
	for i, a := range atoms {
		args := []Expr{&Const{Val: types.Str(a.Pred)}}
		args = append(args, a.Args...)
		body = append(body, &Assign{Lhs: pidVars[i], Rhs: &Call{Fn: "f_vid", Args: args}})
	}
	body = append(body, &Assign{Lhs: listV, Rhs: &Call{Fn: "f_append", Args: varAtoms(pidVars...)}})
	body = append(body, &Assign{Lhs: ridV, Rhs: &Call{Fn: "f_rid", Args: varAtoms(rV, rlocV, listV)}})

	tempHead := &Atom{Pred: tempName, LocPos: 0,
		Args: varAtoms(append(append([]string{rlocV}, headVars...), ridV, rV, listV)...)}
	rules := []*Rule{{Label: label + "_1", Head: tempHead, Body: body}}

	// Rules 2-5 depend only on the head predicate (they consume the shared
	// eHTemp/eH events); when several rules derive the same head they are
	// emitted once, avoiding duplicate firings.
	if !emitted[r.Head.Pred] {
		emitted[r.Head.Pred] = true
		tempAtom := func() *Atom {
			return &Atom{Pred: tempName, LocPos: 0,
				Args: varAtoms(append(append([]string{rlocV}, headVars...), ridV, rV, listV)...)}
		}
		// Rule 2: ruleExec(@RLoc, RID, R, List) :- eHTemp(...).
		rules = append(rules, &Rule{
			Label: label + "_2",
			Head:  &Atom{Pred: "ruleExec", LocPos: 0, Args: varAtoms(rlocV, ridV, rV, listV)},
			Body:  []BodyTerm{tempAtom()},
		})
		// Rule 3: eH(@H1..Ho, RID, RLoc) :- eHTemp(...).
		sendHead := &Atom{Pred: sendName, LocPos: 0,
			Args: varAtoms(append(append([]string{}, headVars...), ridV, rlocV)...)}
		rules = append(rules, &Rule{Label: label + "_3", Head: sendHead, Body: []BodyTerm{tempAtom()}})

		sendAtom := func() *Atom {
			return &Atom{Pred: sendName, LocPos: 0,
				Args: varAtoms(append(append([]string{}, headVars...), ridV, rlocV)...)}
		}
		// Rule 4: h(@H1..Ho) :- eH(...).
		rules = append(rules, &Rule{
			Label: label + "_4",
			Head:  &Atom{Pred: r.Head.Pred, LocPos: r.Head.LocPos, Args: varAtoms(headVars...)},
			Body:  []BodyTerm{sendAtom()},
		})
		// Rule 5: prov(@H1, VID, RID, RLoc) :- eH(...), VID = f_vid(h, H1..Ho).
		vidArgs := []Expr{&Const{Val: types.Str(r.Head.Pred)}}
		vidArgs = append(vidArgs, varAtoms(headVars...)...)
		rules = append(rules, &Rule{
			Label: label + "_5",
			Head: &Atom{Pred: "prov", LocPos: 0,
				Args: varAtoms(headVars[r.Head.LocPos], vidV, ridV, rlocV)},
			Body: []BodyTerm{
				sendAtom(),
				&Assign{Lhs: vidV, Rhs: &Call{Fn: "f_vid", Args: vidArgs}},
			},
		})
	}
	return rules, nil
}

// rewriteAggRule keeps the aggregate rule unchanged and adds rules that
// trace each aggregate result to the winning input tuple: when
// h(@S,...,C) exists and the body tuple p(@S,...,C) matches it, that tuple
// is the provenance child.
func rewriteAggRule(r *Rule, label string) ([]*Rule, error) {
	used := usedVars(r)
	agg, aggPos := r.AggSpec()
	atom := r.BodyAtoms()[0]
	if agg.Fn != "MIN" && agg.Fn != "MAX" {
		// COUNT/AGGLIST provenance would require all inputs as children
		// (see §4.2.2); the paper explicitly restricts Algorithm 1 to
		// MIN/MAX, so other aggregates keep the derivation but no
		// provenance.
		return []*Rule{{Label: label, Head: r.Head, Body: r.Body}}, nil
	}

	// Flattened head: replace min<C,...> with its variables in place, so
	// bestPath(@S,D,min<C,P>) flattens to bestPath(@S,D,C,P) — the shape
	// of the materialized aggregate result.
	var headVars []string
	flatLocPos := -1
	for i, a := range r.Head.Args {
		if i == r.Head.LocPos {
			flatLocPos = len(headVars)
		}
		switch v := a.(type) {
		case *Var:
			headVars = append(headVars, v.Name)
		case *Agg:
			headVars = append(headVars, v.Vars...)
		default:
			return nil, fmt.Errorf("aggregate rule %s: head argument %d must be a variable", label, i)
		}
	}
	_ = aggPos

	rlocV := fresh(used, "RLoc")
	rV := fresh(used, "R")
	ridV := fresh(used, "RID")
	listV := fresh(used, "List")
	vidV := fresh(used, "VID")
	pidV := fresh(used, "PID1")
	locVar, _ := BodyLocation(r)

	tempName, _ := eventNames(r.Head.Pred)

	rules := []*Rule{{Label: label, Head: r.Head, Body: r.Body}}

	// h(@S,..,C) joined with the body atom identifies the winning tuple.
	flatHead := &Atom{Pred: r.Head.Pred, LocPos: r.Head.LocPos, Args: varAtoms(headVars...)}
	pidArgs := []Expr{&Const{Val: types.Str(atom.Pred)}}
	pidArgs = append(pidArgs, atom.Args...)
	body := []BodyTerm{
		flatHead,
		atom,
		&Assign{Lhs: rlocV, Rhs: &Var{Name: locVar}},
		&Assign{Lhs: rV, Rhs: &Const{Val: types.Str(label)}},
		&Assign{Lhs: pidV, Rhs: &Call{Fn: "f_vid", Args: pidArgs}},
		&Assign{Lhs: listV, Rhs: &Call{Fn: "f_append", Args: varAtoms(pidV)}},
		&Assign{Lhs: ridV, Rhs: &Call{Fn: "f_rid", Args: varAtoms(rV, rlocV, listV)}},
	}
	tempHead := &Atom{Pred: tempName, LocPos: 0,
		Args: varAtoms(append(append([]string{rlocV}, headVars...), ridV, rV, listV)...)}
	rules = append(rules, &Rule{Label: label + "_1", Head: tempHead, Body: body})

	tempAtom := func() *Atom {
		return &Atom{Pred: tempName, LocPos: 0,
			Args: varAtoms(append(append([]string{rlocV}, headVars...), ridV, rV, listV)...)}
	}
	rules = append(rules, &Rule{
		Label: label + "_2",
		Head:  &Atom{Pred: "ruleExec", LocPos: 0, Args: varAtoms(rlocV, ridV, rV, listV)},
		Body:  []BodyTerm{tempAtom()},
	})

	vidArgs := []Expr{&Const{Val: types.Str(r.Head.Pred)}}
	vidArgs = append(vidArgs, varAtoms(headVars...)...)
	rules = append(rules, &Rule{
		Label: label + "_3",
		Head: &Atom{Pred: "prov", LocPos: 0,
			Args: varAtoms(headVars[flatLocPos], vidV, ridV, rlocV)},
		Body: []BodyTerm{
			tempAtom(),
			&Assign{Lhs: vidV, Rhs: &Call{Fn: "f_vid", Args: vidArgs}},
		},
	})
	return rules, nil
}

func basePredAtoms(p *Program) map[string]*Atom {
	base := BasePreds(p)
	out := map[string]*Atom{}
	for _, r := range p.Rules {
		for _, a := range r.BodyAtoms() {
			if base[a.Pred] && out[a.Pred] == nil {
				out[a.Pred] = a
			}
		}
	}
	for _, f := range p.Facts {
		if base[f.Pred] && out[f.Pred] == nil {
			out[f.Pred] = f
		}
	}
	return out
}

// baseProvRule produces, for an EDB predicate b of arity k at @X:
//
//	provb prov(@X, VID, RIDn, X) :- b(@X, A2..Ak), VID = f_vid("b", X, A2..Ak),
//	                                RIDn = f_nullid().
func baseProvRule(pred string, shape *Atom) *Rule {
	arity := len(shape.Args)
	locPos := shape.LocPos
	if locPos < 0 {
		locPos = 0
	}
	used := map[string]bool{}
	argVars := make([]string, arity)
	for i := range argVars {
		argVars[i] = fresh(used, fmt.Sprintf("A%d", i+1))
	}
	vidV := fresh(used, "VID")
	ridV := fresh(used, "RIDn")
	vidArgs := []Expr{&Const{Val: types.Str(pred)}}
	vidArgs = append(vidArgs, varAtoms(argVars...)...)
	return &Rule{
		Label: "prov_" + pred,
		Head: &Atom{Pred: "prov", LocPos: 0,
			Args: varAtoms(argVars[locPos], vidV, ridV, argVars[locPos])},
		Body: []BodyTerm{
			&Atom{Pred: pred, LocPos: locPos, Args: varAtoms(argVars...)},
			&Assign{Lhs: vidV, Rhs: &Call{Fn: "f_vid", Args: vidArgs}},
			&Assign{Lhs: ridV, Rhs: &Call{Fn: "f_nullid"}},
		},
	}
}
