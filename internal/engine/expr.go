package engine

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/types"
)

// exprCode is a compiled expression: it evaluates against the rule's
// variable environment.
type exprCode func(env []types.Value) (types.Value, error)

// compileExpr compiles an NDlog expression given the rule's variable slot
// assignment.
func compileExpr(e ndlog.Expr, slots map[string]int) (exprCode, error) {
	switch v := e.(type) {
	case *ndlog.Const:
		val := v.Val
		return func([]types.Value) (types.Value, error) { return val, nil }, nil
	case *ndlog.Var:
		slot, ok := slots[v.Name]
		if !ok {
			return nil, fmt.Errorf("engine: unbound variable %s", v.Name)
		}
		return func(env []types.Value) (types.Value, error) { return env[slot], nil }, nil
	case *ndlog.BinOp:
		l, err := compileExpr(v.L, slots)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(v.R, slots)
		if err != nil {
			return nil, err
		}
		op := v.Op
		return func(env []types.Value) (types.Value, error) {
			lv, err := l(env)
			if err != nil {
				return types.Nil(), err
			}
			rv, err := r(env)
			if err != nil {
				return types.Nil(), err
			}
			return applyBinOp(op, lv, rv)
		}, nil
	case *ndlog.Call:
		fn, ok := builtins[v.Fn]
		if !ok {
			return nil, fmt.Errorf("engine: unknown function %s", v.Fn)
		}
		args := make([]exprCode, len(v.Args))
		for i, a := range v.Args {
			code, err := compileExpr(a, slots)
			if err != nil {
				return nil, err
			}
			args[i] = code
		}
		name := v.Fn
		return func(env []types.Value) (types.Value, error) {
			vals := make([]types.Value, len(args))
			for i, code := range args {
				val, err := code(env)
				if err != nil {
					return types.Nil(), err
				}
				vals[i] = val
			}
			out, err := fn(vals)
			if err != nil {
				return types.Nil(), fmt.Errorf("%s: %w", name, err)
			}
			return out, nil
		}, nil
	case *ndlog.Agg:
		return nil, fmt.Errorf("engine: aggregate in expression position")
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", e)
}

func applyBinOp(op string, l, r types.Value) (types.Value, error) {
	switch op {
	case "+":
		if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
			return types.Int(l.AsInt() + r.AsInt()), nil
		}
		if l.Kind() == types.KindStr || r.Kind() == types.KindStr {
			return types.Str(l.String() + r.String()), nil
		}
		if l.Kind() == types.KindList && r.Kind() == types.KindList {
			out := append(append([]types.Value{}, l.AsList()...), r.AsList()...)
			return types.List(out...), nil
		}
	case "-", "*", "/":
		if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
			switch op {
			case "-":
				return types.Int(l.AsInt() - r.AsInt()), nil
			case "*":
				return types.Int(l.AsInt() * r.AsInt()), nil
			case "/":
				if r.AsInt() == 0 {
					return types.Nil(), fmt.Errorf("division by zero")
				}
				return types.Int(l.AsInt() / r.AsInt()), nil
			}
		}
	case "==":
		return types.Bool(l.Equal(r)), nil
	case "!=":
		return types.Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		if l.Kind() != r.Kind() {
			return types.Nil(), fmt.Errorf("comparing %s with %s", l.Kind(), r.Kind())
		}
		c := l.Compare(r)
		switch op {
		case "<":
			return types.Bool(c < 0), nil
		case "<=":
			return types.Bool(c <= 0), nil
		case ">":
			return types.Bool(c > 0), nil
		case ">=":
			return types.Bool(c >= 0), nil
		}
	case "&&":
		return types.Bool(l.Truthy() && r.Truthy()), nil
	case "||":
		return types.Bool(l.Truthy() || r.Truthy()), nil
	}
	return types.Nil(), fmt.Errorf("bad operands for %s: %s, %s", op, l.Kind(), r.Kind())
}

// builtins is the NDlog function library. The provenance rewrite relies on
// f_vid, f_rid, f_nullid and f_append; the application programs use the
// list helpers.
var builtins = map[string]func(args []types.Value) (types.Value, error){
	// f_vid(name, args...) computes the provenance vertex identifier of
	// the tuple name(args...) — SHA-1 over the canonical tuple encoding
	// (the injective analogue of the paper's f_sha1("name"+a1+...+an)).
	"f_vid": func(args []types.Value) (types.Value, error) {
		if len(args) < 1 || args[0].Kind() != types.KindStr {
			return types.Nil(), fmt.Errorf("want (name, args...)")
		}
		t := types.Tuple{Pred: args[0].AsStr(), Args: args[1:]}
		return types.IDVal(t.VID()), nil
	},
	// f_rid(rule, loc, vidList) computes a rule-execution identifier —
	// the paper's RID = f_sha1(R + RLoc + List).
	"f_rid": func(args []types.Value) (types.Value, error) {
		if len(args) != 3 || args[0].Kind() != types.KindStr ||
			args[1].Kind() != types.KindNode || args[2].Kind() != types.KindList {
			return types.Nil(), fmt.Errorf("want (rule, loc, vidList)")
		}
		list := args[2].AsList()
		ids := make([]types.ID, len(list))
		for i, v := range list {
			if v.Kind() != types.KindID {
				return types.Nil(), fmt.Errorf("vidList element %d is %s, want id", i, v.Kind())
			}
			ids[i] = v.AsID()
		}
		return types.IDVal(types.RuleExecID(args[0].AsStr(), args[1].AsNode(), ids)), nil
	},
	// f_nullid returns the null RID that marks base tuples in prov.
	"f_nullid": func(args []types.Value) (types.Value, error) {
		if len(args) != 0 {
			return types.Nil(), fmt.Errorf("want no arguments")
		}
		return types.IDVal(types.ZeroID), nil
	},
	// f_sha1 hashes any single value.
	"f_sha1": func(args []types.Value) (types.Value, error) {
		if len(args) != 1 {
			return types.Nil(), fmt.Errorf("want one argument")
		}
		return types.IDVal(types.HashBytes(args[0].Encode(nil))), nil
	},
	// f_append builds a list from its arguments (the paper's
	// List = f_append(PID1,...,PIDn)).
	"f_append": func(args []types.Value) (types.Value, error) {
		return types.List(append([]types.Value{}, args...)...), nil
	},
	// f_concat joins lists and scalars into one list: scalars are treated
	// as singleton lists (PATHVECTOR's P = f_concat(S, P2)).
	"f_concat": func(args []types.Value) (types.Value, error) {
		var out []types.Value
		for _, a := range args {
			if a.Kind() == types.KindList {
				out = append(out, a.AsList()...)
			} else {
				out = append(out, a)
			}
		}
		return types.List(out...), nil
	},
	// f_init(a, b) builds the two-element list [a, b].
	"f_init": func(args []types.Value) (types.Value, error) {
		if len(args) != 2 {
			return types.Nil(), fmt.Errorf("want two arguments")
		}
		return types.List(args[0], args[1]), nil
	},
	// f_size reports the length of a list.
	"f_size": func(args []types.Value) (types.Value, error) {
		if len(args) != 1 || args[0].Kind() != types.KindList {
			return types.Nil(), fmt.Errorf("want one list")
		}
		return types.Int(int64(len(args[0].AsList()))), nil
	},
	// f_member(list, x) reports 1 when x is an element of list, else 0.
	"f_member": func(args []types.Value) (types.Value, error) {
		if len(args) != 2 || args[0].Kind() != types.KindList {
			return types.Nil(), fmt.Errorf("want (list, value)")
		}
		for _, e := range args[0].AsList() {
			if e.Equal(args[1]) {
				return types.Int(1), nil
			}
		}
		return types.Int(0), nil
	},
	// f_nth(list, i) returns the i-th element (0-based).
	"f_nth": func(args []types.Value) (types.Value, error) {
		if len(args) != 2 || args[0].Kind() != types.KindList || args[1].Kind() != types.KindInt {
			return types.Nil(), fmt.Errorf("want (list, index)")
		}
		list := args[0].AsList()
		i := args[1].AsInt()
		if i < 0 || i >= int64(len(list)) {
			return types.Nil(), fmt.Errorf("index %d out of range (len %d)", i, len(list))
		}
		return list[i], nil
	},
	// f_empty returns the empty list.
	"f_empty": func(args []types.Value) (types.Value, error) {
		if len(args) != 0 {
			return types.Nil(), fmt.Errorf("want no arguments")
		}
		return types.List(), nil
	},
	// f_cntEDB / f_cntIDB / f_cntRULE are the #DERIVATIONS customization
	// of the paper's f_pEDB/f_pIDB/f_pRULE triple (§5.2.2, Table 3),
	// provided as built-ins so the §5.1 query program can execute through
	// the engine itself: base tuples count 1, alternative derivations
	// sum, rule inputs multiply.
	"f_cntEDB": func(args []types.Value) (types.Value, error) {
		if len(args) != 1 {
			return types.Nil(), fmt.Errorf("want one argument")
		}
		return types.Int(1), nil
	},
	"f_cntIDB": func(args []types.Value) (types.Value, error) {
		if len(args) < 1 || args[0].Kind() != types.KindList {
			return types.Nil(), fmt.Errorf("want a buffer list")
		}
		var sum int64
		for _, v := range args[0].AsList() {
			sum += v.AsInt()
		}
		return types.Int(sum), nil
	},
	"f_cntRULE": func(args []types.Value) (types.Value, error) {
		if len(args) < 1 || args[0].Kind() != types.KindList {
			return types.Nil(), fmt.Errorf("want a buffer list")
		}
		prod := int64(1)
		for _, v := range args[0].AsList() {
			prod *= v.AsInt()
		}
		return types.Int(prod), nil
	},
	// f_ringdist(a, b, space) is the clockwise distance from identifier a
	// to identifier b on a ring of the given size. A zero distance (a == b)
	// is reported as the full ring size so that, under a MIN aggregate, a
	// node's own identifier always loses to any real peer — the CHORD
	// successor election relies on this.
	"f_ringdist": func(args []types.Value) (types.Value, error) {
		if len(args) != 3 || args[0].Kind() != types.KindInt ||
			args[1].Kind() != types.KindInt || args[2].Kind() != types.KindInt {
			return types.Nil(), fmt.Errorf("want (from, to, space)")
		}
		space := args[2].AsInt()
		if space <= 0 {
			return types.Nil(), fmt.Errorf("bad ring size %d", space)
		}
		d := (args[1].AsInt() - args[0].AsInt()) % space
		if d < 0 {
			d += space
		}
		if d == 0 {
			d = space
		}
		return types.Int(d), nil
	},
	// f_between(k, a, b) reports 1 when identifier k lies in the clockwise
	// half-open ring interval (a, b], else 0. a == b denotes the full ring
	// (a lone node owns every key). This is CHORD's ownership test.
	"f_between": func(args []types.Value) (types.Value, error) {
		if len(args) != 3 || args[0].Kind() != types.KindInt ||
			args[1].Kind() != types.KindInt || args[2].Kind() != types.KindInt {
			return types.Nil(), fmt.Errorf("want (key, lo, hi)")
		}
		k, a, b := args[0].AsInt(), args[1].AsInt(), args[2].AsInt()
		var in bool
		switch {
		case a == b:
			in = true
		case a < b:
			in = a < k && k <= b
		default: // interval wraps past zero
			in = k > a || k <= b
		}
		if in {
			return types.Int(1), nil
		}
		return types.Int(0), nil
	},
}
