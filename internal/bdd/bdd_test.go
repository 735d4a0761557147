package bdd

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// boolExpr is a random boolean expression evaluated both directly and via
// BDDs.
type boolExpr struct {
	op   int // 0 var, 1 and, 2 or, 3 not
	v    int
	l, r *boolExpr
}

func randExpr(rng *rand.Rand, depth, vars int) *boolExpr {
	if depth == 0 || rng.Intn(4) == 0 {
		return &boolExpr{op: 0, v: rng.Intn(vars)}
	}
	switch rng.Intn(3) {
	case 0:
		return &boolExpr{op: 1, l: randExpr(rng, depth-1, vars), r: randExpr(rng, depth-1, vars)}
	case 1:
		return &boolExpr{op: 2, l: randExpr(rng, depth-1, vars), r: randExpr(rng, depth-1, vars)}
	default:
		return &boolExpr{op: 3, l: randExpr(rng, depth-1, vars)}
	}
}

func (e *boolExpr) eval(assign []bool) bool {
	switch e.op {
	case 0:
		return assign[e.v]
	case 1:
		return e.l.eval(assign) && e.r.eval(assign)
	case 2:
		return e.l.eval(assign) || e.r.eval(assign)
	default:
		return !e.l.eval(assign)
	}
}

func (e *boolExpr) build(m *Manager) Ref {
	switch e.op {
	case 0:
		return m.Var(x(e.v))
	case 1:
		return m.And(e.l.build(m), e.r.build(m))
	case 2:
		return m.Or(e.l.build(m), e.r.build(m))
	default:
		return m.Not(e.l.build(m))
	}
}

// TestBDDMatchesTruthTable is the core property: for random expressions
// over <= 6 variables, the BDD agrees with direct evaluation on every
// assignment, and equal functions share a node (canonicity).
func TestBDDMatchesTruthTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const vars = 6
	for trial := 0; trial < 300; trial++ {
		e := randExpr(rng, 5, vars)
		m := New()
		r := e.build(m)
		for mask := 0; mask < 1<<vars; mask++ {
			assign := make([]bool, vars)
			am := map[Var]bool{}
			for i := 0; i < vars; i++ {
				assign[i] = mask&(1<<i) != 0
				am[x(i)] = assign[i]
			}
			if m.Eval(r, am) != e.eval(assign) {
				t.Fatalf("trial %d mask %b: BDD disagrees with direct evaluation", trial, mask)
			}
		}
	}
}

func TestBDDCanonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const vars = 5
	for trial := 0; trial < 200; trial++ {
		m := New()
		e1 := randExpr(rng, 4, vars)
		e2 := randExpr(rng, 4, vars)
		r1, r2 := e1.build(m), e2.build(m)
		equal := true
		for mask := 0; mask < 1<<vars; mask++ {
			assign := make([]bool, vars)
			for i := 0; i < vars; i++ {
				assign[i] = mask&(1<<i) != 0
			}
			if e1.eval(assign) != e2.eval(assign) {
				equal = false
				break
			}
		}
		if (r1 == r2) != equal {
			t.Fatalf("trial %d: canonicity violated (refs equal=%v, functions equal=%v)", trial, r1 == r2, equal)
		}
	}
}

// TestAbsorption checks the paper's §6.3 example: a·(a+b) = a.
func TestAbsorption(t *testing.T) {
	m := New()
	a, b := m.Var(x(0)), m.Var(x(1))
	if got := m.And(a, m.Or(a, b)); got != a {
		t.Errorf("a·(a+b) = %s, want a", m.String(got))
	}
	if got := m.Or(a, m.And(a, b)); got != a {
		t.Errorf("a+(a·b) = %s, want a", m.String(got))
	}
}

func TestBooleanLaws(t *testing.T) {
	f := func(av, bv, cv uint8) bool {
		m := New()
		a, b, c := m.Var(x(int(av%4))), m.Var(x(int(bv%4))), m.Var(x(int(cv%4)))
		// Commutativity, associativity, distributivity, De Morgan.
		if m.And(a, b) != m.And(b, a) || m.Or(a, b) != m.Or(b, a) {
			return false
		}
		if m.And(a, m.And(b, c)) != m.And(m.And(a, b), c) {
			return false
		}
		if m.And(a, m.Or(b, c)) != m.Or(m.And(a, b), m.And(a, c)) {
			return false
		}
		if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
			return false
		}
		if m.Not(m.Not(a)) != a {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRestrict(t *testing.T) {
	m := New()
	a, b := m.Var(x(0)), m.Var(x(1))
	f := m.Or(a, m.And(m.Not(a), b)) // a + !a·b = a + b
	if got := m.Restrict(f, x(0), true); got != True {
		t.Errorf("f[a=1] = %s, want 1", m.String(got))
	}
	if got := m.Restrict(f, x(0), false); got != b {
		t.Errorf("f[a=0] = %s, want b", m.String(got))
	}
	// Restricting an absent variable is the identity.
	if got := m.Restrict(f, x(3), true); got != f {
		t.Errorf("restrict on absent var changed the function")
	}
}

// TestRestrictMatchesTruthTable: for random expressions, Restrict(f, v,
// val) agrees with evaluating f under assignments that fix v, on every
// assignment of the remaining variables.
func TestRestrictMatchesTruthTable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const vars = 5
	for trial := 0; trial < 200; trial++ {
		e := randExpr(rng, 4, vars)
		m := New()
		f := e.build(m)
		v := x(rng.Intn(vars))
		val := rng.Intn(2) == 1
		g := m.Restrict(f, v, val)
		// The restricted function must not depend on v.
		for _, sv := range m.Support(g) {
			if sv == v {
				t.Fatalf("trial %d: restricted BDD still depends on %s", trial, v)
			}
		}
		for mask := 0; mask < 1<<vars; mask++ {
			assign := map[Var]bool{}
			for i := 0; i < vars; i++ {
				assign[x(i)] = mask&(1<<i) != 0
			}
			fixed := map[Var]bool{}
			for k, b := range assign {
				fixed[k] = b
			}
			fixed[v] = val
			if m.Eval(g, assign) != m.Eval(f, fixed) {
				t.Fatalf("trial %d: restrict(%s=%v) differs at %b", trial, v, val, mask)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const vars = 6
	for trial := 0; trial < 200; trial++ {
		e := randExpr(rng, 5, vars)
		m1 := New()
		r1 := e.build(m1)
		enc := m1.Encode(r1, nil)
		// Decode into a fresh manager and compare by truth table.
		m2 := New()
		r2, n, err := m2.Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		for mask := 0; mask < 1<<vars; mask++ {
			am := map[Var]bool{}
			for i := 0; i < vars; i++ {
				am[x(i)] = mask&(1<<i) != 0
			}
			if m1.Eval(r1, am) != m2.Eval(r2, am) {
				t.Fatalf("trial %d: decoded BDD differs at %b", trial, mask)
			}
		}
		// Re-encoding from the new manager is byte-identical (canonical
		// serialization).
		if got := string(m2.Encode(r2, nil)); got != string(enc) {
			t.Fatalf("trial %d: serialization not canonical across managers", trial)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	m := New()
	if _, _, err := m.Decode([]byte{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := m.Decode([]byte{5, 1}); err == nil {
		t.Error("truncated input accepted")
	}
	// Forward reference: node 0 referencing node index 3.
	if _, _, err := m.Decode([]byte{1, 0, 0, 3, 3, 2}); err == nil {
		t.Error("forward reference accepted")
	}
	// A node count no input could back used to size a slice unchecked
	// (makeslice: len out of range) — on a payload straight off the socket.
	if _, _, err := m.Decode(hostileCount); err == nil {
		t.Error("node count 2^62 accepted")
	}
	// A node that is no NodeID, an ordinal that only fits after narrowing.
	for _, v := range [][2]uint64{{1 << 31, 0}, {1<<32 + 5, 0}, {0, 1 << 32}} {
		enc := binary.AppendUvarint(binary.AppendUvarint([]byte{1}, v[0]), v[1])
		if _, _, err := m.Decode(append(enc, 0, 1, 2)); err == nil {
			t.Errorf("variable (%d, %d) accepted", v[0], v[1])
		}
	}
	// Over-long varints: one value, one spelling.
	if _, _, err := m.Decode([]byte{0x80, 0, 1}); err == nil {
		t.Error("padded node count accepted")
	}
	if _, _, err := m.Decode([]byte{0, 0x81, 0}); err == nil {
		t.Error("padded root accepted")
	}
}

// TestDecodeRejectsNonCanonical: a peer's payload decodes only when it is
// the one serialization of its function. Value mode's payload-changed test
// compares handles, so a second spelling of a function must not yield a
// second handle.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
	}{
		// x0.1 whose hi child is x0.0: an unordered diagram.
		{"child above its parent", []byte{2, 0, 0, 0, 1, 0, 1, 0, 2, 3}},
		{"lo == hi", []byte{1, 0, 0, 1, 1, 2}},
		// x0.0 ? (x0.1 + x0.2) : x0.2, listing x0.2 twice.
		{"duplicate node", []byte{4, 0, 2, 0, 1, 0, 2, 0, 1, 0, 1, 3, 1, 0, 0, 2, 4, 5}},
		{"unreachable node", []byte{2, 0, 0, 0, 1, 0, 1, 0, 1, 3}},
		// x0.0 ? x0.2 : x0.1, its hi child listed before its lo child.
		{"misordered list", []byte{3, 0, 2, 0, 1, 0, 1, 0, 1, 0, 0, 3, 2, 4}},
		{"root not last", []byte{2, 0, 1, 0, 1, 0, 0, 0, 2, 2}},
		{"terminal root with nodes", []byte{1, 0, 0, 0, 1, 1}},
	} {
		m := New()
		if r, _, err := m.Decode(c.b); err == nil {
			t.Errorf("%s: %x accepted as %s", c.name, c.b, m.String(r))
		}
	}
	// Their canonical forms decode, to the handle the manager builds.
	m := New()
	a, b, c := m.Var(x(0)), m.Var(x(1)), m.Var(x(2))
	for _, f := range []Ref{m.And(a, b), m.Or(m.And(a, m.Or(b, c)), m.And(m.Not(a), c)), m.And(a, m.Or(m.And(a, c), m.And(m.Not(a), b)))} {
		enc := m.Encode(f, nil)
		if got, n, err := m.Decode(enc); err != nil || n != len(enc) || got != f {
			t.Errorf("canonical %x: got %d (n=%d, err=%v), want %d", enc, got, n, err, f)
		}
	}
}

// hostileCount is the uvarint 2^62 where a node count belongs.
var hostileCount = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}

// FuzzDecodeBDD feeds arbitrary bytes to the BDD payload decoder a query hop
// and a value-mode delta run on payloads from other nodes. Properties:
//
//  1. No panic on any input.
//  2. An accepted input is the canonical form of what it decodes to: Encode
//     of the decoded root reproduces exactly the bytes consumed.
func FuzzDecodeBDD(f *testing.F) {
	// A real query result: BDD for bestPathCost(@a,c,5) on the Figure 3
	// MINCOST fixpoint, link(@a,c,5) ∨ (link(@b,a,3) ∧ link(@b,c,2)), its
	// variables numbered by their owners a (0) and b (1).
	f.Add([]byte{3, 1, 1, 0, 1, 1, 0, 0, 2, 0, 0, 3, 1, 4})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 1})
	f.Add([]byte{})
	f.Add(hostileCount)
	f.Add([]byte{2, 0, 0, 0, 1, 0, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		m := New()
		r, n, err := m.Decode(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if enc := m.Encode(r, nil); string(enc) != string(b[:n]) {
			t.Fatalf("accepted %x, whose canonical form is %x", b[:n], enc)
		}
	})
}

func TestSizeSupportAnySat(t *testing.T) {
	m := New()
	a, b, c := m.Var(x(0)), m.Var(x(1)), m.Var(x(2))
	f := m.Or(m.And(a, b), c)
	if s := m.Support(f); len(s) != 3 {
		t.Errorf("support = %v, want 3 vars", s)
	}
	if m.Size(f) == 0 {
		t.Error("size of non-terminal is zero")
	}
	assign, ok := m.AnySat(f)
	if !ok || !m.Eval(f, assign) {
		t.Errorf("AnySat returned non-satisfying %v", assign)
	}
	if _, ok := m.AnySat(False); ok {
		t.Error("AnySat(False) succeeded")
	}
	if m.Size(True) != 0 || len(m.Support(True)) != 0 {
		t.Error("terminal metrics wrong")
	}
}

func TestStringForms(t *testing.T) {
	m := New()
	if m.String(False) != "0" || m.String(True) != "1" {
		t.Error("terminal strings wrong")
	}
	a := m.Var(x(0))
	if m.String(a) != "x0.0" {
		t.Errorf("String(x0.0) = %q", m.String(a))
	}
	// Variables order by owner, then ordinal.
	f := m.And(m.Var(Var{Node: 1, Ord: 0}), m.Not(m.Var(Var{Node: 0, Ord: 7})))
	if got := m.String(f); got != "!x0.7*x1.0" {
		t.Errorf("String = %q, want !x0.7*x1.0", got)
	}
}

// x names variable i of node 0.
func x(i int) Var { return Var{Ord: uint32(i)} }
