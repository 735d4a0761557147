package algebra

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/provenance"
	"repro/internal/types"
)

func baseN(i int) Base {
	var vid types.ID
	vid[0] = byte(i)
	vid[1] = byte(i >> 8)
	return Base{VID: vid, Label: string(rune('α' + i%24)), Node: types.NodeID(i % 8)}
}

// randPoly builds a random polynomial over nVars base tuples.
func randPoly(rng *rand.Rand, depth, nVars int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return NewBase(baseN(rng.Intn(nVars)))
	}
	n := 1 + rng.Intn(3)
	kids := make([]*Expr, n)
	for i := range kids {
		kids[i] = randPoly(rng, depth-1, nVars)
	}
	if rng.Intn(2) == 0 {
		return Sum("", kids...)
	}
	return Prod("", kids...)
}

func TestFigure4Polynomial(t *testing.T) {
	// The paper's example: provenance of bestPathCost(@a,c,5) is α + β·γ.
	alpha := NewBase(Base{VID: types.HashString("a"), Label: "α", Node: 0})
	beta := NewBase(Base{VID: types.HashString("b"), Label: "β", Node: 1})
	gamma := NewBase(Base{VID: types.HashString("c"), Label: "γ", Node: 1})
	e := Sum("", alpha, Prod("", beta, gamma))
	if got := e.String(); got != "α + β·γ" {
		t.Errorf("String = %q, want α + β·γ", got)
	}
	if got := Eval(e, Counting()); got != 2 {
		t.Errorf("derivation count = %d, want 2", got)
	}
	if !Eval(e, Boolean()) {
		t.Error("not derivable")
	}
	nodes := SortedNodes(e)
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Errorf("node set = %v, want [a b]", nodes)
	}
}

func TestSumProdSimplification(t *testing.T) {
	b := NewBase(baseN(1))
	if Sum("") != Zero() && Sum("").Op != OpZero {
		t.Error("empty sum is not zero")
	}
	if Prod("").Op != OpOne {
		t.Error("empty product is not one")
	}
	if Sum("", b) != b {
		t.Error("singleton unannotated sum should collapse")
	}
	if Prod("", b) != b {
		t.Error("singleton unannotated product should collapse")
	}
	if Prod("", b, Zero()).Op != OpZero {
		t.Error("product with zero should vanish")
	}
	if Sum("", Zero(), b) != b {
		t.Error("zero in sum should vanish")
	}
	if Prod("", One(), b) != b {
		t.Error("one in product should vanish")
	}
	// Annotated singletons are preserved (the annotation carries location
	// information in the wire format).
	if s := Sum("@a", b); s.Op != OpSum || s.Ann != "@a" {
		t.Error("annotated sum collapsed")
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		e := randPoly(rng, 4, 12)
		enc := e.EncodePayload()
		dec, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: %v (n=%d/%d)", err, n, len(enc))
		}
		// Structural equality via canonical re-encoding.
		if string(dec.EncodePayload()) != string(enc) {
			t.Fatalf("round trip not stable for %s", e)
		}
		// Semantics preserved under every provided semiring.
		if Eval(e, Counting()) != Eval(dec, Counting()) {
			t.Fatalf("counting semantics changed")
		}
		if Eval(e, Boolean()) != Eval(dec, Boolean()) {
			t.Fatalf("boolean semantics changed")
		}
	}
}

// TestBDDAgreesWithBooleanSemiring: for any polynomial, the BDD ring's value
// with all base variables true equals plain derivability; and restricting
// to a trusted subset matches DerivableGiven.
func TestBDDAgreesWithBooleanSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		e := randPoly(rng, 4, 10)
		m := bdd.New()
		name, vidOf := ownerVars()
		r := Eval(e, BDD(m, name).Semiring)

		// Random trust assignment over the bases.
		trusted := map[types.ID]bool{}
		for _, b := range e.BaseSet() {
			trusted[b.VID] = rng.Intn(2) == 0
		}
		want := DerivableGiven(e, func(b Base) bool { return trusted[b.VID] })

		assign := map[bdd.Var]bool{}
		for _, v := range m.Support(r) {
			assign[v] = trusted[vidOf(v)]
		}
		if got := m.Eval(r, assign); got != want {
			t.Fatalf("trial %d: BDD=%v semiring=%v for %s", trial, got, want, e)
		}
	}
}

func TestAbsorptionThroughBDD(t *testing.T) {
	// a·(a+b) condenses to a: the BDD depends only on a.
	a, b := NewBase(baseN(0)), NewBase(baseN(1))
	e := Prod("", a, Sum("", a, b))
	m := bdd.New()
	name, vidOf := ownerVars()
	r := Eval(e, BDD(m, name).Semiring)
	sup := m.Support(r)
	if len(sup) != 1 {
		t.Fatalf("support = %v, want just a", sup)
	}
	if vidOf(sup[0]) != a.Base.VID {
		t.Fatalf("support is not a")
	}
}

// ownerVars names each base tuple's BDD variable in its owner's store, as a
// cluster does, and resolves a variable back to its VID.
func ownerVars() (name func(Base) bdd.Var, vidOf func(bdd.Var) types.ID) {
	stores := map[types.NodeID]*provenance.Store{}
	storeOf := func(n types.NodeID) *provenance.Store {
		if stores[n] == nil {
			stores[n] = provenance.NewStore(n, &provenance.Rules{})
		}
		return stores[n]
	}
	name = func(b Base) bdd.Var { return storeOf(b.Node).BaseVar(b.VID) }
	vidOf = func(v bdd.Var) types.ID {
		vid, _ := storeOf(v.Node).BaseVID(v)
		return vid
	}
	return name, vidOf
}

func TestCountingSemiringLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := Counting()
	for trial := 0; trial < 200; trial++ {
		x := Eval(randPoly(rng, 3, 6), s)
		y := Eval(randPoly(rng, 3, 6), s)
		z := Eval(randPoly(rng, 3, 6), s)
		if s.Add(x, y) != s.Add(y, x) || s.Mul(x, y) != s.Mul(y, x) {
			t.Fatal("commutativity")
		}
		if s.Add(s.Add(x, y), z) != s.Add(x, s.Add(y, z)) {
			t.Fatal("associativity of +")
		}
		if s.Mul(x, s.Add(y, z)) != s.Add(s.Mul(x, y), s.Mul(x, z)) {
			t.Fatal("distributivity")
		}
		if s.Mul(x, s.One()) != x || s.Add(x, s.Zero()) != x {
			t.Fatal("identities")
		}
	}
}

// TestNodeSetZeroAnnihilates: NODESET's Zero (nil: no derivation) absorbs a
// product — a join with an underivable input involves no node — while One
// (the empty set) is the product's identity and both sites union.
func TestNodeSetZeroAnnihilates(t *testing.T) {
	s := NodeSet()
	ab := []types.NodeID{0, 1}
	if s.Mul(ab, nil) != nil || s.Mul(nil, ab) != nil {
		t.Error("product with a nil factor is not nil")
	}
	if got := s.Mul(ab, s.One()); !slices.Equal(got, ab) {
		t.Errorf("ab·1 = %v, want %v", got, ab)
	}
	if got := s.Add(ab, s.Zero()); !slices.Equal(got, ab) {
		t.Errorf("ab+0 = %v, want %v", got, ab)
	}
	if got, want := s.Add([]types.NodeID{0, 2}, []types.NodeID{1, 2}), []types.NodeID{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("{a c}+{b c} = %v, want %v", got, want)
	}
	if got, want := s.Mul([]types.NodeID{2}, []types.NodeID{0}), []types.NodeID{0, 2}; !slices.Equal(got, want) {
		t.Errorf("{c}·{a} = %v, want %v", got, want)
	}
	// Eval sees the Zero kid that Prod would have collapsed.
	e := &Expr{Op: OpProd, Kids: []*Expr{NewBase(baseN(1)), Zero()}}
	if got := SortedNodes(e); got != nil {
		t.Errorf("nodes of b·0 = %v, want nil", got)
	}
}

func TestMinTrust(t *testing.T) {
	a, b, c := baseN(0), baseN(1), baseN(2)
	vals := map[types.ID]int64{a.VID: 90, b.VID: 40, c.VID: 70}
	look := func(x Base) int64 { return vals[x.VID] }
	// a + b·c: max(90, min(40,70)) = 90.
	e := Sum("", NewBase(a), Prod("", NewBase(b), NewBase(c)))
	if got := Eval(e, MinTrust(look)); got != 90 {
		t.Errorf("trust = %d, want 90", got)
	}
	// b·c alone: 40.
	e2 := Prod("", NewBase(b), NewBase(c))
	if got := Eval(e2, MinTrust(look)); got != 40 {
		t.Errorf("trust = %d, want 40", got)
	}
}

func TestBaseSetAndMetrics(t *testing.T) {
	a, b := NewBase(baseN(0)), NewBase(baseN(1))
	e := Sum("@a", Prod("r1@a", a, b), a)
	bs := e.BaseSet()
	if len(bs) != 2 {
		t.Errorf("BaseSet = %d entries, want 2", len(bs))
	}
	if e.Depth() < 2 || e.NumNodes() < 4 {
		t.Errorf("metrics wrong: depth=%d nodes=%d", e.Depth(), e.NumNodes())
	}
	if !strings.Contains(e.String(), "<r1@a>") {
		t.Errorf("annotation lost: %s", e)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, _, err := Decode([]byte{99}); err == nil {
		t.Error("bad opcode accepted")
	}
	e := Prod("x", NewBase(baseN(0)), NewBase(baseN(1)))
	enc := e.EncodePayload()
	for cut := 1; cut < len(enc); cut++ {
		if _, n, err := Decode(enc[:cut]); err == nil && n == len(enc) {
			t.Errorf("truncated decode at %d/%d succeeded", cut, len(enc))
		}
	}
}
