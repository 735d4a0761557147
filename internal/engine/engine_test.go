package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/types"
)

// testNet is a synchronous multi-node harness: messages are queued and
// drained FIFO, simulating instantaneous delivery.
type testNet struct {
	nodes []*Node
	queue []testMsg
	busy  bool
}

type testMsg struct {
	from, to types.NodeID
	m        *Message
}

func (tn *testNet) Send(from, to types.NodeID, m *Message) {
	// Serialize through the codec to exercise the wire path.
	enc := m.Encode(nil)
	dec, err := DecodeMessage(enc)
	if err != nil {
		panic(err)
	}
	if len(enc) != m.WireSize() {
		panic("wire size mismatch")
	}
	tn.queue = append(tn.queue, testMsg{from, to, dec})
	tn.drain()
}

func (tn *testNet) drain() {
	if tn.busy {
		return
	}
	tn.busy = true
	defer func() { tn.busy = false }()
	for len(tn.queue) > 0 {
		q := tn.queue[0]
		tn.queue = tn.queue[1:]
		tn.nodes[q.to].HandleMessage(q.from, q.m)
	}
}

func newTestNet(t *testing.T, src string, n int, mode ProvMode) *testNet {
	t.Helper()
	prog, err := Compile(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNet{}
	for i := 0; i < n; i++ {
		tn.nodes = append(tn.nodes, NewNode(types.NodeID(i), prog, mode, tn))
	}
	return tn
}

func (tn *testNet) checkErr(t *testing.T) {
	t.Helper()
	for _, n := range tn.nodes {
		if n.Err != nil {
			t.Fatalf("node %s: %v", n.ID, n.Err)
		}
	}
}

func tuples(n *Node, pred string) []string {
	var out []string
	for _, tu := range n.Tuples(pred) {
		out = append(out, tu.String())
	}
	return out
}

func TestLocalJoin(t *testing.T) {
	tn := newTestNet(t, `
r1 reach(@X,Y) :- edge(@X,Y).
r2 reach(@X,Z) :- edge(@X,Y), reach2(@X,Y,Z).
`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("edge", types.Node(0), types.Int(1)))
	n.InsertBase(types.NewTuple("reach2", types.Node(0), types.Int(1), types.Int(9)))
	tn.checkErr(t)
	got := tuples(n, "reach")
	if len(got) != 2 {
		t.Fatalf("reach = %v, want 2 tuples", got)
	}
}

func TestDistributedRuleShipsHead(t *testing.T) {
	tn := newTestNet(t, `r1 at(@Y,X) :- edge(@X,Y).`, 2, ProvReference)
	tn.nodes[0].InsertBase(types.NewTuple("edge", types.Node(0), types.Node(1)))
	tn.checkErr(t)
	if got := tuples(tn.nodes[1], "at"); len(got) != 1 || got[0] != "at(@b,a)" {
		t.Fatalf("at@b = %v", got)
	}
	// The receiving node holds a prov entry pointing back to the sender.
	vid := types.NewTuple("at", types.Node(1), types.Node(0)).VID()
	derivs := tn.nodes[1].Store.Derivations(vid)
	if len(derivs) != 1 || derivs[0].RLoc != 0 {
		t.Fatalf("prov at receiver = %+v", derivs)
	}
	if _, ok := tn.nodes[0].Store.RuleExecOf(derivs[0].RID); !ok {
		t.Fatal("ruleExec missing at deriving node")
	}
}

func TestConditionsAndAssignments(t *testing.T) {
	tn := newTestNet(t, `
r1 out(@X,C) :- in(@X,A,B), C = A + B, C > 5, A != B.
`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("in", types.Node(0), types.Int(2), types.Int(2))) // A == B
	n.InsertBase(types.NewTuple("in", types.Node(0), types.Int(2), types.Int(3))) // C = 5, not > 5
	n.InsertBase(types.NewTuple("in", types.Node(0), types.Int(3), types.Int(4))) // C = 7: passes
	tn.checkErr(t)
	if got := tuples(n, "out"); len(got) != 1 || got[0] != "out(@a,7)" {
		t.Fatalf("out = %v", got)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	tn := newTestNet(t, `r1 loop(@X) :- edge(@X,X).`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("edge", types.Node(0), types.Node(0)))
	n.InsertBase(types.NewTuple("edge", types.Node(0), types.Node(1)))
	tn.checkErr(t)
	if got := tuples(n, "loop"); len(got) != 1 {
		t.Fatalf("loop = %v, want exactly the self-edge", got)
	}
}

func TestDeletionCascade(t *testing.T) {
	tn := newTestNet(t, `
r1 d1(@X,Y) :- base(@X,Y).
r2 d2(@X,Y) :- d1(@X,Y), other(@X).
`, 1, ProvReference)
	n := tn.nodes[0]
	b := types.NewTuple("base", types.Node(0), types.Int(1))
	n.InsertBase(types.NewTuple("other", types.Node(0)))
	n.InsertBase(b)
	tn.checkErr(t)
	if len(tuples(n, "d2")) != 1 {
		t.Fatal("d2 not derived")
	}
	n.DeleteBase(b)
	tn.checkErr(t)
	if got := tuples(n, "d1"); len(got) != 0 {
		t.Fatalf("d1 survived deletion: %v", got)
	}
	if got := tuples(n, "d2"); len(got) != 0 {
		t.Fatalf("d2 survived cascade: %v", got)
	}
	// Provenance fully retracted too.
	if n.Store.NumProv() != 1 || n.Store.NumRuleExec() != 0 {
		t.Fatalf("provenance leak: %d prov (want 1: other), %d ruleExec",
			n.Store.NumProv(), n.Store.NumRuleExec())
	}
}

func TestMultipleDerivationsSurviveSingleDeletion(t *testing.T) {
	tn := newTestNet(t, `
r1 d(@X) :- p(@X,Y).
`, 1, ProvReference)
	n := tn.nodes[0]
	p1 := types.NewTuple("p", types.Node(0), types.Int(1))
	p2 := types.NewTuple("p", types.Node(0), types.Int(2))
	n.InsertBase(p1)
	n.InsertBase(p2)
	tn.checkErr(t)
	vid := types.NewTuple("d", types.Node(0)).VID()
	if len(n.Store.Derivations(vid)) != 2 {
		t.Fatalf("derivations = %d, want 2", len(n.Store.Derivations(vid)))
	}
	n.DeleteBase(p1)
	tn.checkErr(t)
	if got := tuples(n, "d"); len(got) != 1 {
		t.Fatalf("d should survive with one derivation left: %v", got)
	}
	if len(n.Store.Derivations(vid)) != 1 {
		t.Fatalf("derivations after delete = %d, want 1", len(n.Store.Derivations(vid)))
	}
	n.DeleteBase(p2)
	tn.checkErr(t)
	if got := tuples(n, "d"); len(got) != 0 {
		t.Fatalf("d should vanish: %v", got)
	}
}

func TestMinAggregateIncremental(t *testing.T) {
	tn := newTestNet(t, `agg best(@X,min<C>) :- val(@X,C).`, 1, ProvReference)
	n := tn.nodes[0]
	v5 := types.NewTuple("val", types.Node(0), types.Int(5))
	v3 := types.NewTuple("val", types.Node(0), types.Int(3))
	v7 := types.NewTuple("val", types.Node(0), types.Int(7))
	n.InsertBase(v5)
	if got := tuples(n, "best"); len(got) != 1 || got[0] != "best(@a,5)" {
		t.Fatalf("best = %v, want 5", got)
	}
	n.InsertBase(v3)
	if got := tuples(n, "best"); len(got) != 1 || got[0] != "best(@a,3)" {
		t.Fatalf("best = %v, want 3", got)
	}
	n.InsertBase(v7)
	if got := tuples(n, "best"); got[0] != "best(@a,3)" {
		t.Fatalf("best = %v, want 3 still", got)
	}
	n.DeleteBase(v3)
	if got := tuples(n, "best"); got[0] != "best(@a,5)" {
		t.Fatalf("best = %v, want back to 5", got)
	}
	n.DeleteBase(v5)
	n.DeleteBase(v7)
	if got := tuples(n, "best"); len(got) != 0 {
		t.Fatalf("best = %v, want empty group removed", got)
	}
	tn.checkErr(t)
}

func TestMinAggregateCarriedAttrs(t *testing.T) {
	tn := newTestNet(t, `agg best(@X,D,min<C,P>) :- route(@X,D,C,P).`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("route", types.Node(0), types.Node(1), types.Int(4), types.Str("viaQ")))
	n.InsertBase(types.NewTuple("route", types.Node(0), types.Node(1), types.Int(2), types.Str("viaP")))
	tn.checkErr(t)
	got := tuples(n, "best")
	if len(got) != 1 || got[0] != "best(@a,b,2,viaP)" {
		t.Fatalf("best = %v, want the arg-min carrying viaP", got)
	}
}

func TestMaxAggregate(t *testing.T) {
	tn := newTestNet(t, `agg top(@X,max<C>) :- val(@X,C).`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("val", types.Node(0), types.Int(5)))
	n.InsertBase(types.NewTuple("val", types.Node(0), types.Int(9)))
	n.InsertBase(types.NewTuple("val", types.Node(0), types.Int(1)))
	tn.checkErr(t)
	if got := tuples(n, "top"); len(got) != 1 || got[0] != "top(@a,9)" {
		t.Fatalf("top = %v", got)
	}
}

func TestCountAggregate(t *testing.T) {
	tn := newTestNet(t, `agg num(@X,COUNT<*>) :- item(@X,Y).`, 1, ProvNone)
	n := tn.nodes[0]
	i1 := types.NewTuple("item", types.Node(0), types.Int(1))
	i2 := types.NewTuple("item", types.Node(0), types.Int(2))
	n.InsertBase(i1)
	n.InsertBase(i2)
	tn.checkErr(t)
	if got := tuples(n, "num"); len(got) != 1 || got[0] != "num(@a,2)" {
		t.Fatalf("num = %v", got)
	}
	n.DeleteBase(i1)
	if got := tuples(n, "num"); got[0] != "num(@a,1)" {
		t.Fatalf("num after delete = %v", got)
	}
	n.DeleteBase(i2)
	if got := tuples(n, "num"); len(got) != 0 {
		t.Fatalf("num after all deleted = %v", got)
	}
}

func TestAggListAggregate(t *testing.T) {
	tn := newTestNet(t, `agg lst(@X,AGGLIST<Y>) :- item(@X,Y).`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("item", types.Node(0), types.Int(3)))
	n.InsertBase(types.NewTuple("item", types.Node(0), types.Int(1)))
	tn.checkErr(t)
	got := tuples(n, "lst")
	if len(got) != 1 || got[0] != "lst(@a,((1),(3)))" {
		t.Fatalf("lst = %v", got)
	}
}

func TestEventTriggersAndIsTransient(t *testing.T) {
	tn := newTestNet(t, `
r1 seen(@X,Y) :- ePing(@X,Y), filter(@X,Y).
`, 1, ProvNone)
	n := tn.nodes[0]
	n.InsertBase(types.NewTuple("filter", types.Node(0), types.Int(1)))
	n.InjectEvent(types.NewTuple("ePing", types.Node(0), types.Int(1)))
	n.InjectEvent(types.NewTuple("ePing", types.Node(0), types.Int(2))) // filtered out
	tn.checkErr(t)
	if got := tuples(n, "seen"); len(got) != 1 {
		t.Fatalf("seen = %v", got)
	}
	if n.TupleCount("ePing") > 0 {
		t.Fatal("event was materialized")
	}
}

func TestSelfJoinRejected(t *testing.T) {
	_, err := Compile(ndlog.MustParse(`r1 out(@X,Y,Z) :- edge(@X,Y), edge(@X,Z).`))
	if err == nil {
		t.Fatal("self-join accepted; the engine documents it as unsupported")
	}
}

// TestEventAggregateRejected: an aggregate row is a handle to a stored
// entry of the body predicate, so an aggregate over an event is a compile
// error naming the rule.
func TestEventAggregateRejected(t *testing.T) {
	_, err := Compile(ndlog.MustParse(`b1 best(@X,min<C>) :- eCost(@X,C).`))
	if err == nil || !strings.Contains(err.Error(), "rule b1:") || !strings.Contains(err.Error(), "eCost") {
		t.Fatalf("err = %v, want a rejection of b1's event aggregate", err)
	}
}

// TestAssignedAggregateVariableRejected: aggregate values are read off the
// input entry's args, so a MIN/MAX/AGGLIST variable bound only by an
// assignment is a compile error naming the rule.
func TestAssignedAggregateVariableRejected(t *testing.T) {
	for _, src := range []string{
		`b1 best(@X,min<D>) :- cost(@X,C), D = C + 1.`,
		`b1 best(@X,max<C,P>) :- cost(@X,C), P = C * 2.`,
		`b1 best(@X,AGGLIST<D>) :- cost(@X,C), D = C + 1.`,
	} {
		_, err := Compile(ndlog.MustParse(src))
		if err == nil || !strings.Contains(err.Error(), "rule b1:") || !strings.Contains(err.Error(), "assignment") {
			t.Errorf("%s: err = %v, want a rejection of the assigned aggregate variable", src, err)
		}
	}
}

func TestArityMismatchRejected(t *testing.T) {
	_, err := Compile(ndlog.MustParse(`
r1 p(@X) :- q(@X,Y).
r2 p(@X,Y) :- s(@X,Y).
`))
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestRuleCountBounded: a rule's number names its ruleExec table in a
// node's store, which numbers provenance.MaxRules tables; Compile rejects a
// program with more rules and accepts one with exactly that many.
func TestRuleCountBounded(t *testing.T) {
	src := func(rules int) string {
		var b strings.Builder
		for i := range rules {
			fmt.Fprintf(&b, "r%d out(@X,Y) :- in(@X,Y).\n", i)
		}
		return b.String()
	}
	if _, err := Compile(ndlog.MustParse(src(provenance.MaxRules))); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(ndlog.MustParse(src(provenance.MaxRules + 1))); err == nil {
		t.Fatalf("a program of %d rules compiled", provenance.MaxRules+1)
	}
}

// TestDivisionByZeroSurfaces: an expression error in a rule body, a plain
// rule's or an aggregate rule's group-by assignment, becomes the node's Err,
// naming the rule.
func TestDivisionByZeroSurfaces(t *testing.T) {
	for _, src := range []string{
		`r1 out(@X,C) :- in(@X,A,B), C = A / B.`,
		`r1 out(@X,G,COUNT<*>) :- in(@X,A,B), G = A / B.`,
	} {
		tn := newTestNet(t, src, 1, ProvNone)
		n := tn.nodes[0]
		n.InsertBase(types.NewTuple("in", types.Node(0), types.Int(4), types.Int(0)))
		if n.Err == nil || !strings.Contains(n.Err.Error(), "rule r1") {
			t.Fatalf("%s: division by zero surfaced as %v, want an error naming rule r1", src, n.Err)
		}
	}
}

// TestQueryProgramBuiltins: f_pEDB/f_pIDB/f_pRULE splice POLYNOMIAL's wire
// form, and a buffer element that is not a polynomial makes the result Zero.
func TestQueryProgramBuiltins(t *testing.T) {
	call := func(fn string, args ...types.Value) []byte {
		t.Helper()
		v, err := builtins[fn](args)
		if err != nil || v.Kind() != types.KindProv {
			t.Fatalf("%s: %v, %v", fn, v, err)
		}
		return v.AsProv()
	}
	vid := types.HashString("v")
	lit := call("f_pEDB", types.IDVal(vid), types.Node(1))
	if want := algebra.AppendBase(nil, algebra.Base{VID: vid, Label: vid.Short(), Node: 1}); string(lit) != string(want) {
		t.Fatalf("f_pEDB = %x, want %x", lit, want)
	}
	buf := types.List(types.Prov(lit))
	if got, want := call("f_pIDB", buf, types.IDVal(vid), types.Node(1)), algebra.SpliceSum("", 1, [][]byte{lit}); string(got) != string(want) {
		t.Fatalf("f_pIDB = %x, want %x", got, want)
	}
	if got, want := call("f_pRULE", buf, types.Str("r1"), types.Node(2)), algebra.SpliceProd("r1", 2, [][]byte{lit}); string(got) != string(want) {
		t.Fatalf("f_pRULE = %x, want %x", got, want)
	}
	bad := types.List(types.Prov(lit), types.Int(1))
	if got := call("f_pIDB", bad, types.IDVal(vid), types.Node(1)); len(got) != 1 || algebra.Op(got[0]) != algebra.OpZero {
		t.Fatalf("f_pIDB over a non-polynomial = %x, want Zero", got)
	}
}

// TestIncrementalMatchesNaive is the core maintenance property: after a
// random insert/delete workload, the engine's state equals evaluating the
// surviving base tuples from scratch.
func TestIncrementalMatchesNaive(t *testing.T) {
	const src = `
r1 hop(@X,Y,C) :- edge(@X,Y,C).
r2 reach(@X,Y) :- edge(@X,Y,C).
agg cheap(@X,Y,min<C>) :- hop(@X,Y,C).
`
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		inc := newTestNet(t, src, 1, ProvReference)
		n := inc.nodes[0]
		live := map[string]types.Tuple{}
		for step := 0; step < 60; step++ {
			e := types.NewTuple("edge", types.Node(0), types.Node(types.NodeID(rng.Intn(4))), types.Int(int64(rng.Intn(5))))
			if _, ok := live[e.Key()]; ok && rng.Intn(2) == 0 {
				delete(live, e.Key())
				n.DeleteBase(e)
			} else if !ok {
				live[e.Key()] = e
				n.InsertBase(e)
			}
		}
		inc.checkErr(t)

		naive := newTestNet(t, src, 1, ProvReference)
		for _, e := range live {
			naive.nodes[0].InsertBase(e)
		}
		naive.checkErr(t)

		for _, pred := range []string{"edge", "hop", "reach", "cheap"} {
			gi := tuples(n, pred)
			gn := tuples(naive.nodes[0], pred)
			if len(gi) != len(gn) {
				t.Fatalf("trial %d: %s has %d tuples incrementally, %d naively\ninc: %v\nnaive: %v",
					trial, pred, len(gi), len(gn), gi, gn)
			}
			for i := range gi {
				if gi[i] != gn[i] {
					t.Fatalf("trial %d: %s mismatch %s vs %s", trial, pred, gi[i], gn[i])
				}
			}
		}
		// Provenance store sizes agree too (no leaks, no gaps).
		if n.Store.NumProv() != naive.nodes[0].Store.NumProv() {
			t.Fatalf("trial %d: prov rows %d vs %d", trial, n.Store.NumProv(), naive.nodes[0].Store.NumProv())
		}
		if n.Store.NumRuleExec() != naive.nodes[0].Store.NumRuleExec() {
			t.Fatalf("trial %d: ruleExec rows %d vs %d", trial, n.Store.NumRuleExec(), naive.nodes[0].Store.NumRuleExec())
		}
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Tuple: types.NewTuple("p", types.Node(1), types.Int(2)), Delta: Insert},
		{Tuple: types.NewTuple("p", types.Node(1)), Delta: Delete,
			HasRef: true, RID: types.HashString("r"), RLoc: 7},
		{Tuple: types.NewTuple("q", types.Node(0), types.Str("x")), Delta: Update,
			Payload: []byte{1, 2, 3, 4}},
	}
	for _, m := range msgs {
		enc := m.Encode(nil)
		if len(enc) != m.WireSize() {
			t.Errorf("%s: wire size %d != %d", m, m.WireSize(), len(enc))
		}
		dec, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !dec.Tuple.Equal(m.Tuple) || dec.Delta != m.Delta || dec.HasRef != m.HasRef ||
			dec.RID != m.RID || dec.RLoc != m.RLoc || string(dec.Payload) != string(m.Payload) {
			t.Errorf("round trip mismatch: %+v vs %+v", dec, m)
		}
	}
	if _, err := DecodeMessage([]byte{1}); err == nil {
		t.Error("truncated message accepted")
	}
	// Only the three wire signs decode; the engine-internal rederive sign
	// (2) must be rejected so a forged datagram cannot re-show a staged
	// suspect mid-deletion-wave.
	bad := (&Message{Tuple: types.NewTuple("p", types.Node(1)), Delta: Insert}).Encode(nil)
	bad[1] = 2
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("out-of-range delta sign accepted")
	}
}

func TestReferenceOverheadIsExactly24Bytes(t *testing.T) {
	tu := types.NewTuple("pathCost", types.Node(1), types.Node(2), types.Int(5))
	plain := &Message{Tuple: tu, Delta: Insert}
	ref := &Message{Tuple: tu, Delta: Insert, HasRef: true, RID: types.HashString("x"), RLoc: 3}
	if d := ref.WireSize() - plain.WireSize(); d != types.IDLen+4 {
		t.Errorf("reference overhead = %d bytes, want %d (20-byte RID + 4-byte RLoc)", d, types.IDLen+4)
	}
}
