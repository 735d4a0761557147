package engine

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
)

// TestValueModePayloadGrowsWithDerivations exercises value-based
// provenance update propagation on one node: when a tuple gains a second
// derivation, its payload (the ring sum of its derivations) must widen, and
// downstream tuples derived from it must receive the update. Expectations
// are built in the node's own ring, whose handles are canonical: equal
// handles are equal functions.
func TestValueModePayloadGrowsWithDerivations(t *testing.T) {
	tn := newTestNet(t, `
r1 mid(@X) :- p(@X,Y).
r2 top(@X) :- mid(@X), q(@X).
`, 1, ProvValue)
	n := tn.nodes[0]
	r := n.Ring
	base := func(t types.Tuple) algebra.Payload { return r.FromBase(algebra.Base{VID: t.VID()}) }

	q := types.NewTuple("q", types.Node(0))
	p1 := types.NewTuple("p", types.Node(0), types.Int(1))
	p2 := types.NewTuple("p", types.Node(0), types.Int(2))
	n.InsertBase(q)
	n.InsertBase(p1)
	tn.checkErr(t)

	top := types.NewTuple("top", types.Node(0))
	got, ok := n.PayloadOf(top)
	if !ok {
		t.Fatal("top has no payload")
	}
	// With only p1: top requires p1 AND q.
	if want := r.Mul(base(p1), base(q)); got != want {
		t.Errorf("top = %x, want p1·q", n.Ring.Encode(got))
	}

	// Second derivation of mid: the update must propagate into top's
	// payload without any visibility change.
	n.InsertBase(p2)
	tn.checkErr(t)
	got, _ = n.PayloadOf(top)
	if want := r.Mul(r.Add(base(p1), base(p2)), base(q)); got != want {
		t.Errorf("top = %x, want (p1+p2)·q", n.Ring.Encode(got))
	}

	// Deleting p1 shrinks the payload back.
	n.DeleteBase(p1)
	tn.checkErr(t)
	got, ok = n.PayloadOf(top)
	if !ok {
		t.Fatal("top vanished while p2 remains")
	}
	if want := r.Mul(base(p2), base(q)); got != want {
		t.Errorf("top = %x, want p2·q", n.Ring.Encode(got))
	}

	// PayloadOf contract: wrong mode and invisible tuples report false.
	if _, ok := n.PayloadOf(types.NewTuple("top", types.Node(1))); ok {
		t.Error("payload reported for invisible tuple")
	}
	refNode := NewNode(1, n.Prog, ProvReference, tn)
	if _, ok := refNode.PayloadOf(top); ok {
		t.Error("payload reported outside value mode")
	}
}

// TestValueModeEventPayloadUnderBothExecutors: an injected event carries the
// ring's One, so a head joined from it and a stored tuple has that tuple's
// payload when the event fires from the round's fire step.
func TestValueModeEventPayloadUnderBothExecutors(t *testing.T) {
	prog := mustCompile(t, `r1 got(@X,Y) :- eHit(@X,Y), p(@X).`)
	p := types.NewTuple("p", types.Node(0))
	got := types.NewTuple("got", types.Node(0), types.Int(1))
	s := NewScheduler(prog, ProvValue, 1, 0, 1)
	s.InsertBase(0, p)
	s.InjectEvent(0, types.NewTuple("eHit", types.Node(0), types.Int(1)))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	n := s.nodes[0]
	payload, ok := n.PayloadOf(got)
	if want := n.Ring.FromBase(algebra.Base{VID: p.VID()}); !ok || payload != want {
		t.Errorf("got = %x (visible %v), want p's payload %x",
			n.Ring.Encode(payload), ok, n.Ring.Encode(want))
	}
}

// TestValueModeSwapInOneRound: a visible tuple whose only derivation is
// swapped for another within one round (delete the old, insert the new) ends
// the round visible — no net transition — with a new payload. Consumers must
// receive that payload: the round's fire step sends an Update for a visible
// tuple whose payload moved.
func TestValueModeSwapInOneRound(t *testing.T) {
	prog := mustCompile(t, `
r1 mid(@X) :- p(@X,Y).
r2 top(@X) :- mid(@X), q(@X).
r3 low(@X) :- q(@X), mid(@X).
`)
	q := types.NewTuple("q", types.Node(0))
	p1 := types.NewTuple("p", types.Node(0), types.Int(1))
	p2 := types.NewTuple("p", types.Node(0), types.Int(2))
	s := NewScheduler(prog, ProvValue, 1, 0, 1)
	s.InsertBase(0, q)
	s.InsertBase(0, p1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.DeleteBase(0, p1)
	s.InsertBase(0, p2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	n := s.nodes[0]
	r := n.Ring
	want := r.Mul(r.FromBase(algebra.Base{VID: p2.VID()}), r.FromBase(algebra.Base{VID: q.VID()}))
	for _, head := range []string{"top", "low"} {
		got, ok := n.PayloadOf(types.NewTuple(head, types.Node(0)))
		if !ok || got != want {
			t.Errorf("%s = %x (visible %v), want p2·q %x",
				head, r.Encode(got), ok, r.Encode(want))
		}
	}
}
