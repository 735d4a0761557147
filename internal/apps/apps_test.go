package apps

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

func TestProgramsParseValidateCompile(t *testing.T) {
	progs := map[string]*ndlog.Program{
		"mincost":       MinCost(),
		"pathvector":    PathVector(),
		"packetforward": PacketForward(),
		"chord":         Chord(),
		"policy":        Policy(),
	}
	for name, p := range progs {
		if err := ndlog.Validate(p); err != nil {
			t.Errorf("%s: validate: %v", name, err)
		}
		if _, err := engine.Compile(p); err != nil {
			t.Errorf("%s: compile: %v", name, err)
		}
		// Every program must survive the provenance rewrite.
		rw, err := ndlog.ProvenanceRewrite(p)
		if err != nil {
			t.Errorf("%s: rewrite: %v", name, err)
			continue
		}
		if _, err := engine.Compile(rw); err != nil {
			t.Errorf("%s: compile rewritten: %v", name, err)
		}
	}
}

// TestBootEDB pins the boot order: both directions of each link in
// topology order, owned by their source node, then the base tuples in node
// order; noLinks keeps only the base.
func TestBootEDB(t *testing.T) {
	topo := topology.Figure3()
	extra := types.NewTuple("ident", types.Node(2), types.Int(7))
	base := map[types.NodeID][]types.Tuple{2: {extra}}
	var got []string
	BootEDB(topo, false, base, func(at types.NodeID, tup types.Tuple) {
		if at != tup.Loc() {
			t.Errorf("%s fed at node %s", tup, at)
		}
		got = append(got, tup.String())
	})
	if want := 2*len(topo.Links) + 1; len(got) != want {
		t.Fatalf("%d tuples, want %d: %v", len(got), want, got)
	}
	l := topo.Links[0]
	if got[0] != LinkTuple(l.U, l.V, l.Cost).String() || got[1] != LinkTuple(l.V, l.U, l.Cost).String() {
		t.Errorf("first link fed as %s, %s", got[0], got[1])
	}
	if got[len(got)-1] != extra.String() {
		t.Errorf("base tuple not last: %v", got)
	}
	got = got[:0]
	BootEDB(topo, true, base, func(_ types.NodeID, tup types.Tuple) { got = append(got, tup.String()) })
	if len(got) != 1 {
		t.Errorf("noLinks fed %v, want only the base tuple", got)
	}
}

func TestPacketTuple(t *testing.T) {
	p := PacketTuple(1, 1, 3, 1024)
	if p.Pred != "ePacket" || p.Loc() != 1 {
		t.Fatalf("packet = %s", p)
	}
	if got := len(p.Args[3].AsStr()); got != 1024 {
		t.Errorf("payload = %d bytes, want 1024", got)
	}
	if p.WireSize() < 1024 {
		t.Errorf("wire size %d below payload", p.WireSize())
	}
}

func TestBestPathCostTuple(t *testing.T) {
	tu := BestPathCostTuple(0, 2, 5)
	if tu.String() != "bestPathCost(@a,c,5)" {
		t.Errorf("tuple = %s", tu)
	}
	if tu.VID() != types.NewTuple("bestPathCost", types.Node(0), types.Node(2), types.Int(5)).VID() {
		t.Error("VID mismatch")
	}
}
