package topology

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

func connected(t *Topology) bool {
	if t.N == 0 {
		return true
	}
	adj := map[types.NodeID][]types.NodeID{}
	for _, l := range t.Links {
		adj[l.U] = append(adj[l.U], l.V)
		adj[l.V] = append(adj[l.V], l.U)
	}
	seen := map[types.NodeID]bool{0: true}
	stack := []types.NodeID{0}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return len(seen) == t.N
}

func TestTransitStubSizes(t *testing.T) {
	for domains := 1; domains <= 5; domains++ {
		topo := TransitStub(DefaultTransitStub(domains), rand.New(rand.NewSource(1)))
		want := domains * 100 // 4 transit + 4*3*8 stub nodes per domain
		if topo.N != want {
			t.Errorf("domains=%d: N=%d, want %d", domains, topo.N, want)
		}
		if !connected(topo) {
			t.Errorf("domains=%d: disconnected", domains)
		}
	}
}

// TestTransitStubNRoundsToWholeDomains: a requested size rounds down to
// whole 100-node domains, with at least one.
func TestTransitStubNRoundsToWholeDomains(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 100}, {40, 100}, {199, 100}, {200, 200}, {250, 200}} {
		if got := TransitStubN(c.n, rand.New(rand.NewSource(1))).N; got != c.want {
			t.Errorf("TransitStubN(%d).N = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTransitStubStubLinkCount(t *testing.T) {
	// §7.2: a 200-node network has about 315 stub-to-stub links.
	topo := TransitStub(DefaultTransitStub(2), rand.New(rand.NewSource(1)))
	got := len(topo.StubStubLinks)
	if got < 280 || got > 340 {
		t.Errorf("stub-stub links = %d, want ≈315", got)
	}
	for _, i := range topo.StubStubLinks {
		if topo.Links[i].Class != ClassStub {
			t.Fatalf("index %d is not a stub-stub link", i)
		}
	}
}

func TestTransitStubDeterminism(t *testing.T) {
	a := TransitStub(DefaultTransitStub(2), rand.New(rand.NewSource(7)))
	b := TransitStub(DefaultTransitStub(2), rand.New(rand.NewSource(7)))
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed produced different topologies")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestLinkClassParams(t *testing.T) {
	lat, bps := ClassTransit.Params()
	if lat.Seconds() != 0.05 || bps != 1e9 {
		t.Error("transit params wrong")
	}
	lat, bps = ClassTransitAccess.Params()
	if lat.Seconds() != 0.01 || bps != 100e6 {
		t.Error("transit-stub params wrong")
	}
	lat, bps = ClassStub.Params()
	if lat.Seconds() != 0.002 || bps != 50e6 {
		t.Error("stub params wrong")
	}
}

func TestRingDegreeBound(t *testing.T) {
	for _, n := range []int{5, 8, 20, 40} {
		topo := Ring(n, rand.New(rand.NewSource(int64(n))))
		if topo.N != n || !connected(topo) {
			t.Fatalf("n=%d: bad ring", n)
		}
		deg := map[types.NodeID]int{}
		for _, l := range topo.Links {
			deg[l.U]++
			deg[l.V]++
		}
		for node, d := range deg {
			if d > 3 {
				t.Errorf("n=%d: node %s degree %d > 3", n, node, d)
			}
			if d < 2 {
				t.Errorf("n=%d: node %s degree %d < 2 (ring broken)", n, node, d)
			}
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	topo := Figure3()
	if topo.N != 4 || len(topo.Links) != 5 {
		t.Fatalf("N=%d links=%d, want 4 and 5", topo.N, len(topo.Links))
	}
	costs := map[string]int64{}
	for _, l := range topo.Links {
		costs[l.U.String()+l.V.String()] = l.Cost
	}
	want := map[string]int64{"ab": 3, "ac": 5, "bc": 2, "bd": 5, "cd": 3}
	for k, v := range want {
		if costs[k] != v {
			t.Errorf("link %s cost %d, want %d", k, costs[k], v)
		}
	}
	adj := topo.Adjacency()
	if len(adj[1]) != 3 { // node b has three neighbors
		t.Errorf("b adjacency = %v", adj[1])
	}
}
