// Package topology generates the network topologies used by the paper's
// evaluation: GT-ITM-style transit-stub graphs for the simulation
// experiments (§7, Figs 6-15), the ring-plus-random-peer overlay used in
// the testbed deployment (Figs 16-17), and the four-node example of Fig 3.
package topology

import (
	"math/rand"

	"repro/internal/simnet"
	"repro/internal/types"
)

// LinkClass labels the paper's three link tiers.
type LinkClass uint8

// Link tiers with the latency/bandwidth parameters from §7.
const (
	ClassTransit       LinkClass = iota // 50 ms, 1 Gbps
	ClassTransitAccess                  // 10 ms, 100 Mbps
	ClassStub                           // 2 ms, 50 Mbps
)

// Params returns the (latency, bandwidth) pair for a link class.
func (c LinkClass) Params() (simnet.Time, int64) {
	switch c {
	case ClassTransit:
		return 50 * simnet.Millisecond, 1e9
	case ClassTransitAccess:
		return 10 * simnet.Millisecond, 100e6
	default:
		return 2 * simnet.Millisecond, 50e6
	}
}

// Link is one bidirectional edge of a topology, annotated with its tier and
// the protocol-level cost (fixed at 1 in the paper's experiments).
type Link struct {
	U, V  types.NodeID
	Class LinkClass
	Cost  int64
}

// Topology is a generated graph.
type Topology struct {
	N     int
	Links []Link
	// StubStubLinks indexes into Links for the stub-to-stub tier; churn
	// (§7.2) adds and deletes only links of this tier.
	StubStubLinks []int
}

// Install adds every link of the topology to a simulated network.
func (t *Topology) Install(nw *simnet.Network) {
	for _, l := range t.Links {
		lat, bps := l.Class.Params()
		nw.AddLink(l.U, l.V, simnet.Link{Latency: lat, Bps: bps})
	}
}

// Adjacency returns the neighbor lists with costs, as (neighbor, cost)
// pairs per node.
func (t *Topology) Adjacency() map[types.NodeID][]Neighbor {
	adj := make(map[types.NodeID][]Neighbor)
	for _, l := range t.Links {
		adj[l.U] = append(adj[l.U], Neighbor{l.V, l.Cost})
		adj[l.V] = append(adj[l.V], Neighbor{l.U, l.Cost})
	}
	return adj
}

// Neighbor is one adjacency entry.
type Neighbor struct {
	Node types.NodeID
	Cost int64
}

// TransitStubParams mirror §7: "eight nodes per stub, three stubs per
// transit node, and four nodes per transit domain. We increase the number
// of nodes in the network by increasing the number of domains."
type TransitStubParams struct {
	Domains         int
	TransitPerDom   int // 4
	StubsPerTransit int // 3
	NodesPerStub    int // 8
	ExtraStubEdges  int // intra-stub edges beyond the spanning tree
}

// DefaultTransitStub returns the paper's parameters for the given number of
// domains (each domain contributes 100 nodes). ExtraStubEdges is tuned so a
// 200-node network has about 315 stub-to-stub links as reported in §7.2.
func DefaultTransitStub(domains int) TransitStubParams {
	return TransitStubParams{
		Domains:         domains,
		TransitPerDom:   4,
		StubsPerTransit: 3,
		NodesPerStub:    8,
		ExtraStubEdges:  6,
	}
}

// TransitStubN generates the paper's transit-stub topology for about n
// nodes: one domain per 100 nodes, at least one. Domains are whole, so the
// result's N is a multiple of 100 and may differ from n.
func TransitStubN(n int, rng *rand.Rand) *Topology {
	return TransitStub(DefaultTransitStub(max(n/100, 1)), rng)
}

// TransitStub generates a deterministic transit-stub topology from the
// given parameters and random source.
func TransitStub(p TransitStubParams, rng *rand.Rand) *Topology {
	t := &Topology{}
	next := types.NodeID(0)
	alloc := func() types.NodeID { id := next; next++; return id }

	seen := make(linkSet)
	addLink := func(u, v types.NodeID, class LinkClass) {
		if u == v {
			return
		}
		t.Links = append(t.Links, Link{U: u, V: v, Class: class, Cost: 1})
		seen.add(u, v)
		if class == ClassStub {
			t.StubStubLinks = append(t.StubStubLinks, len(t.Links)-1)
		}
	}

	var prevDomain []types.NodeID
	var firstDomain []types.NodeID
	for d := 0; d < p.Domains; d++ {
		// Transit nodes of this domain form a ring with one chord,
		// approximating GT-ITM's random transit graphs.
		transit := make([]types.NodeID, p.TransitPerDom)
		for i := range transit {
			transit[i] = alloc()
		}
		for i := range transit {
			addLink(transit[i], transit[(i+1)%len(transit)], ClassTransit)
		}
		if len(transit) >= 4 {
			addLink(transit[0], transit[2], ClassTransit)
		}
		// Inter-domain: connect each domain to the previous one (and close
		// the ring of domains at the end).
		if prevDomain != nil {
			addLink(prevDomain[rng.Intn(len(prevDomain))], transit[rng.Intn(len(transit))], ClassTransit)
		} else {
			firstDomain = transit
		}
		if d == p.Domains-1 && p.Domains > 2 {
			addLink(transit[rng.Intn(len(transit))], firstDomain[rng.Intn(len(firstDomain))], ClassTransit)
		}
		prevDomain = transit

		// Stubs: each transit node serves StubsPerTransit stubs of
		// NodesPerStub nodes. Stub-internal structure is a random spanning
		// tree plus ExtraStubEdges random extra edges; the stub's first
		// node is the gateway to its transit node.
		for _, tr := range transit {
			for s := 0; s < p.StubsPerTransit; s++ {
				stub := make([]types.NodeID, p.NodesPerStub)
				for i := range stub {
					stub[i] = alloc()
				}
				addLink(tr, stub[0], ClassTransitAccess)
				for i := 1; i < len(stub); i++ {
					addLink(stub[i], stub[rng.Intn(i)], ClassStub)
				}
				for e := 0; e < p.ExtraStubEdges; e++ {
					for attempt := 0; attempt < 10; attempt++ {
						u := stub[rng.Intn(len(stub))]
						v := stub[rng.Intn(len(stub))]
						if u != v && !seen.has(u, v) {
							addLink(u, v, ClassStub)
							break
						}
					}
				}
			}
		}
	}
	t.N = int(next)
	return t
}

// linkSet is an O(1) membership index over normalized node pairs, so the
// generators stay linear at 10k-node scale (the previous linear scan over
// t.Links made extra-edge placement quadratic).
type linkSet map[[2]types.NodeID]struct{}

func normPair(u, v types.NodeID) [2]types.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]types.NodeID{u, v}
}

func (s linkSet) add(u, v types.NodeID) { s[normPair(u, v)] = struct{}{} }

func (s linkSet) has(u, v types.NodeID) bool {
	_, ok := s[normPair(u, v)]
	return ok
}

// Ring generates the testbed overlay of §7.4: nodes arranged in a ring,
// with each node additionally linked to one random peer subject to a
// maximum degree of three.
func Ring(n int, rng *rand.Rand) *Topology {
	t := &Topology{N: n}
	deg := make([]int, n)
	seen := make(linkSet)
	add := func(u, v types.NodeID) {
		t.Links = append(t.Links, Link{U: u, V: v, Class: ClassStub, Cost: 1})
		seen.add(u, v)
		deg[u]++
		deg[v]++
	}
	for i := 0; i < n; i++ {
		add(types.NodeID(i), types.NodeID((i+1)%n))
	}
	order := rng.Perm(n)
	for _, i := range order {
		if deg[i] >= 3 {
			continue
		}
		// Pick a random peer with available degree that is not already a
		// neighbor.
		for attempt := 0; attempt < 4*n; attempt++ {
			j := rng.Intn(n)
			if j == i || deg[j] >= 3 {
				continue
			}
			if j == (i+1)%n || j == (i-1+n)%n || seen.has(types.NodeID(i), types.NodeID(j)) {
				continue
			}
			add(types.NodeID(i), types.NodeID(j))
			break
		}
	}
	return t
}

// Figure3 returns the four-node example network of the paper's Fig 3
// (nodes a..d with the listed symmetric link costs).
func Figure3() *Topology {
	a, b, c, d := types.NodeID(0), types.NodeID(1), types.NodeID(2), types.NodeID(3)
	return &Topology{
		N: 4,
		Links: []Link{
			{U: a, V: b, Class: ClassStub, Cost: 3},
			{U: a, V: c, Class: ClassStub, Cost: 5},
			{U: b, V: c, Class: ClassStub, Cost: 2},
			{U: b, V: d, Class: ClassStub, Cost: 5},
			{U: c, V: d, Class: ClassStub, Cost: 3},
		},
	}
}
