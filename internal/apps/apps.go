// Package apps contains the NDlog application programs of the paper's
// evaluation (§7): MINCOST (Fig 1), PATHVECTOR, and PACKETFORWARD (Fig 2),
// plus small helpers for injecting their base tuples.
package apps

import (
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// MinCostSrc is the paper's Figure 1: the best path cost between every
// pair of nodes.
const MinCostSrc = `
sp1 pathCost(@S,D,C) :- link(@S,D,C).
sp2 pathCost(@S,D,C1+C2) :- link(@Z,S,C1), bestPathCost(@Z,D,C2).
sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
`

// PathVectorSrc extends MINCOST to carry the best path itself as a vector
// of nodes (the control-plane PATHVECTOR application of §7). bestPath uses
// an arg-min aggregate carrying the path; bestHop extracts the next hop for
// the data plane.
const PathVectorSrc = `
pv1 path(@S,D,C,P) :- link(@S,D,C), P = f_init(S,D).
pv2 path(@S,D,C,P) :- link(@Z,S,C1), bestPath(@Z,D,C2,P2), f_member(P2,S) == 0,
                      C = C1 + C2, P = f_concat(S,P2).
pv3 bestPath(@S,D,min<C,P>) :- path(@S,D,C,P).
pv4 bestHop(@S,D,H) :- bestPath(@S,D,C,P), H = f_nth(P,1).
`

// PacketForwardSrc is the paper's Figure 2 data-plane program: packets
// relay hop by hop along previously discovered best paths. It composes
// with PATHVECTOR, which supplies bestHop.
const PacketForwardSrc = PathVectorSrc + `
fw1 ePacket(@H,Src,Dst,Pay) :- ePacket(@N,Src,Dst,Pay), bestHop(@N,Dst,H), N != Dst.
fw2 recvPacket(@N,Src,Dst,Pay) :- ePacket(@N,Src,Dst,Pay), N == Dst.
`

// MinCost parses the MINCOST program.
func MinCost() *ndlog.Program { return ndlog.MustParse(MinCostSrc) }

// PathVector parses the PATHVECTOR program.
func PathVector() *ndlog.Program { return ndlog.MustParse(PathVectorSrc) }

// PacketForward parses the PACKETFORWARD program (including PATHVECTOR).
func PacketForward() *ndlog.Program { return ndlog.MustParse(PacketForwardSrc) }

// LinkTuple builds link(@u, v, cost).
func LinkTuple(u, v types.NodeID, cost int64) types.Tuple {
	return types.NewTuple("link", types.Node(u), types.Node(v), types.Int(cost))
}

// BootEDB feeds insert, tuple by tuple with the node that owns it, the EDB a
// cluster boots with, in the one order every driver uses: "each node is
// initialized with a link tuple for each of its neighbors" — per topology
// link in t.Links order, link(@u,v,cost) then link(@v,u,cost), unless
// noLinks (programs without a link predicate, such as CHORD) — then the
// workload's base tuples in node order.
func BootEDB(t *topology.Topology, noLinks bool, base map[types.NodeID][]types.Tuple, insert func(at types.NodeID, tup types.Tuple)) {
	if !noLinks {
		for _, l := range t.Links {
			insert(l.U, LinkTuple(l.U, l.V, l.Cost))
			insert(l.V, LinkTuple(l.V, l.U, l.Cost))
		}
	}
	for i := 0; i < t.N; i++ {
		for _, tup := range base[types.NodeID(i)] {
			insert(types.NodeID(i), tup)
		}
	}
}

// PacketTuple builds ePacket(@at, src, dst, payload) with a synthetic
// payload of payloadBytes bytes (the experiments use 1024).
func PacketTuple(at, src, dst types.NodeID, payloadBytes int) types.Tuple {
	pay := make([]byte, payloadBytes)
	for i := range pay {
		pay[i] = 'x'
	}
	return types.NewTuple("ePacket", types.Node(at), types.Node(src), types.Node(dst), types.Str(string(pay)))
}

// BestPathCostTuple builds bestPathCost(@s, d, c) for lookups.
func BestPathCostTuple(s, d types.NodeID, c int64) types.Tuple {
	return types.NewTuple("bestPathCost", types.Node(s), types.Node(d), types.Int(c))
}
