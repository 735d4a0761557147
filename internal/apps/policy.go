package apps

import (
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// PolicySrc is a policy-constrained path-vector program (BGP-like): route
// propagation is gated by per-adjacency policy atoms, so the best route is
// the cheapest *permitted* route, not the cheapest physical path.
//
// policy(@X,Y,W) means node X permits routing through its adjacency to
// neighbor Y, at an additive penalty W (a local-preference knob); a
// missing policy atom forbids the adjacency outright, the way a BGP export
// filter silently drops an announcement. pp1 admits the one-hop route
// where S permits its own link; pp2 extends Z's best route to Z's
// neighbor S only when Z's export policy for S exists, with f_member
// providing path-vector loop avoidance. pp3/pp4 are the MIN and AGGLIST
// aggregations: the selected route plus the full sorted candidate set
// (the "Adj-RIB" the forensics walkthrough interrogates); pp5 extracts
// the forwarding next hop.
//
// pp2's 3-atom body (link ⋈ policy ⋈ bestRoute) has a join-order choice:
// policy is sparse where link is dense.
const PolicySrc = `
pp1 route(@S,D,C,P) :- link(@S,D,C0), policy(@S,D,W), C = C0 + W, P = f_init(S,D).
pp2 route(@S,D,C,P) :- link(@Z,S,C1), policy(@Z,S,W), bestRoute(@Z,D,C2,P2),
                       f_member(P2,S) == 0, C = C1 + W + C2, P = f_concat(S,P2).
pp3 bestRoute(@S,D,min<C,P>) :- route(@S,D,C,P).
pp4 routeSet(@S,D,agglist<C,P>) :- route(@S,D,C,P).
pp5 nextHop(@S,D,H) :- bestRoute(@S,D,C,P), H = f_nth(P,1).
`

// Policy parses the policy path-vector program.
func Policy() *ndlog.Program { return ndlog.MustParse(PolicySrc) }

// PolicyTuple builds policy(@x, y, w).
func PolicyTuple(x, y types.NodeID, w int64) types.Tuple {
	return types.NewTuple("policy", types.Node(x), types.Node(y), types.Int(w))
}

// ExportPolicy is the deterministic policy function of the workload: does
// node x permit its adjacency toward neighbor y, and at what additive
// penalty? Roughly one in seven directed adjacencies is filtered (the
// modulus mixes both endpoints so filtering is asymmetric, like real
// export policies), and permitted ones carry a small penalty derived from
// the pair — enough to make the cheapest permitted route differ from the
// cheapest physical path.
func ExportPolicy(x, y types.NodeID) (w int64, ok bool) {
	h := 3*int64(x) + 5*int64(y)
	if h%7 == 0 {
		return 0, false
	}
	return h % 3, true
}

// PolicyTuples returns the policy atoms of a topology under ExportPolicy,
// grouped by owning node: one atom per permitted directed adjacency.
func PolicyTuples(t *topology.Topology) map[types.NodeID][]types.Tuple {
	out := make(map[types.NodeID][]types.Tuple)
	add := func(x, y types.NodeID) {
		if w, ok := ExportPolicy(x, y); ok {
			out[x] = append(out[x], PolicyTuple(x, y, w))
		}
	}
	for _, l := range t.Links {
		add(l.U, l.V)
		add(l.V, l.U)
	}
	return out
}
