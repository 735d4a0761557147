package apps

import (
	"math/rand"

	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// ChordSpace is the identifier-ring size of the CHORD workload (2^20).
const ChordSpace = 1 << 20

// chordMult is an odd multiplier, so n -> n*chordMult mod ChordSpace is a
// bijection on [0, ChordSpace): node identifiers never collide.
const chordMult = 2654435761

// ChordID maps a node to its ring identifier. Deterministic, injective for
// any network smaller than ChordSpace, and scrambled enough that ring
// neighborhoods don't follow node numbering.
func ChordID(n types.NodeID) int64 {
	return (int64(n) * chordMult) % ChordSpace
}

// ChordSrc is a Chord-style DHT routing program from the declarative
// networking lineage the paper builds on (P2's 47-rule Chord is the famous
// ancestor; this is the routing core at NDlog scale).
//
// Base state per node N: ident(@N,IdN) is N's ring identifier, and
// peer/alive name the overlay neighbors N may route through — alive is the
// soft-state liveness tuple (see core.SoftState), so peers come and go by
// timer expiry, not only by explicit retraction.
//
// Derived state: every node elects the alive peer closest clockwise on the
// ring as its successor (c1-c3, arg-min over f_ringdist), notifies that
// successor of itself (c4 — a remote-head rule; its notify head
// deliberately does NOT feed back into the peer table, keeping every
// tuple's derivation graph acyclic so provenance traversals terminate),
// and maintains a predecessor election plus one "finger": its predecessor
// learns N's successor (c5-c7), giving each node a two-hop routing entry
// that is incrementally maintained under churn.
//
// Lookups are base tuples lookup(@N,K,R): "node R asked N to resolve key
// K". Rule l1 forwards a lookup one successor hop at a time while the key
// is outside (IdN, IdSucc]; l2 materializes the answer at the resolving
// node. Every forwarding hop strictly decreases the clockwise distance
// from the current node's identifier to the key, so recursion terminates,
// and the provenance of a lookupRes row is exactly the forwarding path —
// the DHT forensics scenario of examples/.
//
// c1, c5, l1 and l2 have >= 3-atom bodies: their join order is a choice,
// made once at compile time.
const ChordSrc = `
c1 cand(@N,M,IdM,D) :- peer(@N,M,IdM), alive(@N,M), ident(@N,IdN), M != N,
                       D = f_ringdist(IdN,IdM,1048576).
c2 bestSucc(@N,min<D,S,IdS>) :- cand(@N,S,IdS,D).
c3 succ(@N,S,IdS) :- bestSucc(@N,D,S,IdS).
c4 notify(@S,N,IdN) :- succ(@N,S,IdS), ident(@N,IdN).
c5 candPred(@N,M,IdM,D) :- peer(@N,M,IdM), alive(@N,M), ident(@N,IdN), M != N,
                           D = f_ringdist(IdM,IdN,1048576).
c6 pred(@N,min<D,P,IdP>) :- candPred(@N,P,IdP,D).
c7 finger(@P,S,IdS) :- succ(@N,S,IdS), pred(@N,D,P,IdP).
l1 lookup(@S,K,R) :- lookup(@N,K,R), ident(@N,IdN), succ(@N,S,IdS),
                     f_between(K,IdN,IdS) == 0.
l2 lookupRes(@N,K,R,S,IdS) :- lookup(@N,K,R), ident(@N,IdN), succ(@N,S,IdS),
                              f_between(K,IdN,IdS) == 1.
`

// Chord parses the CHORD program.
func Chord() *ndlog.Program { return ndlog.MustParse(ChordSrc) }

// IdentTuple builds ident(@n, ChordID(n)).
func IdentTuple(n types.NodeID) types.Tuple {
	return types.NewTuple("ident", types.Node(n), types.Int(ChordID(n)))
}

// PeerTuple builds peer(@n, m, ChordID(m)).
func PeerTuple(n, m types.NodeID) types.Tuple {
	return types.NewTuple("peer", types.Node(n), types.Node(m), types.Int(ChordID(m)))
}

// AliveTuple builds alive(@n, m) — the soft-state liveness atom for peer m
// at node n.
func AliveTuple(n, m types.NodeID) types.Tuple {
	return types.NewTuple("alive", types.Node(n), types.Node(m))
}

// LookupTuple builds lookup(@at, key, requester).
func LookupTuple(at types.NodeID, key int64, requester types.NodeID) types.Tuple {
	return types.NewTuple("lookup", types.Node(at), types.Int(key), types.Node(requester))
}

// ChordBase seeds the CHORD overlay from a physical topology: every node
// gets its identifier plus peer and alive tuples for each physical
// neighbor. The overlay rides the physical graph, so derived heads (succ
// notifications, forwarded lookups) only ever cross real links.
func ChordBase(t *topology.Topology) map[types.NodeID][]types.Tuple {
	out := make(map[types.NodeID][]types.Tuple, t.N)
	for n := 0; n < t.N; n++ {
		id := types.NodeID(n)
		out[id] = append(out[id], IdentTuple(id))
	}
	for _, l := range t.Links {
		out[l.U] = append(out[l.U], PeerTuple(l.U, l.V), AliveTuple(l.U, l.V))
		out[l.V] = append(out[l.V], PeerTuple(l.V, l.U), AliveTuple(l.V, l.U))
	}
	return out
}

// ChordLookups generates a seeded lookup workload: count lookup base
// tuples at random origin nodes for random keys (the requester is the
// origin). Deterministic in (t.N, count, seed).
func ChordLookups(t *topology.Topology, count int, seed int64) []types.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]types.Tuple, 0, count)
	for i := 0; i < count; i++ {
		origin := types.NodeID(rng.Intn(t.N))
		key := rng.Int63n(ChordSpace)
		out = append(out, LookupTuple(origin, key, origin))
	}
	return out
}
