package bdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/types"
)

// Serialized form: uvarint count of non-terminal nodes reachable from the
// root, then for each node (in DFS post-order from the root, lo before hi)
// its variable as uvarint Node ‖ uvarint Ord, then lo and hi as uvarints,
// then the root reference. References 0 and 1 are the terminals; reference
// k+2 names the k-th serialized node.
//
// Every function has exactly one serialization, and Decode accepts nothing
// else: a node's children sit at strictly greater variables, its two
// children differ, and the nodes listed are exactly the ones reachable from
// the root, each once, in that order.
//
// This is the byte representation whose length is charged to the simulated
// and deployed wire when BDD provenance is shipped (§6.3, Fig 15).

var errBadBDD = errors.New("bdd: malformed serialization")

// Encode appends the canonical serialization of r to dst.
func (m *Manager) Encode(r Ref, dst []byte) []byte {
	order := m.topo(r)
	index := map[Ref]uint64{False: 0, True: 1}
	for i, n := range order {
		index[n] = uint64(i) + 2
	}
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, n := range order {
		nd := m.nodes[n]
		v := varAt(nd.level)
		dst = binary.AppendUvarint(dst, uint64(v.Node))
		dst = binary.AppendUvarint(dst, uint64(v.Ord))
		dst = binary.AppendUvarint(dst, index[nd.lo])
		dst = binary.AppendUvarint(dst, index[nd.hi])
	}
	dst = binary.AppendUvarint(dst, index[r])
	return dst
}

// topo returns the non-terminal nodes reachable from r in DFS post-order
// (lo before hi): children precede parents, and the order depends only on
// the function r denotes, not on the manager.
func (m *Manager) topo(r Ref) []Ref {
	seen := map[Ref]bool{}
	var order []Ref
	var rec func(Ref)
	rec = func(x Ref) {
		if x == False || x == True || seen[x] {
			return
		}
		seen[x] = true
		rec(m.nodes[x].lo)
		rec(m.nodes[x].hi)
		order = append(order, x)
	}
	rec(r)
	return order
}

// Decode reconstructs a serialized BDD inside manager m and returns its
// root. The serialization is manager-independent, so a BDD built at one
// node can be decoded at another. The input may come straight off a socket:
// the node count is checked against the bytes that remain (a node takes at
// least four) before anything is sized by it, variables must be real ones,
// uvarints must be minimal, and the input must be the canonical
// serialization of its root — otherwise equal functions could decode to
// different handles.
func (m *Manager) Decode(b []byte) (Ref, int, error) {
	count, used, ok := types.ReadUvarint(b)
	if !ok || count > uint64(len(b)-used)/4 {
		return False, 0, errBadBDD
	}
	refs := make([]Ref, count+2)
	refs[0], refs[1] = False, True
	for i := uint64(0); i < count; i++ {
		var f [4]uint64 // node, ord, lo, hi
		for j := range f {
			v, sz, ok := types.ReadUvarint(b[used:])
			if !ok {
				return False, 0, errBadBDD
			}
			f[j] = v
			used += sz
		}
		if f[0] > math.MaxInt32 || f[1] > math.MaxUint32 {
			return False, 0, errBadBDD
		}
		if f[2] >= i+2 || f[3] >= i+2 {
			return False, 0, fmt.Errorf("bdd: forward reference in serialization")
		}
		level := Var{Node: types.NodeID(f[0]), Ord: uint32(f[1])}.level()
		lo, hi := refs[f[2]], refs[f[3]]
		// Safety: the variable order must hold below every node, or mk
		// would build an unordered diagram.
		if m.level(lo) <= level || m.level(hi) <= level {
			return False, 0, errBadBDD
		}
		refs[i+2] = m.mk(level, lo, hi)
	}
	root, sz, ok := types.ReadUvarint(b[used:])
	if !ok || root >= count+2 {
		return False, 0, errBadBDD
	}
	// Safety: the listed nodes must be exactly the root's canonical
	// traversal. This one comparison rejects a redundant node (mk returned
	// its child), a duplicate (mk returned an earlier node), an unreachable
	// node and a misordered list.
	order := m.topo(refs[root])
	if uint64(len(order)) != count {
		return False, 0, errBadBDD
	}
	for i, r := range order {
		if refs[i+2] != r {
			return False, 0, errBadBDD
		}
	}
	return refs[root], used + sz, nil
}
