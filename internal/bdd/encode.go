package bdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/types"
)

// Serialized form: uvarint count of non-terminal nodes reachable from the
// root, then for each node (in a deterministic bottom-up order) its level,
// lo and hi as uvarints, then the root reference. References 0 and 1 are the
// terminals; reference k+2 names the k-th serialized node.
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
		dst = binary.AppendUvarint(dst, uint64(nd.level))
		dst = binary.AppendUvarint(dst, index[nd.lo])
		dst = binary.AppendUvarint(dst, index[nd.hi])
	}
	dst = binary.AppendUvarint(dst, index[r])
	return dst
}

// topo returns the non-terminal nodes reachable from r ordered so that
// children precede parents, with ties broken by (level, lo, hi) for
// determinism.
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
	// The DFS order already places children first; make it fully
	// deterministic across managers by stable-sorting on depth ranks.
	rank := make(map[Ref]int, len(order))
	for i, n := range order {
		rank[n] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return rank[order[i]] < rank[order[j]] })
	return order
}

// Decode reconstructs a serialized BDD inside manager m and returns its
// root. The serialization is manager-independent, so a BDD built at one
// node can be decoded at another. The input may come straight off a socket:
// the node count is checked against the bytes that remain (a node takes at
// least three) before anything is sized by it, levels must be real variable
// levels, and uvarints must be minimal.
func (m *Manager) Decode(b []byte) (Ref, int, error) {
	count, used, ok := types.ReadUvarint(b)
	if !ok || count > uint64(len(b)-used)/3 {
		return False, 0, errBadBDD
	}
	refs := make([]Ref, count+2)
	refs[0], refs[1] = False, True
	for i := uint64(0); i < count; i++ {
		var f [3]uint64 // level, lo, hi
		for j := range f {
			v, sz, ok := types.ReadUvarint(b[used:])
			if !ok {
				return False, 0, errBadBDD
			}
			f[j] = v
			used += sz
		}
		if f[0] >= uint64(terminalLevel) {
			return False, 0, errBadBDD
		}
		if f[1] >= i+2 || f[2] >= i+2 {
			return False, 0, fmt.Errorf("bdd: forward reference in serialization")
		}
		refs[i+2] = m.mk(int32(f[0]), refs[f[1]], refs[f[2]])
	}
	root, sz, ok := types.ReadUvarint(b[used:])
	if !ok || root >= count+2 {
		return False, 0, errBadBDD
	}
	return refs[root], used + sz, nil
}
