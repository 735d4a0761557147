// This file implements one partition of a node's provenance store — the row
// types, the row maps and their arenas — and its write surface, the handle-
// keyed row mutators the engine's worker shards call. The Store (store.go)
// owns one Partition per worker shard, so concurrent shards mutate disjoint
// map sets, and implements every read over them.
//
// Rows are stored by value inside their per-VID slices: the store sits on
// the engine's delta hot path, and per-row pointer boxes more than doubled
// the evaluator's allocation count in fixpoint profiles.
//
// Maps are keyed by interned ID handles (types.IDHandle), not by the
// 20-byte digests themselves: map operations hash and compare 4 bytes, and
// the (vid, rid) reverse-edge index keys 8 bytes instead of 40. The engine
// caches handles on its relation entries, so the row mutators take handles
// (the *H methods) and nothing else; the Store's read methods take IDs and
// look them up without interning, so probing an unknown VID cannot grow the
// intern table. Row values keep full IDs — handles are process-local and
// never travel in query replies or on the wire.
package provenance

import "repro/internal/types"

// ProvEntry is one row of the prov relation: a direct derivation of the
// tuple identified by VID via the rule execution RID at RLoc. Base tuples
// carry the null RID. Count tracks duplicate derivations under incremental
// maintenance; an entry is visible while Count > 0.
type ProvEntry struct {
	VID   types.ID
	RID   types.ID
	RLoc  types.NodeID
	Count int
}

// RuleExecEntry is one row of the ruleExec relation: the metadata of a rule
// execution instance.
type RuleExecEntry struct {
	RID     types.ID
	Rule    string
	VIDList []types.ID
	Count   int
}

// Parent is a reverse dataflow edge: the local tuple was consumed by rule
// execution RID (local, since rule bodies are localized), deriving the head
// tuple HeadVID stored at HeadLoc.
type Parent struct {
	RID     types.ID
	HeadVID types.ID
	HeadLoc types.NodeID
	Count   int
}

// parentKey identifies one reverse dataflow edge for O(1) add/remove. The
// RID alone determines the derived head (an RID hashes the rule, its
// location and its exact inputs), so (vid, rid) is unique per edge. Hub
// tuples (e.g. a link consumed by every route derivation) accumulate long
// parent lists, and the linear scans previously done by AddParent dominated
// fixpoint profiles. Interned handles shrink the key from 40 bytes to 8.
type parentKey struct {
	vidh types.IDHandle
	ridh types.IDHandle
}

// Partition is one horizontal slice of a node's provenance store. Under the
// sharded engine runtime each worker shard owns one partition and is the only
// writer to it during parallel phases; all reads go through the Store.
//
// Reverse dataflow edges (parents) are installed lazily by the query
// processor when it caches a traversal level — §6.1 invalidation is their
// only consumer, so their maintenance cost is paid per cached query, never
// per derivation on the engine's hot path.
type Partition struct {
	owner *Store // change notifications route through it

	prov      map[types.IDHandle][]ProvEntry
	ruleExec  map[types.IDHandle]RuleExecEntry
	tuples    map[types.IDHandle]types.Tuple
	parents   map[types.IDHandle][]Parent
	parentIdx map[parentKey]int // position inside parents[vidh]

	// Arenas for the first element of per-VID row slices and for ruleExec
	// input lists. Most VIDs have exactly one prov row and one parent edge,
	// so the per-VID "first append" allocations dominated the store's
	// profile; carving capacity-1 slices from a chunk amortizes them to
	// ~1/chunk. Longer lists spill to regular append growth.
	provArena   types.Arena[ProvEntry]
	parentArena types.Arena[Parent]
	vidArena    types.Arena[types.ID]

	// pending buffers change notifications while the owning Store defers
	// them (parallel engine phases); FlushDeferred replays and clears it.
	pending []types.ID
}

// storeArenaChunk caps the chunk size of a partition's arenas.
const storeArenaChunk = 256

// newPartition builds an empty partition. The row maps are created by their
// first write: most partitions of a large cluster hold rows in one or two of
// the five, and reads, deletes and len treat a nil map as empty.
func newPartition(owner *Store) *Partition {
	return &Partition{
		owner:       owner,
		provArena:   types.NewArena[ProvEntry](storeArenaChunk),
		parentArena: types.NewArena[Parent](storeArenaChunk),
		vidArena:    types.NewArena[types.ID](storeArenaChunk),
	}
}

// RegisterTupleVIDH records the VID→tuple mapping for a local tuple, keyed by
// the VID's interned handle (the engine caches one per relation entry).
func (s *Partition) RegisterTupleVIDH(vidh types.IDHandle, t types.Tuple) {
	if _, ok := s.tuples[vidh]; !ok {
		if s.tuples == nil {
			s.tuples = make(map[types.IDHandle]types.Tuple)
		}
		s.tuples[vidh] = t
	}
}

// AddProvH inserts (or increments) a prov entry of the VID behind vidh.
func (s *Partition) AddProvH(vidh types.IDHandle, rid types.ID, rloc types.NodeID) {
	entries := s.prov[vidh]
	for i := range entries {
		if entries[i].RID == rid && entries[i].RLoc == rloc {
			entries[i].Count++
			s.changed(entries[i].VID)
			return
		}
	}
	if entries == nil {
		entries = s.provArena.Cap1()
		if s.prov == nil {
			s.prov = make(map[types.IDHandle][]ProvEntry)
		}
	}
	vid := vidh.ID()
	s.prov[vidh] = append(entries, ProvEntry{VID: vid, RID: rid, RLoc: rloc, Count: 1})
	s.changed(vid)
}

// DelProvH decrements (and possibly removes) a prov entry; it reports
// whether the entry existed.
func (s *Partition) DelProvH(vidh types.IDHandle, rid types.ID, rloc types.NodeID) bool {
	entries := s.prov[vidh]
	for i := range entries {
		if entries[i].RID == rid && entries[i].RLoc == rloc {
			vid := entries[i].VID
			entries[i].Count--
			if entries[i].Count <= 0 {
				s.prov[vidh] = append(entries[:i], entries[i+1:]...)
				if len(s.prov[vidh]) == 0 {
					delete(s.prov, vidh)
					delete(s.tuples, vidh)
				}
			}
			s.changed(vid)
			return true
		}
	}
	return false
}

// changed routes a derivation-set change notification through the owning
// facade. While the facade is deferring (a parallel engine phase is running),
// the VID is buffered locally — each partition has exactly one writer, so the
// buffers need no locks — and replayed in partition order by FlushDeferred.
func (s *Partition) changed(vid types.ID) {
	st := s.owner
	if st.OnProvChange == nil {
		return
	}
	if st.deferring {
		s.pending = append(s.pending, vid)
		return
	}
	st.OnProvChange(vid)
}

// AddRuleExecH inserts (or increments) the ruleExec entry of the RID behind
// ridh (the engine's RID cache hands handles out). vidList may be caller
// scratch; it is copied when a new entry is created.
func (s *Partition) AddRuleExecH(ridh types.IDHandle, rid types.ID, rule string, vidList []types.ID) {
	if e, ok := s.ruleExec[ridh]; ok {
		e.Count++
		s.ruleExec[ridh] = e
		return
	}
	if s.ruleExec == nil {
		s.ruleExec = make(map[types.IDHandle]RuleExecEntry)
	}
	s.ruleExec[ridh] = RuleExecEntry{RID: rid, Rule: rule, VIDList: s.vidArena.Copy(vidList), Count: 1}
}

// DelRuleExecH decrements (and possibly removes) a ruleExec entry; it
// reports whether the entry existed.
func (s *Partition) DelRuleExecH(ridh types.IDHandle) bool {
	e, ok := s.ruleExec[ridh]
	if !ok {
		return false
	}
	e.Count--
	if e.Count <= 0 {
		delete(s.ruleExec, ridh)
	} else {
		s.ruleExec[ridh] = e
	}
	return true
}
