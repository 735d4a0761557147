// This file implements one partition of a node's provenance store — the row
// types, the row maps and their arenas — and its write surface, the row
// mutators the engine's worker shards call. The Store (store.go) owns one
// Partition per worker shard, so concurrent shards mutate disjoint map sets,
// and implements every read over them.
//
// Rows are keyed by what they are: a tuple vertex by its VID, a rule
// execution by its RID — the 20-byte digests of §4.1, with no handle layer
// between a digest and its row. Both maps hold pointers to arena-carved
// rows, so a growing map rehashes 8-byte slots and a count changes in place.
// A Vertex carries everything the store knows about one VID (its tuple and
// its prov rows); the engine keeps the *Vertex on its relation entry, so the
// delta path finds it once per entry lifetime and then adds and removes prov
// rows with no map probe at all. Prov rows are stored by value inside their
// vertex's slice: the store sits on the engine's delta hot path, and per-row
// pointer boxes more than doubled the evaluator's allocation count in
// fixpoint profiles.
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

// Vertex is one tuple vertex of the provenance graph as its home partition
// stores it: the VID, the tuple it names (the paper's "systems table that
// maps VIDs to tuples") and the VID's prov rows. A writer obtains one from
// Partition.Vertex and may hold it until DelProv reports it dropped.
type Vertex struct {
	vid   types.ID
	tuple types.Tuple
	prov  []ProvEntry
}

// parentKey identifies one reverse dataflow edge for O(1) add/remove. The
// RID alone determines the derived head (an RID hashes the rule, its
// location and its exact inputs), so (vid, rid) is unique per edge. Hub
// tuples (e.g. a link consumed by every route derivation) accumulate long
// parent lists, and the linear scans previously done by AddParent dominated
// fixpoint profiles.
type parentKey struct {
	vid types.ID
	rid types.ID
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

	verts     map[types.ID]*Vertex
	ruleExec  map[types.ID]*RuleExecEntry
	parents   map[types.ID][]Parent
	parentIdx map[parentKey]int // position inside parents[vid]

	// Arenas for the rows the maps point at, for the first element of
	// per-VID row slices and for ruleExec input lists. Most VIDs have
	// exactly one prov row and one parent edge, so the per-VID "first
	// append" allocations dominated the store's profile; carving
	// capacity-1 slices from a chunk amortizes them to ~1/chunk. Longer
	// lists spill to regular append growth.
	vertArena     types.Arena[Vertex]
	ruleExecArena types.Arena[RuleExecEntry]
	provArena     types.Arena[ProvEntry]
	parentArena   types.Arena[Parent]
	vidArena      types.Arena[types.ID]

	// pending buffers change notifications while the owning Store defers
	// them (parallel engine phases); FlushDeferred replays and clears it.
	pending []types.ID
}

// storeArenaChunk caps the chunk size of a partition's arenas.
const storeArenaChunk = 256

// newPartition builds an empty partition. The row maps are created by their
// first write: most partitions of a large cluster hold rows in one or two of
// the four, and reads, deletes and len treat a nil map as empty.
func newPartition(owner *Store) *Partition {
	return &Partition{
		owner:         owner,
		vertArena:     types.NewArena[Vertex](storeArenaChunk),
		ruleExecArena: types.NewArena[RuleExecEntry](storeArenaChunk),
		provArena:     types.NewArena[ProvEntry](storeArenaChunk),
		parentArena:   types.NewArena[Parent](storeArenaChunk),
		vidArena:      types.NewArena[types.ID](storeArenaChunk),
	}
}

// Vertex returns the partition's vertex of vid, creating it — with t as the
// tuple the VID resolves to — on first sight.
//
//exspan:hotpath
func (s *Partition) Vertex(vid types.ID, t types.Tuple) *Vertex {
	if v := s.verts[vid]; v != nil {
		return v
	}
	if s.verts == nil {
		//exspanlint:alloc-ok first vertex of this partition
		s.verts = make(map[types.ID]*Vertex)
	}
	v := s.vertArena.New()
	v.vid, v.tuple, v.prov = vid, t, s.provArena.Cap1()
	s.verts[vid] = v
	return v
}

// Lookup returns the partition's vertex of vid, or nil. Writers without a
// relation entry to keep the vertex on (event tuples) delete through it.
//
//exspan:hotpath
func (s *Partition) Lookup(vid types.ID) *Vertex { return s.verts[vid] }

// AddProv inserts (or increments) a prov row of v.
//
//exspan:hotpath
func (s *Partition) AddProv(v *Vertex, rid types.ID, rloc types.NodeID) {
	for i := range v.prov {
		if v.prov[i].RID == rid && v.prov[i].RLoc == rloc {
			v.prov[i].Count++
			s.changed(v.vid)
			return
		}
	}
	v.prov = append(v.prov, ProvEntry{VID: v.vid, RID: rid, RLoc: rloc, Count: 1})
	s.changed(v.vid)
}

// DelProv decrements (and possibly removes) a prov row of v. found reports
// whether the row existed; dropped that it was the vertex's last, in which
// case the partition has forgotten the vertex and the caller must too.
//
//exspan:hotpath
func (s *Partition) DelProv(v *Vertex, rid types.ID, rloc types.NodeID) (found, dropped bool) {
	for i := range v.prov {
		if v.prov[i].RID != rid || v.prov[i].RLoc != rloc {
			continue
		}
		v.prov[i].Count--
		if v.prov[i].Count <= 0 {
			v.prov = append(v.prov[:i], v.prov[i+1:]...)
			if len(v.prov) == 0 {
				delete(s.verts, v.vid)
				dropped = true
			}
		}
		s.changed(v.vid)
		return true, dropped
	}
	return false, false
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

// AddRuleExec inserts (or increments) the ruleExec row of rid. vidList may
// be caller scratch; it is copied when a new row is created.
//
//exspan:hotpath
func (s *Partition) AddRuleExec(rid types.ID, rule string, vidList []types.ID) {
	if e := s.ruleExec[rid]; e != nil {
		e.Count++
		return
	}
	if s.ruleExec == nil {
		//exspanlint:alloc-ok first ruleExec row of this partition
		s.ruleExec = make(map[types.ID]*RuleExecEntry)
	}
	e := s.ruleExecArena.New()
	e.RID, e.Rule, e.VIDList, e.Count = rid, rule, s.vidArena.Copy(vidList), 1
	s.ruleExec[rid] = e
}

// DelRuleExec decrements (and possibly removes) a ruleExec row; it reports
// whether the row existed.
//
//exspan:hotpath
func (s *Partition) DelRuleExec(rid types.ID) bool {
	e := s.ruleExec[rid]
	if e == nil {
		return false
	}
	e.Count--
	if e.Count <= 0 {
		delete(s.ruleExec, rid)
	}
	return true
}
