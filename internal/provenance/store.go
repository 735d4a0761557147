// Package provenance implements the paper's distributed provenance data
// model (§4.1): an acyclic graph of tuple vertices and rule-execution
// vertices stored in two horizontally partitioned relations,
//
//	prov(@Loc, VID, RID, RLoc)      — tuple VID at Loc is derivable from
//	                                  rule execution RID residing at RLoc
//	ruleExec(@RLoc, RID, R, VIDList) — rule R executed at RLoc over the
//	                                  input tuples in VIDList
//
// Each node holds the partition of prov for its local tuples and the
// partition of ruleExec for rules executed locally: one Store per node. The
// store additionally keeps the VID→tuple mapping (the paper's "systems table
// that maps VIDs to tuples") and reverse dataflow edges used by cache
// invalidation (§6.1).
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
//
// The Store has one method set per role. The writer — the node's engine,
// its only one — uses Vertex / Lookup / AddProv / DelProv / AddRuleExec /
// DelRuleExec, holding the *Vertex of each stored tuple it maintains.
// Readers — the query processor, the CLI, experiments and the benchmark —
// use everything else, keyed by the IDs that travel in query messages. The
// only rows a reader writes are the reverse dataflow edges of its own cache
// (AddParent / DropParents). A store is not safe for concurrent use; every
// driver runs a node's engine and query processor on one goroutine.
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

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

// Vertex is one tuple vertex of the provenance graph as the store holds it:
// the VID, the tuple it names (the paper's "systems table that maps VIDs to
// tuples") and the VID's prov rows. A writer obtains one from Store.Vertex
// and may hold it until DelProv reports it dropped.
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

// Store is one node's partition of the provenance graph.
//
// Reverse dataflow edges (parents) are installed lazily by the query
// processor when it caches a traversal level — §6.1 invalidation is their
// only consumer, so their maintenance cost is paid per cached query, never
// per derivation on the engine's hot path.
type Store struct {
	Node types.NodeID

	// OnProvChange, when set, fires after the derivation set of a local
	// VID changes (entry added or removed). The query cache uses it for
	// invalidation.
	OnProvChange func(vid types.ID)

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
}

// storeArenaChunk caps the chunk size of a store's arenas.
const storeArenaChunk = 256

// NewStore builds a node's empty store. The row maps are created by their
// first write: most stores of a large cluster hold rows in one or two of the
// four, and reads, deletes and len treat a nil map as empty.
func NewStore(node types.NodeID) *Store {
	return &Store{
		Node:          node,
		vertArena:     types.NewArena[Vertex](storeArenaChunk),
		ruleExecArena: types.NewArena[RuleExecEntry](storeArenaChunk),
		provArena:     types.NewArena[ProvEntry](storeArenaChunk),
		parentArena:   types.NewArena[Parent](storeArenaChunk),
		vidArena:      types.NewArena[types.ID](storeArenaChunk),
	}
}

// Vertex returns the store's vertex of vid, creating it — with t as the
// tuple the VID resolves to — on first sight.
//
//exspan:hotpath
func (s *Store) Vertex(vid types.ID, t types.Tuple) *Vertex {
	if v := s.verts[vid]; v != nil {
		return v
	}
	if s.verts == nil {
		//exspanlint:alloc-ok first vertex of this store
		s.verts = make(map[types.ID]*Vertex)
	}
	v := s.vertArena.New()
	v.vid, v.tuple, v.prov = vid, t, s.provArena.Cap1()
	s.verts[vid] = v
	return v
}

// Lookup returns the store's vertex of vid, or nil. Writers without a
// relation entry to keep the vertex on (event tuples) delete through it.
//
//exspan:hotpath
func (s *Store) Lookup(vid types.ID) *Vertex { return s.verts[vid] }

// AddProv inserts (or increments) a prov row of v.
//
//exspan:hotpath
func (s *Store) AddProv(v *Vertex, rid types.ID, rloc types.NodeID) {
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
// case the store has forgotten the vertex and the caller must too.
//
//exspan:hotpath
func (s *Store) DelProv(v *Vertex, rid types.ID, rloc types.NodeID) (found, dropped bool) {
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

// changed delivers a derivation-set change notification.
func (s *Store) changed(vid types.ID) {
	if s.OnProvChange != nil {
		s.OnProvChange(vid)
	}
}

// AddRuleExec inserts (or increments) the ruleExec row of rid. vidList may
// be caller scratch; it is copied when a new row is created.
//
//exspan:hotpath
func (s *Store) AddRuleExec(rid types.ID, rule string, vidList []types.ID) {
	if e := s.ruleExec[rid]; e != nil {
		e.Count++
		return
	}
	if s.ruleExec == nil {
		//exspanlint:alloc-ok first ruleExec row of this store
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
func (s *Store) DelRuleExec(rid types.ID) bool {
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

// TupleOf resolves a local VID to its tuple.
func (s *Store) TupleOf(vid types.ID) (types.Tuple, bool) {
	if v := s.verts[vid]; v != nil {
		return v.tuple, true
	}
	return types.Tuple{}, false
}

// Derivations returns the visible prov entries for a VID. Callers must not
// mutate the returned slice.
func (s *Store) Derivations(vid types.ID) []ProvEntry {
	if v := s.verts[vid]; v != nil {
		return v.prov
	}
	return nil
}

// RuleExecOf resolves a local RID.
func (s *Store) RuleExecOf(rid types.ID) (RuleExecEntry, bool) {
	if e := s.ruleExec[rid]; e != nil {
		return *e, true
	}
	return RuleExecEntry{}, false
}

// ForEachProv invokes fn for every visible prov entry with the VID it
// derives (iteration order is unspecified).
func (s *Store) ForEachProv(fn func(vid types.ID, d ProvEntry)) {
	for vid, v := range s.verts {
		for _, d := range v.prov {
			fn(vid, d)
		}
	}
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified).
func (s *Store) ForEachRuleExec(fn func(RuleExecEntry)) {
	for _, e := range s.ruleExec {
		fn(*e)
	}
}

// AddParent records that local tuple vid was consumed by rule execution rid
// deriving headVID at headLoc — a write path driven by the query processor's
// cache installation.
func (s *Store) AddParent(vid, rid, headVID types.ID, headLoc types.NodeID) {
	k := parentKey{vid: vid, rid: rid}
	list := s.parents[vid]
	if pos, ok := s.parentIdx[k]; ok {
		list[pos].Count++
		return
	}
	if list == nil {
		list = s.parentArena.Cap1()
		if s.parents == nil {
			s.parents = make(map[types.ID][]Parent)
			s.parentIdx = make(map[parentKey]int)
		}
	}
	s.parentIdx[k] = len(list)
	s.parents[vid] = append(list, Parent{RID: rid, HeadVID: headVID, HeadLoc: headLoc, Count: 1})
}

// Parents returns the reverse dataflow edges of a local VID. Callers must
// not mutate the returned slice.
func (s *Store) Parents(vid types.ID) []Parent { return s.parents[vid] }

// DropParents removes every reverse edge of a VID (an invalidation wave
// consumed them). A slice previously returned by Parents stays readable.
func (s *Store) DropParents(vid types.ID) {
	for _, e := range s.parents[vid] {
		delete(s.parentIdx, parentKey{vid: vid, rid: e.RID})
	}
	delete(s.parents, vid)
}

// NumProv reports the number of visible prov entries.
func (s *Store) NumProv() int {
	n := 0
	for _, v := range s.verts {
		n += len(v.prov)
	}
	return n
}

// NumRuleExec reports the number of visible ruleExec entries.
func (s *Store) NumRuleExec() int { return len(s.ruleExec) }

// NumParents reports the number of reverse dataflow edges.
func (s *Store) NumParents() int { return len(s.parentIdx) }

// ProvRows renders the store's prov relation as sorted printable rows
// (Loc, tuple, RID short, RLoc) — the format of the paper's Table 1.
func (s *Store) ProvRows() []string {
	var rows []string
	for _, v := range s.verts {
		label := v.tuple.String()
		if v.tuple.Pred == "" {
			label = v.vid.Short()
		}
		for _, d := range v.prov {
			rid := "null"
			if !d.RID.IsZero() {
				rid = d.RID.Short()
			}
			rows = append(rows, fmt.Sprintf("%s | %s | %s | %s", s.Node, label, rid, d.RLoc))
		}
	}
	sort.Strings(rows)
	return rows
}

// RuleExecRows renders the store's ruleExec relation as sorted rows (RLoc,
// RID short, rule, VIDList shorts) — the format of Table 2.
func (s *Store) RuleExecRows() []string {
	var rows []string
	s.ForEachRuleExec(func(e RuleExecEntry) {
		vids := make([]string, len(e.VIDList))
		for i, v := range e.VIDList {
			vids[i] = v.Short()
			if t, ok := s.TupleOf(v); ok {
				vids[i] = t.String()
			}
		}
		rows = append(rows, fmt.Sprintf("%s | %s | %s | (%s)", s.Node, e.RID.Short(), e.Rule, strings.Join(vids, ",")))
	})
	sort.Strings(rows)
	return rows
}
