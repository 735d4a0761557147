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
// between a digest and its row. Both maps are keyed by the digest's first
// eight bytes, so a map slot is 16 bytes and a growing map rehashes 8-byte
// keys. The vertex map points at vertices that live elsewhere (mostly in the
// engine's relation entries); the ruleExec map holds a row's position. The
// row carries the full digest, and a lookup verifies it; a row whose prefix
// slot already holds another digest goes to an exact overflow map, which
// stays nil unless two digests of one store share eight bytes.
//
// The ruleExec relation is held as pointer-free column tables, one per rule
// label and arity: the RID and input VIDs of each row side by side in one
// []types.ID, the counts in an []int32. No row struct, rule string, slice
// header or pointer is kept per rule execution, so the GC scans none of it.
// A delete that empties a row moves its table's last row into its place:
// tables stay dense, and a store that churns rows reuses their memory.
// Readers get a RuleExecEntry built on read, whose VIDList aliases the table
// and, like the slice Derivations returns, is valid until the next store
// write; a reader that keeps it copies it.
//
// A Vertex carries everything the store knows about one VID: its tuple and
// its prov rows. The engine embeds one in each relation entry, so a stored
// tuple is its own vertex: the entry's derivation multiset is the vertex's
// prov rows, and the delta path adds and removes rows with no map probe at
// all. The vertex maps point at registered vertices only — a vertex is
// registered with its first row (AddProv) and forgotten with its last
// (DelProv). Prov rows are stored by value inside their vertex's slice: the
// store sits on the engine's delta hot path, and per-row pointer boxes more
// than doubled the evaluator's allocation count in fixpoint profiles.
//
// The Store has one method set per role. The writer — the node's engine,
// its only one — uses AddProv / DelProv on the vertices it embeds, Vertex /
// Lookup for tuples it keeps no entry for (events), and AddRuleExec /
// DelRuleExec. Readers — the query processor, the CLI, experiments and the
// benchmark — use everything else, keyed by the IDs that travel in query
// messages. The only rows a reader writes are the reverse dataflow edges of
// its own cache (AddParent / DropParents). A store is not safe for
// concurrent use; every driver runs a node's engine and query processor on
// one goroutine.
package provenance

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/types"
)

// ProvEntry is one row of the prov relation: a direct derivation of a tuple
// via the rule execution RID at RLoc. Base tuples carry the null RID. A row
// is keyed by its RID alone (an RID hashes its location, and a node that
// ships no provenance delivers every remote derivation under the null RID,
// which must share one row). Count tracks duplicate derivations under
// incremental maintenance; an entry is visible while Count > 0. Payload is
// an opaque 4-byte handle the writer may keep per derivation (the engine's
// value-mode BDD); the store never reads it. The tuple's VID is the key the
// row is found by (Derivations, ForEachProv), so the row does not repeat it.
type ProvEntry struct {
	RID     types.ID
	RLoc    types.NodeID
	Count   int32
	Payload uint32
}

// RuleExecEntry is one row of the ruleExec relation: the metadata of a rule
// execution instance. The store keeps no RuleExecEntry — its rows live in
// column tables — and builds one per read: VIDList aliases the table and is
// valid until the next store write, so a reader that keeps it copies it.
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

// Vertex is one tuple vertex of the provenance graph: the VID, the tuple it
// names (the paper's "systems table that maps VIDs to tuples") and the VID's
// prov rows, in insertion order. A writer embeds one per stored tuple and
// owns its fields; the store reads them while the vertex is registered.
type Vertex struct {
	Tuple types.Tuple
	Rows  []ProvEntry
	VID   types.ID
}

// Row returns the row keyed by rid, or nil. The pointer aliases Rows: it is
// invalidated by the next AddRow or DelRow.
//
//exspan:hotpath
func (v *Vertex) Row(rid types.ID) *ProvEntry {
	for i := range v.Rows {
		if v.Rows[i].RID == rid {
			return &v.Rows[i]
		}
	}
	return nil
}

// AddRow counts one more derivation via rid, appending its row on first
// sight, and returns the row (valid until the next AddRow or DelRow). This
// is the whole of AddProv for a vertex the store does not hold.
//
//exspan:hotpath
func (v *Vertex) AddRow(rid types.ID, rloc types.NodeID) *ProvEntry {
	if r := v.Row(rid); r != nil {
		r.Count++
		return r
	}
	v.Rows = append(v.Rows, ProvEntry{RID: rid, RLoc: rloc, Count: 1})
	return &v.Rows[len(v.Rows)-1]
}

// DelRow counts one derivation via rid less. found reports whether the row
// existed; removed that its count reached zero and it left Rows. Removal
// keeps the order of the remaining rows: readers walk them in that order.
//
//exspan:hotpath
func (v *Vertex) DelRow(rid types.ID) (found, removed bool) {
	for i := range v.Rows {
		if v.Rows[i].RID != rid {
			continue
		}
		if v.Rows[i].Count--; v.Rows[i].Count > 0 {
			return true, false
		}
		v.Rows = append(v.Rows[:i], v.Rows[i+1:]...)
		return true, true
	}
	return false, false
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

	verts     map[uint64]*Vertex
	ruleExec  map[uint64]uint64 // RID prefix → execSlot of its row
	parents   map[types.ID][]Parent
	parentIdx map[parentKey]int // position inside parents[vid]

	// Rows whose prefix slot in verts / ruleExec holds another digest.
	vertSpill     map[types.ID]*Vertex
	ruleExecSpill map[types.ID]uint64

	// The ruleExec rows, one table per (rule label, arity).
	execTables []execTable

	// Arenas for vertices of tuples the writer keeps no entry for, and for
	// the first element of such a vertex's rows and of parent lists. Most
	// VIDs have exactly one prov row and one parent edge, so the per-VID
	// "first append" allocations dominated the store's profile; carving
	// capacity-1 slices from a chunk amortizes them to ~1/chunk. Longer
	// lists spill to regular append growth.
	vertArena   types.Arena[Vertex]
	provArena   types.Arena[ProvEntry]
	parentArena types.Arena[Parent]
}

// execTable holds the ruleExec rows of one rule label and arity as
// pointer-free columns, dense in [0, len(counts)): row i is ids[i*stride] (its
// RID) followed by its stride-1 input VIDs, executed counts[i] times. A
// removed row's place is taken by the last row, so no dead row is kept.
type execTable struct {
	rule   string
	ids    []types.ID
	counts []int32
	stride int
}

// entry builds the reader's view of row i; its VIDList aliases ids.
func (t *execTable) entry(i int) RuleExecEntry {
	at := i * t.stride
	end := at + t.stride
	return RuleExecEntry{RID: t.ids[at], Rule: t.rule, VIDList: t.ids[at+1 : end : end], Count: int(t.counts[i])}
}

// execSlot locates a ruleExec row: its table's index in the high 32 bits, its
// row in the low 32.
func execSlot(table, row int) uint64 { return uint64(table)<<32 | uint64(row) }

// storeArenaChunk caps the chunk size of a store's arenas.
const storeArenaChunk = 256

// prefix is the map key of a digest: its first eight bytes.
func prefix(id types.ID) uint64 { return binary.LittleEndian.Uint64(id[:8]) }

// NewStore builds a node's empty store. The row maps are created by their
// first write: most stores of a large cluster hold rows in one or two of the
// four, and reads, deletes and len treat a nil map as empty.
func NewStore(node types.NodeID) *Store {
	return &Store{
		Node:        node,
		vertArena:   types.NewArena[Vertex](storeArenaChunk),
		provArena:   types.NewArena[ProvEntry](storeArenaChunk),
		parentArena: types.NewArena[Parent](storeArenaChunk),
	}
}

// Vertex returns the registered vertex of vid or, when there is none, a new
// one naming t and holding no rows — for a tuple the writer keeps no vertex
// of its own for. The store registers it with its first AddProv.
//
//exspan:hotpath
func (s *Store) Vertex(vid types.ID, t types.Tuple) *Vertex {
	if v := s.Lookup(vid); v != nil {
		return v
	}
	v := s.vertArena.New()
	v.VID, v.Tuple, v.Rows = vid, t, s.provArena.Cap1()
	return v
}

// Lookup returns the registered vertex of vid, or nil. Writers without a
// vertex of their own for a tuple (events) delete through it.
//
//exspan:hotpath
func (s *Store) Lookup(vid types.ID) *Vertex {
	if v := s.verts[prefix(vid)]; v != nil && v.VID == vid {
		return v
	}
	return s.vertSpill[vid]
}

// AddProv counts one more derivation of v via rid at rloc (Vertex.AddRow)
// and returns its row. Adding v's first row registers v, so from then on
// v.VID resolves to v; v.VID must be set.
//
//exspan:hotpath
func (s *Store) AddProv(v *Vertex, rid types.ID, rloc types.NodeID) *ProvEntry {
	first := len(v.Rows) == 0
	r := v.AddRow(rid, rloc)
	if first {
		if k := prefix(v.VID); s.verts[k] == nil {
			if s.verts == nil {
				//exspanlint:alloc-ok first vertex of this store
				s.verts = make(map[uint64]*Vertex)
			}
			s.verts[k] = v
		} else {
			if s.vertSpill == nil {
				//exspanlint:alloc-ok prefix collision overflow: created by the first two VIDs of this store sharing eight bytes, nil otherwise
				s.vertSpill = make(map[types.ID]*Vertex)
			}
			s.vertSpill[v.VID] = v
		}
	}
	s.changed(v.VID)
	return r
}

// DelProv counts one derivation of v via rid less (Vertex.DelRow). When that
// removes v's last row the store forgets v: the VID resolves to nothing
// until a later AddProv registers a vertex for it again.
//
//exspan:hotpath
func (s *Store) DelProv(v *Vertex, rid types.ID) (found, removed bool) {
	if found, removed = v.DelRow(rid); !found {
		return false, false
	}
	if len(v.Rows) == 0 {
		if k := prefix(v.VID); s.verts[k] == v {
			delete(s.verts, k)
		} else {
			delete(s.vertSpill, v.VID)
		}
	}
	s.changed(v.VID)
	return true, removed
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
	if slot, ok := s.ruleExecSlot(rid); ok {
		s.execTables[slot>>32].counts[uint32(slot)]++
		return
	}
	ti := s.execTableOf(rule, len(vidList))
	t := &s.execTables[ti]
	// Grown by append from nil, one row at a time: a store holds few rows
	// of most rules, and reserved rows would be paid by every store of a
	// large cluster.
	t.ids = slices.Grow(t.ids, t.stride)
	t.ids = append(t.ids, rid)
	t.ids = append(t.ids, vidList...)
	t.counts = append(t.counts, 1)
	slot := execSlot(ti, len(t.counts)-1)
	k := prefix(rid)
	if _, taken := s.ruleExec[k]; !taken {
		if s.ruleExec == nil {
			//exspanlint:alloc-ok first ruleExec row of this store
			s.ruleExec = make(map[uint64]uint64)
		}
		s.ruleExec[k] = slot
	} else {
		if s.ruleExecSpill == nil {
			//exspanlint:alloc-ok prefix collision overflow: created by the first two RIDs of this store sharing eight bytes, nil otherwise
			s.ruleExecSpill = make(map[types.ID]uint64)
		}
		s.ruleExecSpill[rid] = slot
	}
}

// execTableOf returns the index of the table of (rule, arity), appending an
// empty one on first sight. A program has few rules, so a scan finds it.
//
//exspan:hotpath
func (s *Store) execTableOf(rule string, arity int) int {
	for i := range s.execTables {
		if t := &s.execTables[i]; t.stride == arity+1 && t.rule == rule {
			return i
		}
	}
	s.execTables = append(s.execTables, execTable{rule: rule, stride: arity + 1})
	return len(s.execTables) - 1
}

// ruleExecSlot returns the slot of rid's row; ok is false when there is none.
func (s *Store) ruleExecSlot(rid types.ID) (slot uint64, ok bool) {
	if slot, ok = s.ruleExec[prefix(rid)]; ok {
		t := &s.execTables[slot>>32]
		if t.ids[int(uint32(slot))*t.stride] == rid {
			return slot, true
		}
	}
	slot, ok = s.ruleExecSpill[rid]
	return slot, ok
}

// inPrefixMap reports whether the row of rid at slot is found through the
// prefix map, not the spill map.
func (s *Store) inPrefixMap(rid types.ID, slot uint64) bool {
	at, ok := s.ruleExec[prefix(rid)]
	return ok && at == slot
}

// DelRuleExec decrements (and possibly removes) a ruleExec row; it reports
// whether the row existed. A removed row's place is taken by its table's
// last row, whose map entry follows it.
//
//exspan:hotpath
func (s *Store) DelRuleExec(rid types.ID) bool {
	slot, ok := s.ruleExecSlot(rid)
	if !ok {
		return false
	}
	t := &s.execTables[slot>>32]
	row := int(uint32(slot))
	if t.counts[row]--; t.counts[row] > 0 {
		return true
	}
	if s.inPrefixMap(rid, slot) {
		delete(s.ruleExec, prefix(rid))
	} else {
		delete(s.ruleExecSpill, rid)
	}
	last := len(t.counts) - 1
	if row != last {
		copy(t.ids[row*t.stride:(row+1)*t.stride], t.ids[last*t.stride:])
		t.counts[row] = t.counts[last]
		if moved := t.ids[row*t.stride]; s.inPrefixMap(moved, execSlot(int(slot>>32), last)) {
			s.ruleExec[prefix(moved)] = slot
		} else {
			s.ruleExecSpill[moved] = slot
		}
	}
	t.ids = t.ids[:last*t.stride]
	t.counts = t.counts[:last]
	return true
}

// TupleOf resolves a local VID to its tuple.
func (s *Store) TupleOf(vid types.ID) (types.Tuple, bool) {
	if v := s.Lookup(vid); v != nil {
		return v.Tuple, true
	}
	return types.Tuple{}, false
}

// Derivations returns the visible prov entries for a VID. Callers must not
// mutate the returned slice; it is valid until the next store write.
func (s *Store) Derivations(vid types.ID) []ProvEntry {
	if v := s.Lookup(vid); v != nil {
		return v.Rows
	}
	return nil
}

// RuleExecOf resolves a local RID. The entry's VIDList is valid until the
// next store write.
func (s *Store) RuleExecOf(rid types.ID) (RuleExecEntry, bool) {
	if slot, ok := s.ruleExecSlot(rid); ok {
		return s.execTables[slot>>32].entry(int(uint32(slot))), true
	}
	return RuleExecEntry{}, false
}

// ForEachProv invokes fn for every visible prov entry with the VID it
// derives (iteration order is unspecified).
func (s *Store) ForEachProv(fn func(vid types.ID, d ProvEntry)) {
	for v := range s.vertices {
		for _, d := range v.Rows {
			fn(v.VID, d)
		}
	}
}

// vertices yields every vertex, in no particular order.
func (s *Store) vertices(yield func(*Vertex) bool) {
	for _, v := range s.verts {
		if !yield(v) {
			return
		}
	}
	for _, v := range s.vertSpill {
		if !yield(v) {
			return
		}
	}
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified). An entry's VIDList is valid until the next store
// write; fn must not write to the store.
func (s *Store) ForEachRuleExec(fn func(RuleExecEntry)) {
	for i := range s.execTables {
		t := &s.execTables[i]
		for row := range t.counts {
			fn(t.entry(row))
		}
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
	for v := range s.vertices {
		n += len(v.Rows)
	}
	return n
}

// NumRuleExec reports the number of visible ruleExec entries.
func (s *Store) NumRuleExec() int { return len(s.ruleExec) + len(s.ruleExecSpill) }

// NumParents reports the number of reverse dataflow edges.
func (s *Store) NumParents() int { return len(s.parentIdx) }

// ProvRows renders the store's prov relation as sorted printable rows
// (Loc, tuple, RID short, RLoc) — the format of the paper's Table 1.
func (s *Store) ProvRows() []string {
	var rows []string
	for v := range s.vertices {
		label := v.Tuple.String()
		if v.Tuple.Pred == "" {
			label = v.VID.Short()
		}
		for _, d := range v.Rows {
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
