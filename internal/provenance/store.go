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
// execution by its RID — the 20-byte digests of §4.1. A vertex the store
// knows has a 4-byte handle into its vertex table, and both lookups are
// open-addressed tables of 4-byte positions (posIndex): registered
// vertices' handles by VID, ruleExec row positions by RID. A probe starts at
// the digest's first eight bytes and compares the full digest on the vertex
// or row, so a shared prefix costs a longer probe, never a wrong row.
//
// The ruleExec relation is held as pointer-free column tables, one per rule:
// the RIDs in a []types.ID, each row's count and input vertices' handles in
// a []uint32. No row struct, rule string, slice header or pointer is kept
// per rule execution, so the GC scans none of it, and an input costs 4 bytes
// instead of a copy of its VID. A delete that empties a row moves its
// table's last row into its place: tables stay dense, and a store that
// churns rows reuses their memory. Readers get a RuleExecEntry built on
// read, its VIDList resolved into memory of its own. A handle is freed once
// its vertex has no rows and no row names it, so it outlives the vertex's
// registration while rows read it.
//
// A Vertex carries everything the store knows about one VID: its tuple and
// its prov rows. The engine embeds one in each relation entry, so a stored
// tuple is its own vertex: the entry's derivation multiset is the vertex's
// prov rows, and the delta path adds and removes rows with no map probe at
// all. The VID index holds registered vertices only — a vertex is
// registered with its first row (AddProv) and forgotten with its last
// (DelProv). Prov rows are stored by value inside their vertex's slice: the
// store sits on the engine's delta hot path, and per-row pointer boxes more
// than doubled the evaluator's allocation count in fixpoint profiles.
//
// The Store has one method set per role. The writer — the node's engine,
// its only one — uses AddProv / DelProv on the vertices it embeds, Vertex /
// Lookup for tuples it keeps no entry for (events), AddRuleExec /
// DelRuleExec and Release. Readers — the query processor, the CLI, experiments and the
// benchmark — use everything else, keyed by the IDs that travel in query
// messages. The only rows a reader writes are the reverse dataflow edges of
// its own cache (AddParent / DropParents). Both roles may number a base
// tuple (BaseVar): the engine when a value-mode payload starts at it, the
// query processor when a BDD query reaches it. A store is not safe for
// concurrent use; every driver runs a node's engine and query processor on
// one goroutine.
package provenance

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bdd"
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
// column tables — and builds one per read, with a VIDList of its own.
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
// owns its fields; the store reads them while the vertex is registered or a
// ruleExec row names it by its handle h (0: none), which fills the padding.
type Vertex struct {
	Tuple types.Tuple
	Rows  []ProvEntry
	VID   types.ID
	h     uint32
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
	free uint32 // the freed handles, chained through their refs slots; 0 ends it

	// OnProvChange, when set, fires after the derivation set of a local
	// VID changes (entry added or removed). The query cache uses it for
	// invalidation.
	OnProvChange func(vid types.ID)

	// vtab[h] is the vertex of handle h, and refs[h] counts the ruleExec row
	// inputs that name it; 0 is no handle, so vtab[0] is nil.
	vtab       []*Vertex
	refs       []uint32
	vids       posIndex // registered vertices' handles, by VID
	rids       posIndex // ruleExec row positions, by RID
	execTables []execTable
	parents    map[types.ID][]Parent
	parentIdx  map[parentKey]int // position inside parents[vid]

	// The node's numbering of its base tuples (BaseVar): ordinals[vid] is
	// vid's ordinal, bases[ord] the VID numbered ord. An ordinal is never
	// reused, even after its tuple is deleted.
	ordinals map[types.ID]uint32
	bases    []types.ID

	arenas *storeArenas // made by the first carved vertex or parent edge
}

// storeArenas carve vertices of tuples the writer keeps no entry for, and
// the first element of such a vertex's rows and of parent lists. Most VIDs
// have exactly one prov row and one parent edge, so the per-VID "first
// append" allocations dominated the store's profile; carving capacity-1
// slices from a chunk amortizes them to ~1/chunk. Longer lists spill to
// regular append growth. Most stores of a large cluster carve nothing.
type storeArenas struct {
	verts   types.Arena[Vertex]
	prov    types.Arena[ProvEntry]
	parents types.Arena[Parent]
}

// execTable holds the ruleExec rows of one rule as pointer-free columns,
// dense in [0, len(rids)): row i is rids[i], executed cols[i*stride] times
// over the vertices of the stride-1 handles that follow. A removed row's
// place is taken by the last row, so no dead row is kept.
type execTable struct {
	rule   string
	rids   []types.ID
	cols   []uint32
	num    int32 // the writer's number for the rule
	stride int32
}

// A row position is its table's index in the top 8 bits and its row in the
// low 24, so a table holds fewer than rowMask rows.
const rowBits, rowMask = 24, 1<<24 - 1

// MaxRules is how many rules' rows one store can hold, one table each: a
// table's index fills a row position's top 8 bits. engine.Compile rejects
// a program with more rules.
const MaxRules = 1 << (32 - rowBits)

// storeArenaChunk caps the chunk size of a store's arenas.
const storeArenaChunk = 256

// NewStore builds a node's empty store. Its tables are created by their
// first write: most stores of a large cluster hold rows in few of them, and
// reads, deletes and counts treat an empty table as empty.
func NewStore(node types.NodeID) *Store { return &Store{Node: node} }

// carve returns the store's arenas, making them on first use.
//
//exspan:hotpath
func (s *Store) carve() *storeArenas {
	if s.arenas == nil {
		s.arenas = &storeArenas{types.NewArena[Vertex](storeArenaChunk),
			types.NewArena[ProvEntry](storeArenaChunk), types.NewArena[Parent](storeArenaChunk)}
	}
	return s.arenas
}

// handle returns v's handle, numbering v on first use.
//
//exspan:hotpath
func (s *Store) handle(v *Vertex) uint32 {
	if v.h == 0 && s.free != 0 {
		v.h, s.free = s.free, s.refs[s.free]
		s.vtab[v.h], s.refs[v.h] = v, 0
	} else if v.h == 0 {
		if s.vtab == nil {
			s.vtab, s.refs = append(s.vtab, nil), append(s.refs, 0) // 0 is no handle
		}
		v.h, s.vtab, s.refs = uint32(len(s.vtab)), append(s.vtab, v), append(s.refs, 0)
	}
	return v.h
}

// unref counts one row input naming handle h less. A handle is freed once
// nothing names it and its vertex has no rows, so it outlives the vertex's
// registration while rows read it: a tuple whose only derivation swaps
// within one round leaves and rejoins the store, keeping its handle.
//
//exspan:hotpath
func (s *Store) unref(h uint32) {
	if s.refs[h]--; s.refs[h] == 0 && len(s.vtab[h].Rows) == 0 {
		s.Release(s.vtab[h])
	}
}

// Release frees v's handle for another vertex unless a row still names it.
// The store frees the handle of a vertex it forgets once no row names it;
// the writer calls Release when it recycles the memory of a vertex whose
// rows it keeps to itself.
func (s *Store) Release(v *Vertex) {
	if v.h != 0 && s.refs[v.h] == 0 {
		s.vtab[v.h], s.refs[v.h], s.free, v.h = nil, s.free, v.h, 0
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
	a := s.carve()
	v := a.verts.New()
	v.VID, v.Tuple, v.Rows = vid, t, a.prov.Cap1()
	return v
}

// Lookup returns the registered vertex of vid, or nil. Writers without a
// vertex of their own for a tuple (events) delete through it.
//
//exspan:hotpath
func (s *Store) Lookup(vid types.ID) *Vertex {
	if _, h, ok := find(&s.vids, vertKeys(s.vtab), vid); ok {
		return s.vtab[h]
	}
	return nil
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
		slot, _, _ := find(&s.vids, vertKeys(s.vtab), v.VID)
		h := s.handle(v)
		insert(&s.vids, vertKeys(s.vtab), v.VID, h, slot)
	}
	s.changed(v.VID)
	return r
}

// DelProv counts one derivation of v via rid less (Vertex.DelRow). When that
// removes v's last row the store forgets v: the VID resolves to nothing
// until a later AddProv registers a vertex for it again. v keeps its handle
// while a row names it.
//
//exspan:hotpath
func (s *Store) DelProv(v *Vertex, rid types.ID) (found, removed bool) {
	if found, removed = v.DelRow(rid); !found {
		return false, false
	}
	if len(v.Rows) == 0 {
		if slot, h, ok := find(&s.vids, vertKeys(s.vtab), v.VID); ok && h == v.h {
			remove(&s.vids, vertKeys(s.vtab), slot)
		}
		s.Release(v)
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

// AddRuleExec inserts (or increments) the ruleExec row of rid: rule number
// rule, labelled label, executed over inputs, which may be caller scratch. A
// rule number names one label and one input count.
//
//exspan:hotpath
func (s *Store) AddRuleExec(rid types.ID, rule int, label string, inputs []*Vertex) {
	slot, pos, ok := find(&s.rids, rowKeys(s.execTables), rid)
	if ok {
		t := &s.execTables[pos>>rowBits]
		t.cols[int(pos&rowMask)*int(t.stride)]++
		return
	}
	// A store holds few rules' rows, so a scan of their numbers finds the
	// table.
	ti := 0
	for ti < len(s.execTables) && int(s.execTables[ti].num) != rule {
		ti++
	}
	if ti == len(s.execTables) {
		s.execTables = append(s.execTables, execTable{rule: label, num: int32(rule), stride: int32(len(inputs) + 1)})
	}
	t := &s.execTables[ti]
	if len(t.rids) == rowMask-1 {
		//exspanlint:alloc-ok capacity limit: the store cannot number this row
		panic(fmt.Sprintf("provenance: node %d holds the most rows of rule %s a store can number", s.Node, label))
	}
	// Grown by append from nil, one row at a time: a store holds few rows
	// of most rules, and reserved rows would be paid by every store of a
	// large cluster.
	t.rids = append(t.rids, rid)
	t.cols = append(t.cols, 1)
	for _, v := range inputs {
		h := s.handle(v)
		s.refs[h]++
		t.cols = append(t.cols, h)
	}
	insert(&s.rids, rowKeys(s.execTables), rid, uint32(ti)<<rowBits|uint32(len(t.rids)-1), slot)
}

// DelRuleExec decrements (and possibly removes) a ruleExec row; it reports
// whether the row existed. A removed row's place is taken by its table's
// last row, whose index slot follows it.
//
//exspan:hotpath
func (s *Store) DelRuleExec(rid types.ID) bool {
	keys := rowKeys(s.execTables)
	slot, pos, ok := find(&s.rids, keys, rid)
	if !ok {
		return false
	}
	t := &s.execTables[pos>>rowBits]
	row, stride, last := int(pos&rowMask), int(t.stride), len(t.rids)-1
	if t.cols[row*stride]--; t.cols[row*stride] > 0 {
		return true
	}
	remove(&s.rids, keys, slot)
	for _, h := range t.cols[row*stride+1 : (row+1)*stride] {
		s.unref(h)
	}
	if row != last {
		moved, _, _ := find(&s.rids, keys, t.rids[last])
		s.rids.slots[moved] = pos + 1
		t.rids[row] = t.rids[last]
		copy(t.cols[row*stride:(row+1)*stride], t.cols[last*stride:])
	}
	t.rids, t.cols = t.rids[:last], t.cols[:last*stride]
	return true
}

// posIndex is an open-addressed table of 4-byte positions (vertex handles or
// row positions) keyed by the digest each position's vertex or row holds. A
// probe starts at the digest's first eight bytes modulo the table size and
// walks on, comparing full digests. A slot holds its position plus one, 0
// when empty; a removal shifts its probe chain back, leaving no tombstone.
// The table doubles before it is three quarters full and never shrinks.
type posIndex struct {
	slots []uint32
	n     int
}

// keyer reads the digest at a position. Its two types differ in underlying
// type, so each instantiation of find, insert and remove calls its own.
type keyer interface{ key(pos uint32) *types.ID }
type rowKeys []execTable
type vertKeys []*Vertex

func (t rowKeys) key(pos uint32) *types.ID { return &t[pos>>rowBits].rids[pos&rowMask] }
func (v vertKeys) key(h uint32) *types.ID  { return &v[h].VID }

// lead is a digest's first eight bytes: where its probe starts, and a fast
// reject while it walks.
func lead(id *types.ID) uint64 { return binary.LittleEndian.Uint64(id[:8]) }

// find returns the slot of id and its position, or ok false and the empty
// slot that ends id's probe chain.
//
//exspan:hotpath
func find[K keyer](x *posIndex, keys K, id types.ID) (slot int, pos uint32, ok bool) {
	if len(x.slots) == 0 {
		return 0, 0, false
	}
	mask, lo := len(x.slots)-1, lead(&id)
	for slot = int(lo) & mask; ; slot = (slot + 1) & mask {
		v := x.slots[slot]
		if v == 0 {
			return slot, 0, false
		}
		if k := keys.key(v - 1); lead(k) == lo && *k == id {
			return slot, v - 1, true
		}
	}
}

// insert adds pos under id, which the index does not hold, at slot: the
// empty slot where find ended, unless the table grows first.
//
//exspan:hotpath
func insert[K keyer](x *posIndex, keys K, id types.ID, pos uint32, slot int) {
	if old := x.slots; 4*(x.n+1) > 3*len(old) {
		//exspanlint:alloc-ok growth: the table doubles, amortized over the positions it admits
		x.slots = make([]uint32, max(8, 2*len(old)))
		for _, v := range old {
			if v != 0 {
				at, _, _ := find(x, keys, *keys.key(v - 1))
				x.slots[at] = v
			}
		}
		slot, _, _ = find(x, keys, id)
	}
	x.slots[slot], x.n = pos+1, x.n+1
}

// remove empties slot i, moving back each later position of its probe chain
// whose home is not cyclically between the hole and the position itself.
//
//exspan:hotpath
func remove[K keyer](x *posIndex, keys K, i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if (j-int(lead(keys.key(x.slots[j]-1))))&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i], x.n = 0, x.n-1
}

// BaseVar returns the BDD variable of the local base tuple vid: (this node,
// vid's ordinal), numbering vid on first request. A base tuple's variable is
// only ever created where the tuple lives, so a node's ordinals depend on
// the order its own base tuples first needed one, never on other nodes.
func (s *Store) BaseVar(vid types.ID) bdd.Var {
	ord, ok := s.ordinals[vid]
	if !ok {
		if s.ordinals == nil {
			s.ordinals = make(map[types.ID]uint32)
		}
		ord = uint32(len(s.bases))
		s.ordinals[vid] = ord
		s.bases = append(s.bases, vid)
	}
	return bdd.Var{Node: s.Node, Ord: ord}
}

// BaseVID returns the VID of the base tuple named v, when this node numbered
// it (BaseVar's inverse).
func (s *Store) BaseVID(v bdd.Var) (types.ID, bool) {
	if v.Node != s.Node || uint64(v.Ord) >= uint64(len(s.bases)) {
		return types.ZeroID, false
	}
	return s.bases[v.Ord], true
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

// RuleExecOf resolves a local RID. The entry's VIDList is its own.
func (s *Store) RuleExecOf(rid types.ID) (RuleExecEntry, bool) { return s.RuleExecInto(nil, rid) }

// RuleExecInto is RuleExecOf for a reader that brings the memory: the
// entry's VIDList is the row's input VIDs appended to dst.
func (s *Store) RuleExecInto(dst []types.ID, rid types.ID) (RuleExecEntry, bool) {
	_, pos, ok := find(&s.rids, rowKeys(s.execTables), rid)
	if !ok {
		return RuleExecEntry{}, false
	}
	return s.entry(&s.execTables[pos>>rowBits], int(pos&rowMask), dst), true
}

// entry builds the reader's view of row `row` of t, appending its inputs'
// VIDs, resolved from their handles, to vids.
func (s *Store) entry(t *execTable, row int, vids []types.ID) RuleExecEntry {
	at := row * int(t.stride)
	vids = slices.Grow(vids, int(t.stride)-1)
	for _, h := range t.cols[at+1 : at+int(t.stride)] {
		vids = append(vids, s.vtab[h].VID)
	}
	return RuleExecEntry{RID: t.rids[row], Rule: t.rule, VIDList: vids, Count: int(t.cols[at])}
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

// vertices yields every registered vertex, in no particular order.
func (s *Store) vertices(yield func(*Vertex) bool) {
	for _, h := range s.vids.slots {
		if h != 0 && !yield(s.vtab[h-1]) {
			return
		}
	}
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified); fn must not write to the store. Each entry's
// VIDList is its own.
func (s *Store) ForEachRuleExec(fn func(RuleExecEntry)) {
	for i := range s.execTables {
		t := &s.execTables[i]
		k := int(t.stride) - 1
		vids := make([]types.ID, len(t.rids)*k)
		for row := range t.rids {
			fn(s.entry(t, row, vids[row*k:row*k:(row+1)*k]))
		}
	}
}

// CheckRuleExecs reports the first ruleExec row that names a handle of no
// vertex of this store, or whose RID is not types.RuleExecIDBuf over its
// rule, this node and its inputs' VIDs, and then the first handle whose
// count of naming row inputs is not what the rows hold.
func (s *Store) CheckRuleExecs() error {
	var vids []types.ID
	named := make([]uint32, len(s.refs))
	for _, t := range s.execTables {
		for row, rid := range t.rids {
			vids = vids[:0]
			for _, h := range t.cols[row*int(t.stride)+1 : (row+1)*int(t.stride)] {
				if int(h) >= len(s.vtab) || s.vtab[h] == nil || s.vtab[h].h != h {
					return fmt.Errorf("ruleExec %s (%s): input handle %d names no vertex of the store", rid.Short(), t.rule, h)
				}
				vids = append(vids, s.vtab[h].VID)
				named[h]++
			}
			if want, _ := types.RuleExecIDBuf(t.rule, s.Node, vids, nil); want != rid {
				return fmt.Errorf("ruleExec %s (%s): its inputs hash to %s", rid.Short(), t.rule, want.Short())
			}
		}
	}
	for h, n := range named {
		if s.vtab[h] != nil && n != s.refs[h] {
			return fmt.Errorf("handle %d: %d row inputs name it, counted %d", h, n, s.refs[h])
		}
	}
	return nil
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
		list = s.carve().parents.Cap1()
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
func (s *Store) NumRuleExec() int { return s.rids.n }

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
