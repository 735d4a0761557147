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
// Rows are keyed by the 20-byte digests of §4.1: a tuple vertex by its VID,
// a rule execution by its RID. A vertex the store knows has a 4-byte handle
// into its vertex table, and both lookups are openaddr tables of 4-byte
// positions that compare the full digest, so a shared prefix costs a longer
// probe, never a wrong row.
//
// The ruleExec relation is one pointer-free table per store: the RIDs in a
// []types.ID, and in a []uint32 of one stride, the program's widest body
// plus one, each row's count word (rule number in the top 8 bits, count in
// the low 24) and its inputs' handles, zero-padded. The GC scans none of it,
// an input costs 4 bytes, and rule labels and the widest body are the
// program's Rules, which every store of it reads through one pointer. A delete moves the last row into the hole, so the table
// stays dense and churn reuses memory. Readers get a RuleExecEntry built on
// read. A handle is freed once its vertex has no rows and no row names it.
//
// A Vertex carries everything the store knows about one VID: its tuple and
// its prov rows. The engine embeds one in each relation entry, so a stored
// tuple is its own vertex: the entry's derivation multiset is the vertex's
// prov rows, and the delta path adds and removes rows with no map probe at
// all. The VID index holds registered vertices only — a vertex is
// registered with its first row (AddProv) and forgotten with its last
// (DelProv). Prov rows are stored by value inside their vertex's slice.
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
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/openaddr"
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

// RuleExecEntry is one row of the ruleExec relation, built per read (the
// store keeps its rows in a column table) with a VIDList of its own.
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

// parentKey identifies one reverse dataflow edge for O(1) add/remove: the
// RID alone determines the derived head, so (vid, rid) is unique per edge,
// and hub tuples accumulate long parent lists.
type parentKey struct {
	vid types.ID
	rid types.ID
}

// Store is one node's partition of the provenance graph. Reverse dataflow
// edges (parents) are installed by the query processor when it caches a
// traversal level (§6.1 invalidation is their only consumer), so they cost
// per cached query, never per derivation.
type Store struct {
	Node types.NodeID
	free uint32 // the freed handles, chained through their refs slots; 0 ends it

	// OnProvChange, when set, fires after the derivation set of a local
	// VID changes (entry added or removed). The query cache uses it for
	// invalidation.
	OnProvChange func(vid types.ID)

	// vtab[h] is the vertex of handle h, and refs[h] counts the ruleExec row
	// inputs that name it; 0 is no handle, so vtab[0] is nil.
	vtab []*Vertex
	refs []uint32
	vids openaddr.Table[uint32] // registered vertices' handles, by VID
	rids openaddr.Table[uint32] // ruleExec rows, by RID

	// The ruleExec table: row i is execIDs[i], its count word cols[i*stride]
	// and its input handles after it, stride-1 the most a row can have.
	execIDs []types.ID
	cols    []uint32
	rules   *Rules

	parents   map[types.ID][]Parent
	parentIdx map[parentKey]int // position inside parents[vid]

	// The node's numbering of its base tuples (BaseVar): ordinals[vid] is
	// vid's ordinal, bases[ord] the VID numbered ord. An ordinal is never
	// reused, even after its tuple is deleted.
	ordinals map[types.ID]uint32
	bases    []types.ID

	arenas *storeArenas // made by the first carved vertex or parent edge
}

// storeArenas carve vertices of tuples the writer keeps no entry for, and
// the capacity-1 first element of such a vertex's rows and of parent lists
// (most VIDs have one of each). Most stores of a large cluster carve nothing.
type storeArenas struct {
	verts   types.Arena[Vertex]
	prov    types.Arena[ProvEntry]
	parents types.Arena[Parent]
}

// A row counts at most countMask executions below its rule number.
const countBits, countMask = 24, 1<<24 - 1

// MaxRules is how many rules a store can number in a count word's top 8
// bits. engine.Compile rejects a program with more rules.
const MaxRules = 1 << (32 - countBits)

// storeArenaChunk caps the chunk size of a store's arenas.
const storeArenaChunk = 256

// Rules is what every store of a program reads about its rules, held once by
// the program: their labels by rule number, and the widest body, the most
// inputs a ruleExec row can have.
type Rules struct {
	Labels    []string
	MaxInputs int
}

// NewStore builds a node's empty store, whose ruleExec rows name rule r by
// rules.Labels[r] and have at most rules.MaxInputs inputs.
func NewStore(node types.NodeID, rules *Rules) *Store {
	return &Store{Node: node, rules: rules}
}

// stride is the uint32 words of a ruleExec row: its count word and inputs.
//
//exspan:hotpath
func (s *Store) stride() int { return s.rules.MaxInputs + 1 }

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
	if _, h, ok := openaddr.Find(&s.vids, vertKey{s.vtab, vid}, vid.Hash()); ok {
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
		slot, _, _ := openaddr.Find(&s.vids, vertKey{s.vtab, v.VID}, v.VID.Hash())
		h := s.handle(v)
		openaddr.Insert(&s.vids, vertKey{s.vtab, v.VID}, v.VID.Hash(), h, slot)
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
		if slot, h, ok := openaddr.Find(&s.vids, vertKey{s.vtab, v.VID}, v.VID.Hash()); ok && h == v.h {
			openaddr.Remove(&s.vids, vertKey{vtab: s.vtab}, slot)
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
// rule executed over inputs, which may be caller scratch.
//
//exspan:hotpath
func (s *Store) AddRuleExec(rid types.ID, rule int, inputs []*Vertex) {
	slot, pos, ok := openaddr.Find(&s.rids, rowKey{s.execIDs, rid}, rid.Hash())
	if ok {
		w := &s.cols[int(pos-1)*s.stride()]
		if *w&countMask == countMask {
			//exspanlint:alloc-ok capacity limit: the count word cannot hold another execution
			panic(fmt.Sprintf("provenance: node %d counts the most executions of rule %s a row can hold", s.Node, s.rules.Labels[*w>>countBits]))
		}
		*w++
		return
	}
	at := len(s.cols) // grown from nil: most stores of a large cluster hold few rows
	s.execIDs = append(s.execIDs, rid)
	s.cols = slices.Grow(s.cols, s.stride())[:at+s.stride()]
	s.cols[at] = uint32(rule)<<countBits | 1
	for i, v := range inputs {
		h := s.handle(v)
		s.refs[h]++
		s.cols[at+1+i] = h
	}
	clear(s.cols[at+1+len(inputs):])
	openaddr.Insert(&s.rids, rowKey{s.execIDs, rid}, rid.Hash(), uint32(len(s.execIDs)), slot)
}

// inputs returns the input handles of the row whose count word is at at.
func (s *Store) inputs(at int) []uint32 {
	hs := s.cols[at+1 : at+s.stride()]
	if i := slices.Index(hs, 0); i >= 0 {
		return hs[:i]
	}
	return hs
}

// DelRuleExec decrements (and possibly removes) a ruleExec row; it reports
// whether the row existed. A removed row's place is taken by the table's
// last row, whose index slot follows it.
//
//exspan:hotpath
func (s *Store) DelRuleExec(rid types.ID) bool {
	slot, pos, ok := openaddr.Find(&s.rids, rowKey{s.execIDs, rid}, rid.Hash())
	if !ok {
		return false
	}
	row, w, last := int(pos-1), s.stride(), len(s.execIDs)-1
	if s.cols[row*w]--; s.cols[row*w]&countMask > 0 {
		return true
	}
	openaddr.Remove(&s.rids, rowKey{ids: s.execIDs}, slot)
	for _, h := range s.inputs(row * w) {
		s.unref(h)
	}
	if row != last {
		moved, _, _ := openaddr.Find(&s.rids, rowKey{s.execIDs, s.execIDs[last]}, s.execIDs[last].Hash())
		s.rids.Set(moved, pos)
		s.execIDs[row] = s.execIDs[last]
		copy(s.cols[row*w:(row+1)*w], s.cols[last*w:])
	}
	s.execIDs, s.cols = s.execIDs[:last], s.cols[:last*w]
	return true
}

// vertKey probes the VID index for id: a handle's key is its vertex's VID.
// rowKey probes the RID index for id: position i+1 holds row i, whose key
// is its RID. The digests' first eight bytes are a fast reject.
type vertKey struct {
	vtab []*Vertex
	id   types.ID
}
type rowKey struct {
	ids []types.ID
	id  types.ID
}

func (k vertKey) Hash(h uint32) uint64 { return k.vtab[h].VID.Hash() }
func (k vertKey) Is(h uint32) bool     { v := &k.vtab[h].VID; return v.Hash() == k.id.Hash() && *v == k.id }
func (k rowKey) Hash(p uint32) uint64  { return k.ids[p-1].Hash() }
func (k rowKey) Is(p uint32) bool      { r := &k.ids[p-1]; return r.Hash() == k.id.Hash() && *r == k.id }

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

// HasRuleExec reports whether the store holds the ruleExec row of rid.
func (s *Store) HasRuleExec(rid types.ID) bool {
	_, _, ok := openaddr.Find(&s.rids, rowKey{s.execIDs, rid}, rid.Hash())
	return ok
}

// RuleExecOf resolves a local RID. The entry's VIDList is its own.
func (s *Store) RuleExecOf(rid types.ID) (RuleExecEntry, bool) { return s.RuleExecInto(nil, rid) }

// RuleExecInto is RuleExecOf for a reader that brings the memory: the
// entry's VIDList is the row's input VIDs appended to dst.
func (s *Store) RuleExecInto(dst []types.ID, rid types.ID) (RuleExecEntry, bool) {
	_, pos, ok := openaddr.Find(&s.rids, rowKey{s.execIDs, rid}, rid.Hash())
	if !ok {
		return RuleExecEntry{}, false
	}
	return s.entry(int(pos-1), dst), true
}

// entry builds the reader's view of row `row`, appending its inputs' VIDs,
// resolved from their handles, to vids.
func (s *Store) entry(row int, vids []types.ID) RuleExecEntry {
	at := row * s.stride()
	hs := s.inputs(at)
	vids = slices.Grow(vids, len(hs))
	for _, h := range hs {
		vids = append(vids, s.vtab[h].VID)
	}
	w := s.cols[at]
	return RuleExecEntry{RID: s.execIDs[row], Rule: s.rules.Labels[w>>countBits], VIDList: vids, Count: int(w & countMask)}
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
	for h := range s.vids.All {
		if !yield(s.vtab[h]) {
			return
		}
	}
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified); fn must not write to the store. Each entry's
// VIDList is its own.
func (s *Store) ForEachRuleExec(fn func(RuleExecEntry)) {
	k := s.stride() - 1
	vids := make([]types.ID, len(s.execIDs)*k)
	for row := range s.execIDs {
		fn(s.entry(row, vids[row*k:row*k:(row+1)*k]))
	}
}

// CheckRuleExecs reports the first ruleExec row that names a handle of no
// vertex of this store, or whose RID is not types.RuleExecIDBuf over its
// rule, this node and its inputs' VIDs, and then the first handle whose
// count of naming row inputs is not what the rows hold.
func (s *Store) CheckRuleExecs() error {
	var vids []types.ID
	named := make([]uint32, len(s.refs))
	for row, rid := range s.execIDs {
		vids = vids[:0]
		rule := s.rules.Labels[s.cols[row*s.stride()]>>countBits]
		for _, h := range s.inputs(row * s.stride()) {
			if int(h) >= len(s.vtab) || s.vtab[h] == nil || s.vtab[h].h != h {
				return fmt.Errorf("ruleExec %s (%s): input handle %d names no vertex of the store", rid.Short(), rule, h)
			}
			vids = append(vids, s.vtab[h].VID)
			named[h]++
		}
		if want, _ := types.RuleExecIDBuf(rule, s.Node, vids, nil); want != rid {
			return fmt.Errorf("ruleExec %s (%s): its inputs hash to %s", rid.Short(), rule, want.Short())
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
func (s *Store) NumRuleExec() int { return s.rids.Len() }

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
