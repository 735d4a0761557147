package engine

import (
	"slices"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/types"
)

// entry is one tuple of a relation, and that tuple's vertex in the node's
// provenance graph: the embedded provenance.Vertex holds the tuple, its VID
// (hashed at most once per lifetime on a node, cached here) and its
// derivation multiset as prov rows keyed by rule-execution identifier (base
// insertions use the null RID; value mode keeps each derivation's BDD in the
// row's Payload). The tuple is visible while at least one row is present.
// In reference mode the node's store points at the embedded vertex while it
// has rows (non-meta tuples only), so a stored tuple is written once and a
// prov row changes with no map probe. The node's tuple map keys an entry by
// a 64-bit hash of its relation's table number and its args; the table tag
// and the tuple itself are what a lookup verifies.
//
// Rows are held by value in a small slice: most tuples have one or two, and
// the per-entry map plus per-derivation pointer boxes were among the largest
// allocation sources in fixpoint profiles.
// Field order is alignment-packed (exspanlint -fieldalign): the table tag
// and the six 1-byte flags sit together after the 4-byte fields, which
// keeps a stored tuple at 104 bytes, its prov rows included; the cached VID
// needs no flag of its own because no tuple hashes to the null digest.
type entry struct {
	provenance.Vertex
	payload algebra.Payload // value mode: ring sum over row payloads

	// touchRound/startVis snapshot the entry's visibility at the start of
	// the round that first touched it (rounds.go) — the reference point for
	// net-change firing and old-state probe admission.
	touchRound uint32

	// table is the PredInfo.tableID of the entry's relation. A node keeps
	// every relation's entries and index buckets in shared maps, so a
	// lookup and a join probe admit only entries carrying their table.
	table uint16

	visible bool

	// staged marks a suspect of the retraction protocol: the entry was
	// over-deleted while alternate derivations survived and sits on its
	// node's re-derivation list (Node.stagedEnts). Sweep must not reclaim
	// it — the staged list holds a pointer — and release clears the flag.
	staged bool

	// aggQueued marks an input of an aggregate update queued for the next
	// round (Node.aggIn). The update finds the entry by pointer in
	// its group's rows, so the sweep at the end of this round must not
	// reclaim and recycle it; the apply step clears the flag.
	aggQueued bool

	startVis bool
	// dead marks a tombstone counted in its table's dead count: set where
	// the entry is hidden or loses its last row while hidden, cleared where
	// getOrCreate revives it, so the count uncounts only what it counted.
	dead bool
	// indexed tracks index membership, which is deferred to the end of the
	// round on removal so frozen fire-phase probes can still see
	// start-of-round state.
	indexed bool
}

// VIDBuf returns the tuple's provenance vertex identifier, computing and
// caching it on first use. buf is scratch for the canonical encoding; the
// (possibly grown) buffer is returned for reuse. Interned arguments make the
// encode a sequence of memoized copies.
func (e *entry) VIDBuf(buf []byte) (types.ID, []byte) {
	if e.VID.IsZero() { // not hashed yet: no tuple's SHA-1 is the null digest
		e.VID, buf = e.Tuple.VIDBuf(buf)
	}
	return e.VID, buf
}

// entryPool is what a node spends on its stored tuples, whichever relation
// holds them. The entry arena carves entries (boxing each individually was
// a leading allocation class in fixpoint profiles — arena chunks never pin
// stale tuples because sweep zeroes an entry before listing it), and free
// recycles the ones sweep reclaims; the row arena carves each entry's
// initial capacity-1 row slice. Most tuples carry exactly one derivation, so
// the per-entry "first append" used to be another of the largest allocation
// classes; entries with alternative derivations spill to a regular append.
// Prov rows and types.Value hold no pointers, so those chunks cost the
// garbage collector nothing to scan.
//
// A relation is its PredInfo and nothing else: every method that carves,
// finds, indexes, counts or sweeps the entries of one relation is a pool
// method taking the relation's predicate.
//
// One pool per node, and two hash tables: a converged CHORD node holds about
// twenty tuples over a dozen relations and seven indexes, and a map per
// relation and per index cost it more than its tuples (PERFORMANCE.md "What
// a converged CHORD node holds").
//
//   - tuples is the tuple map: every relation's entries, tombstones
//     included, keyed by the hash of the table number and the args handle
//     key (entryPool.hash). spill holds, per hash, the entries whose slot
//     another tuple took; it stays nil unless two tuples collide in 64 bits.
//   - buckets is the index map: every index's buckets, keyed by the hash of
//     the index number and the index key (indexHash). A bucket of one entry
//     is that entry, with no box; a bucket of two or more is marked listed
//     and kept in lists, whose emptied slices freeLists recycles.
//
// The number in each hash keeps equal keys of two relations or indexes
// apart; a 64-bit collision costs a check of the table tag and the args.
//
// key is the node's one byte scratch: relation keys, index keys, join probe
// keys, aggregate group keys and the encodings VIDs and RIDs are hashed
// from are all built in it. Every user hashes the bytes at once and never
// reads them again, so no encode can clobber bytes still in use. The buffer
// belongs to the round scratch the node holds while it runs (Node.borrow);
// a bare pool, or a node's outside a run, starts from nil.
type entryPool struct {
	entries   types.Arena[entry]
	rows      types.Arena[provenance.ProvEntry]
	free      []*entry
	key       []byte
	counts    []tableCount
	tuples    map[uint64]*entry
	spill     map[uint64][]*entry
	buckets   map[uint64]*entry
	lists     map[uint64][]*entry
	freeLists [][]*entry
}

// tableCount is one relation's O(1) cardinality and its tombstones, the
// invisible derivation-free entries kept for reuse that decide its sweep.
// A pool's counts are indexed by PredInfo.tableID, one per relation the
// node holds.
type tableCount struct {
	visible int32
	dead    int32
}

// entryChunk caps the chunk size of a node's entry and row arenas. Chunks
// double from 8 slots up to it (types.Arena), and a node with a few hundred
// tuples must not open a mostly empty last chunk: 32 retains the least of
// the caps measured (256 down to 16) on the benchmark workloads, and a
// 100-node MINCOST fixpoint, which opens the most chunks, runs no slower
// than at 256 (PERFORMANCE.md "What a converged CHORD node holds").
const entryChunk = 32

// newEntryPool returns the pool of a node holding tables relations.
func newEntryPool(tables int) entryPool {
	return entryPool{
		entries: types.NewArena[entry](entryChunk),
		rows:    types.NewArena[provenance.ProvEntry](entryChunk),
		counts:  make([]tableCount, tables),
	}
}

// alloc returns a zeroed entry, recycling one swept earlier when available
// and carving from the arena otherwise.
//
//exspan:hotpath
func (p *entryPool) alloc() *entry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return e
	}
	return p.entries.New()
}

// all yields every entry of the node, tombstones included, in no particular
// order.
func (p *entryPool) all(yield func(*entry) bool) {
	for _, e := range p.tuples {
		if !yield(e) {
			return
		}
	}
	for _, list := range p.spill {
		for _, e := range list {
			if !yield(e) {
				return
			}
		}
	}
}

// FNV-1a 64-bit, inlined, for the node's map keys. Process-independent, so
// every run hashes identically.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey is FNV-1a over the number num — a table, an index or a rule — taken
// as one input word, and then the key bytes.
func hashKey(num int, b []byte) uint64 {
	h := (fnvOffset64 ^ uint64(num)) * fnvPrime64
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// indexHash hashes the index key of t under ix: the index-map key of t's
// bucket.
func (p *entryPool) indexHash(ix *index, t types.Tuple) uint64 {
	p.key = appendIndexKey(p.key[:0], t, ix.positions)
	return hashKey(ix.num, p.key)
}

// listed marks an index-map slot whose bucket holds two or more entries;
// no entry is ever stored at it.
var listed = new(entry)

// lookup returns the bucket under index-map hash h: its one entry appended
// to one (a caller's empty slice over a one-slot array, so a single
// candidate needs no box), or its list. Callers must verify candidates (the
// join probe checks the table tag, then bindTuple the args): a bucket can
// hold hash neighbours of the probed key, from any index of the node.
//
//exspan:hotpath
func (p *entryPool) lookup(h uint64, one []*entry) []*entry {
	switch e := p.buckets[h]; e {
	case nil:
		return nil
	case listed:
		return p.lists[h]
	default:
		return append(one, e)
	}
}

// bucketAdd appends e to the bucket under h: a second entry moves the bucket
// from inline to a list, in the order first, e.
//
//exspan:hotpath
func (p *entryPool) bucketAdd(h uint64, e *entry) {
	switch first := p.buckets[h]; first {
	case nil:
		if p.buckets == nil {
			//exspanlint:alloc-ok the index map is made by the node's first indexed entry
			p.buckets = make(map[uint64]*entry)
		}
		p.buckets[h] = e
	case listed:
		p.lists[h] = append(p.lists[h], e)
	default:
		var l []*entry
		if n := len(p.freeLists); n > 0 {
			l = p.freeLists[n-1]
			p.freeLists = p.freeLists[:n-1]
		} else {
			//exspanlint:alloc-ok list growth: a new list only while the node's bucket count grows
			l = make([]*entry, 0, 4)
		}
		if p.lists == nil {
			//exspanlint:alloc-ok the list map is made by the node's first two-entry bucket
			p.lists = make(map[uint64][]*entry)
		}
		p.lists[h] = append(l, first, e)
		p.buckets[h] = listed
	}
}

// bucketRemove swap-removes e from the bucket under h. A list left with one
// entry goes back inline and its slice to freeLists, so steady-state
// visibility churn allocates nothing.
//
//exspan:hotpath
func (p *entryPool) bucketRemove(h uint64, e *entry) {
	switch p.buckets[h] {
	case e:
		delete(p.buckets, h)
	case listed:
		l := removeEntry(p.lists[h], e)
		if len(l) > 1 {
			p.lists[h] = l
			return
		}
		p.buckets[h] = l[0]
		l[0] = nil
		p.freeLists = append(p.freeLists, l[:0])
		delete(p.lists, h)
	}
}

// Len reports the number of visible tuples of the relation in O(1).
func (p *entryPool) Len(info *PredInfo) int { return int(p.counts[info.tableID].visible) }

// hash hashes a tuple of the relation: its table number, then its args
// handle key (types.Tuple.AppendArgsKey). The key copies no string or
// digest bytes, and equal interned args mean equal tuples, so a lookup's
// only other checks are the table tag and argsEqual.
//
//exspan:hotpath
func (p *entryPool) hash(info *PredInfo, t types.Tuple) uint64 {
	p.key = t.AppendArgsKey(p.key[:0])
	return hashKey(info.tableID, p.key)
}

// get returns the relation's entry for a tuple, or nil.
//
//exspan:hotpath
func (p *entryPool) get(info *PredInfo, t types.Tuple) *entry {
	return p.find(info, p.hash(info, t), t.Args)
}

// find returns the relation's entry of args under hash h, or nil.
//
//exspan:hotpath
func (p *entryPool) find(info *PredInfo, h uint64, args []types.Value) *entry {
	table := uint16(info.tableID)
	if e := p.tuples[h]; e != nil && e.table == table && argsEqual(e.Tuple.Args, args) {
		return e
	}
	for _, e := range p.spill[h] {
		if e.table == table && argsEqual(e.Tuple.Args, args) {
			return e
		}
	}
	return nil
}

// getOrCreate returns the relation's entry for a tuple, creating an
// invisible one if needed.
func (p *entryPool) getOrCreate(info *PredInfo, t types.Tuple) *entry {
	return p.getOrCreateAt(info, p.hash(info, t), t)
}

// getOrCreateAt is getOrCreate under the tuple's hash h. A matching
// tombstone is revived: its cached VID carries over (equal args imply equal
// tuples and equal VIDs).
//
//exspan:hotpath
func (p *entryPool) getOrCreateAt(info *PredInfo, h uint64, t types.Tuple) *entry {
	if e := p.find(info, h, t.Args); e != nil {
		if e.dead {
			// Revival: the cached VID stays valid; the store forgot the
			// vertex with its last row and the next row registers it
			// again, and the reviving insert recomputes the payload.
			e.dead = false
			p.counts[info.tableID].dead--
		}
		return e
	}
	e := p.alloc()
	e.Tuple, e.table = t, uint16(info.tableID)
	e.Rows = p.rows.Cap1()
	if p.tuples[h] == nil {
		if p.tuples == nil {
			//exspanlint:alloc-ok the tuple map is made by the node's first entry
			p.tuples = make(map[uint64]*entry)
		}
		p.tuples[h] = e
	} else {
		if p.spill == nil {
			//exspanlint:alloc-ok the spill map is made by the node's first 64-bit collision
			p.spill = make(map[uint64][]*entry)
		}
		p.spill[h] = append(p.spill[h], e)
	}
	return e
}

// bury counts e, invisible and derivation-free, as a tombstone of its
// relation, once. A fully retracted entry is kept rather than deleted: under
// churn the same tuples are re-derived moments later, and getOrCreate
// revives the tombstone with its cached SHA-1 VID (re-deriving a route after
// a link flap costs neither an allocation nor a hash).
func (p *entryPool) bury(e *entry) {
	if !e.dead {
		e.dead = true
		p.counts[e.table].dead++
	}
}

// setVisible flips the entry's visibility. Showing it indexes it at once;
// hiding it leaves it indexed (filtered by probe admission) until unindex at
// the end of the round — the fire phase probes OLD state, so a tuple the
// round hid must still be found — and a tombstone is reclaimed only by the
// end-of-round sweep.
//
//exspan:hotpath
func (p *entryPool) setVisible(info *PredInfo, e *entry, visible bool) {
	if e.visible == visible {
		return
	}
	e.visible = visible
	if visible {
		p.counts[info.tableID].visible++
	} else {
		p.counts[info.tableID].visible--
	}
	if visible && !e.indexed {
		p.indexAdd(info, e)
	}
	if !visible && len(e.Rows) == 0 {
		// Tombstone the entry for reuse rather than deleting it.
		p.bury(e)
	}
}

// indexAdd files the entry under every index of its relation.
//
//exspan:hotpath
func (p *entryPool) indexAdd(info *PredInfo, e *entry) {
	for i := range info.indexes {
		p.bucketAdd(p.indexHash(&info.indexes[i], e.Tuple), e)
	}
	e.indexed = true
}

// unindex removes the entry from every index of its relation (called at the
// end of a round for entries that netted to invisible).
//
//exspan:hotpath
func (p *entryPool) unindex(info *PredInfo, e *entry) {
	for i := range info.indexes {
		p.bucketRemove(p.indexHash(&info.indexes[i], e.Tuple), e)
	}
	e.indexed = false
}

// sweepDue reports whether tombstones dominate the relation's live
// population: the end of a round then sweeps it.
func (p *entryPool) sweepDue(info *PredInfo) bool {
	c := p.counts[info.tableID]
	return c.dead > 128 && c.dead > 2*c.visible
}

// sweep deletes the relation's tombstones from the node's tuple map,
// bounding retained memory to a small factor of the live entry count.
// Swept entries are cleared (releasing their tuples) and handed to the
// node's free list, for any relation to reuse. A tombstone still pinned by
// the staged list or an aggregate update stays, and stays counted.
// A swept entry's vertex frees any handle it still holds in the store (one
// of a meta tuple, whose rows the store never saw).
func (p *entryPool) sweep(info *PredInfo, store *provenance.Store) {
	// Free-list order only decides which cleared box getOrCreate reuses;
	// entry pointer identity never reaches state, ordering or the wire.
	table := uint16(info.tableID)
	c := &p.counts[table]
	reclaim := func(e *entry) bool {
		if e.table != table || e.visible || len(e.Rows) > 0 || e.staged || e.aggQueued {
			return false
		}
		if e.dead {
			c.dead--
		}
		store.Release(&e.Vertex)
		*e = entry{}
		p.free = append(p.free, e)
		return true
	}
	for h, e := range p.tuples {
		if reclaim(e) {
			delete(p.tuples, h)
		}
	}
	for h, list := range p.spill {
		if list = slices.DeleteFunc(list, reclaim); len(list) == 0 {
			delete(p.spill, h)
		} else {
			p.spill[h] = list
		}
	}
}

func removeEntry(list []*entry, e *entry) []*entry {
	for i, x := range list {
		if x == e {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}

func appendIndexKey(b []byte, t types.Tuple, positions []int) []byte {
	for _, p := range positions {
		b = t.Args[p].AppendKey(b)
	}
	return b
}

// indexID renders the position list as a canonical string without any
// fmt-based formatting: the name an index is declared under and -explain
// prints, rendered once per join step at plan-build time.
func indexID(positions []int) string {
	b := make([]byte, 0, 2*len(positions))
	for i, p := range positions {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
}

// Tuples returns the relation's visible tuples sorted canonically (for
// deterministic output in tests and examples). Map keys hash process-local
// handle keys, so this cold path sorts by the canonical encoding instead —
// the order must not depend on interning history or map iteration.
func (p *entryPool) Tuples(info *PredInfo) []types.Tuple {
	n := p.Len(info)
	if n == 0 {
		return nil
	}
	out := make([]types.Tuple, 0, n)
	table := uint16(info.tableID)
	for e := range p.all {
		if e.visible && e.table == table {
			out = append(out, e.Tuple)
		}
	}
	types.SortTuples(out)
	return out
}
