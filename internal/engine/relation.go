package engine

import (
	"slices"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/openaddr"
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
// prov row changes with no map probe. The node's tuple table finds an entry
// by a 64-bit hash of its relation's table number and its args; the table
// tag and the args are what a lookup compares.
// Rows are held by value in a small slice: most tuples have one or two.
//
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
	// every relation's entries and index buckets in shared tables, so a
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
// holds them. The entry arena carves entries (chunks never pin stale tuples:
// sweep zeroes an entry before listing it), and free recycles the ones sweep
// reclaims; the row arena carves each entry's capacity-1 first row slice
// (most tuples carry one derivation; more spill to a regular append). Prov
// rows and types.Value hold no pointers, so the GC scans none of it.
//
// A relation is its PredInfo and nothing else: every method that carves,
// finds, indexes, counts or sweeps the entries of one relation is a pool
// method taking the relation's predicate.
//
// One pool per node, and one table of each kind: a converged CHORD node
// holds about twenty tuples over a dozen relations and seven indexes, and a
// map per relation and per index cost it more than its tuples
// (PERFORMANCE.md "What a converged CHORD node holds").
//
// tabs points at the node's three openaddr tables:
//
//   - the tuple table: every relation's entries, tombstones included, found
//     by the hash of the table number and the args handle key
//     (entryPool.hash);
//   - the group table: every aggregate rule's groups, found by the hash of
//     the rule number and the group-by values (Node.aggGroupAt);
//   - the bucket table: every index's buckets, found by the hash of the
//     index number and the index key (indexHash).
//
// The number in each hash keeps equal keys of two relations, rules or
// indexes apart. A 64-bit collision costs one more probe in the tuple and
// group tables; in the bucket table it puts two keys in one bucket, and the
// join probe's check of the table tag and the args tells them apart.
//
// key is the node's one byte scratch: relation keys, index keys, join probe
// keys, aggregate group keys and the encodings VIDs and RIDs are hashed
// from are all built in it. Every user hashes the bytes at once and never
// reads them again, so no encode can clobber bytes still in use. The buffer
// belongs to the round scratch the node holds while it runs (Node.borrow);
// a bare pool, or a node's outside a run, starts from nil.
type entryPool struct {
	entries types.Arena[entry]
	rows    types.Arena[provenance.ProvEntry]
	free    []*entry
	key     []byte
	counts  []tableCount
	tabs    *tables
}

// tables are the node's tuple, group and bucket tables, and the free list of
// emptied buckets, behind one pointer: their headers inline would take the
// Node past its 512-byte size class.
type tables struct {
	tuples  openaddr.Table[*entry]
	groups  openaddr.Table[*aggGroup]
	buckets openaddr.Table[*bucket]
	free    []*bucket
}

// bucket is what one index hash files: the visible entries whose index key
// hashes to h, in the order they came, kept by append and swap-remove (the
// order joins enumerate and emit in). ents starts over one, so a bucket's
// first entry needs no slice of its own.
type bucket struct {
	h    uint64
	ents []*entry
	one  [1]*entry
}

// tupleKey probes the tuple table for args of table, and groupKey the group
// table for a group of rule over vals; both hash in p's key buffer. bucketKey
// probes the bucket table for an index hash, which is a bucket's whole key:
// index keys of one hash share a bucket, as they shared a Go map's slot.
type tupleKey struct {
	p     *entryPool
	args  []types.Value
	table uint16
}
type groupKey struct {
	p    *entryPool
	vals []types.Value
	rule uint32
}
type bucketKey uint64

func (k tupleKey) Hash(e *entry) uint64    { return k.p.hash(int(e.table), e.Tuple.Args) }
func (k tupleKey) Is(e *entry) bool        { return e.table == k.table && slices.Equal(e.Tuple.Args, k.args) }
func (k groupKey) Hash(g *aggGroup) uint64 { return k.p.hash(int(g.rule), g.groupVals) }
func (k groupKey) Is(g *aggGroup) bool     { return g.rule == k.rule && slices.Equal(g.groupVals, k.vals) }
func (k bucketKey) Hash(b *bucket) uint64  { return b.h }
func (k bucketKey) Is(b *bucket) bool      { return b.h == uint64(k) }

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

// newEntryPool returns the pool of a node holding n relations.
func newEntryPool(n int) entryPool {
	return entryPool{
		entries: types.NewArena[entry](entryChunk),
		rows:    types.NewArena[provenance.ProvEntry](entryChunk),
		counts:  make([]tableCount, n),
		tabs:    new(tables),
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

// FNV-1a 64-bit, inlined, for the node's tables.
// Process-independent, so every run hashes identically.
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

// indexHash hashes the index key of t under ix: the key of t's bucket.
func (p *entryPool) indexHash(ix *index, t types.Tuple) uint64 {
	p.key = appendIndexKey(p.key[:0], t, ix.positions)
	return hashKey(ix.num, p.key)
}

// lookup returns the bucket under index hash h, or nil. Callers must verify
// candidates (the join probe checks the table tag, then bindTuple the args):
// a bucket holds every entry whose index key hashes to h, from any index of
// the node.
//
//exspan:hotpath
func (p *entryPool) lookup(h uint64) []*entry {
	if _, b, ok := openaddr.Find(&p.tabs.buckets, bucketKey(h), h); ok {
		return b.ents
	}
	return nil
}

// bucketAdd appends e to the bucket under h, opening the bucket from the
// free list, or carving it, if h has none.
//
//exspan:hotpath
func (p *entryPool) bucketAdd(h uint64, e *entry) {
	t := p.tabs
	slot, b, ok := openaddr.Find(&t.buckets, bucketKey(h), h)
	if !ok {
		if n := len(t.free); n > 0 {
			b, t.free = t.free[n-1], t.free[:n-1]
		} else {
			//exspanlint:alloc-ok bucket growth: a new bucket only while the node's bucket count grows
			b = new(bucket)
			b.ents = b.one[:0]
		}
		b.h = h
		openaddr.Insert(&t.buckets, bucketKey(h), h, b, slot)
	}
	b.ents = append(b.ents, e)
}

// bucketRemove swap-removes e from the bucket under h. An emptied bucket
// leaves the table for the free list, its slice kept, so steady-state
// visibility churn allocates nothing.
//
//exspan:hotpath
func (p *entryPool) bucketRemove(h uint64, e *entry) {
	t := p.tabs
	if slot, b, ok := openaddr.Find(&t.buckets, bucketKey(h), h); ok {
		if b.ents = removeEntry(b.ents, e); len(b.ents) == 0 {
			openaddr.Remove(&t.buckets, bucketKey(h), slot)
			t.free = append(t.free, b)
		}
	}
}

// Len reports the number of visible tuples of the relation in O(1).
func (p *entryPool) Len(info *PredInfo) int { return int(p.counts[info.tableID].visible) }

// hash hashes the args of a tuple of table number num, or the group-by
// values of a group of rule number num: the number, then the args handle
// key (types.Tuple.AppendArgsKey). The key copies no string or digest
// bytes, and interned handles are canonical (== per value is content
// equality), so a lookup's only other checks are the number and the args.
//
//exspan:hotpath
func (p *entryPool) hash(num int, args []types.Value) uint64 {
	p.key = types.Tuple{Args: args}.AppendArgsKey(p.key[:0])
	return hashKey(num, p.key)
}

// get returns the relation's entry for a tuple, or nil.
//
//exspan:hotpath
func (p *entryPool) get(info *PredInfo, t types.Tuple) *entry {
	_, e, _ := openaddr.Find(&p.tabs.tuples, tupleKey{p, t.Args, uint16(info.tableID)}, p.hash(info.tableID, t.Args))
	return e
}

// getOrCreate returns the relation's entry for a tuple, creating an
// invisible one if needed. A matching tombstone is revived: its cached VID
// carries over (equal args imply equal tuples and equal VIDs).
//
//exspan:hotpath
func (p *entryPool) getOrCreate(info *PredInfo, t types.Tuple) *entry {
	k, h := tupleKey{p, t.Args, uint16(info.tableID)}, p.hash(info.tableID, t.Args)
	slot, e, ok := openaddr.Find(&p.tabs.tuples, k, h)
	if ok {
		if e.dead {
			// Revival: the cached VID stays valid; the store forgot the
			// vertex with its last row and the next row registers it
			// again, and the reviving insert recomputes the payload.
			e.dead = false
			p.counts[info.tableID].dead--
		}
		return e
	}
	e = p.alloc()
	e.Tuple, e.table = t, k.table
	e.Rows = p.rows.Cap1()
	openaddr.Insert(&p.tabs.tuples, k, h, e, slot)
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

// sweep deletes the relation's tombstones from the node's tuple table,
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
	openaddr.DeleteFunc(&p.tabs.tuples, tupleKey{p: p}, reclaim)
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
// deterministic output in tests and examples). Table homes hash process-local
// handle keys, so this cold path sorts by the canonical encoding instead —
// the order must not depend on interning history or table layout.
func (p *entryPool) Tuples(info *PredInfo) []types.Tuple {
	n := p.Len(info)
	if n == 0 {
		return nil
	}
	out := make([]types.Tuple, 0, n)
	table := uint16(info.tableID)
	for e := range p.tabs.tuples.All {
		if e.visible && e.table == table {
			out = append(out, e.Tuple)
		}
	}
	types.SortTuples(out)
	return out
}
