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
// prov row changes with no map probe. The relation map keys an entry by a
// 64-bit hash of its args; the tuple itself is what a lookup verifies.
//
// Rows are held by value in a small slice: most tuples have one or two, and
// the per-entry map plus per-derivation pointer boxes were among the largest
// allocation sources in fixpoint profiles.
// Field order is alignment-packed (exspanlint -fieldalign): the five 1-byte
// flags sit together after the 4-byte fields, which keeps a stored tuple at
// 104 bytes, its prov rows included; the cached VID needs no flag of its own
// because no tuple hashes to the null digest.
type entry struct {
	provenance.Vertex
	payload algebra.Payload // value mode: ring sum over row payloads

	// touchRound/startVis snapshot the entry's visibility at the start of
	// the round that first touched it (rounds.go) — the reference point for
	// net-change firing and old-state probe admission.
	touchRound uint32

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

// Relation is a materialized table with hash indexes maintained
// incrementally as tuples become visible and invisible. Removals wait for
// the end of the round: the fire phase probes OLD state, so a tuple the
// round hid must still be found (Relation.unindex, maybeSweepRound).
//
// Fully retracted entries are kept in the map as tombstones instead of
// being deleted: under churn the same tuples are re-derived moments later,
// and a reused tombstone brings back its canonical key string and cached
// SHA-1 VID for free (re-deriving a route after a link flap costs neither
// an allocation nor a hash). The tombstone population is bounded by sweep:
// memory stays within a small factor of the live high-water mark.
//
// Entries are keyed by keyHash, the FNV-1a hash of the tuple's args handle
// key: an 8-byte map key, and no per-entry key string to build and retain.
// A lookup verifies the candidate's args. An entry whose hash slot already
// holds a different tuple goes to spill, an exact list per hash that stays
// nil unless two live tuples of one relation collide in 64 bits.
//
// A relation holds its maps, its indexes and its counters, nothing else: the
// entries, their first rows and the key scratch come from the node's
// entryPool, which every method that carves, recycles or encodes takes.
type Relation struct {
	name    string
	entries map[uint64]*entry
	spill   map[uint64][]*entry
	indexes []*index
	visible int // O(1) Len
	dead    int // invisible derivation-free entries retained for reuse
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
// One pool per node, not per relation: a converged CHORD node holds about
// twenty tuples over a dozen relations, and arenas per relation each opened
// a chunk of their own, so a node paid for its relations rather than its
// tuples (PERFORMANCE.md "What a converged CHORD node holds").
//
// key is the node's one key-encoding buffer: relation keys, index keys, join
// probe keys and aggregate group keys are all built in it. Every user hashes
// the bytes at once and never reads them again (a join probe is done with
// its key when index.lookup returns its candidates), so no encode can
// clobber a key still in use.
type entryPool struct {
	entries types.Arena[entry]
	rows    types.Arena[provenance.ProvEntry]
	free    []*entry
	key     []byte
}

// entryChunk caps the chunk size of a node's entry and row arenas. Chunks
// double from 8 slots up to it (types.Arena), and a node with a few hundred
// tuples must not open a mostly empty last chunk: 32 retains the least of
// the caps measured (256 down to 16) on the benchmark workloads, and a
// 100-node MINCOST fixpoint, which opens the most chunks, runs no slower
// than at 256 (PERFORMANCE.md "What a converged CHORD node holds").
const entryChunk = 32

func newEntryPool() entryPool {
	return entryPool{
		entries: types.NewArena[entry](entryChunk),
		rows:    types.NewArena[provenance.ProvEntry](entryChunk),
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

// keyHash hashes a tuple's args handle key (types.Tuple.AppendArgsKey): the
// key copies no string or digest bytes, and equal interned args mean equal
// tuples, so a relation's only other check is argsEqual.
func (p *entryPool) keyHash(t types.Tuple) uint64 {
	p.key = t.AppendArgsKey(p.key[:0])
	return hashIndexKey(p.key)
}

// index is a hash index over a fixed set of argument positions. Buckets are
// keyed by a 64-bit FNV-1a hash of the encoded key bytes rather than the
// bytes themselves: inserting a first-sight key then costs no string copy,
// and integer map operations beat string hashing on every probe. A hash
// collision merges two keys into one bucket; that is sound because every
// probe site re-verifies candidates against the full bound/const bind specs
// (bindTuple), so a merged bucket only costs a few filtered candidates. Buckets are held by pointer so adding to an
// existing bucket needs no map re-assignment; emptied buckets leave the map
// (bounding distinct-key churn) and recycle their boxes through a free list,
// so steady-state visibility churn allocates nothing.
type index struct {
	id        string // indexID(positions)
	positions []int
	buckets   map[uint64]*[]*entry
	free      []*[]*entry
}

// FNV-1a 64-bit, inlined, for index bucket keys. Process-independent, so
// every run hashes identically.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashIndexKey(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// lookup returns the entries whose indexed values hash like key. Callers
// must re-verify candidates (bindTuple does): a bucket can hold hash
// neighbours of the probed key.
func (idx *index) lookup(key []byte) []*entry {
	if p := idx.buckets[hashIndexKey(key)]; p != nil {
		return *p
	}
	return nil
}

func (idx *index) add(key []byte, e *entry) {
	h := hashIndexKey(key)
	if p := idx.buckets[h]; p != nil {
		*p = append(*p, e)
		return
	}
	var p *[]*entry
	if n := len(idx.free); n > 0 {
		p = idx.free[n-1]
		idx.free[n-1] = nil
		idx.free = idx.free[:n-1]
	} else {
		b := make([]*entry, 0, 4)
		p = &b
	}
	*p = append(*p, e)
	if idx.buckets == nil {
		idx.buckets = make(map[uint64]*[]*entry)
	}
	idx.buckets[h] = p
}

func (idx *index) remove(key []byte, e *entry) {
	h := hashIndexKey(key)
	p := idx.buckets[h]
	if p == nil {
		return
	}
	*p = removeEntry(*p, e)
	if len(*p) == 0 {
		delete(idx.buckets, h)
		idx.free = append(idx.free, p)
	}
}

// newRelation builds an empty relation by value, so a node can lay all of
// its program's relations out in one slice. The entries map and each index's
// bucket map are created by their first write: most relations of most nodes
// of a large cluster stay empty, and reads, deletes and len on a nil map
// behave like on an empty one.
func newRelation(name string) Relation { return Relation{name: name} }

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Len reports the number of visible tuples in O(1).
func (r *Relation) Len() int { return r.visible }

// get returns the entry for a tuple, or nil.
func (r *Relation) get(p *entryPool, t types.Tuple) *entry { return r.find(p.keyHash(t), t.Args) }

// find returns the entry of args under hash h, or nil.
func (r *Relation) find(h uint64, args []types.Value) *entry {
	if e := r.entries[h]; e != nil && argsEqual(e.Tuple.Args, args) {
		return e
	}
	for _, e := range r.spill[h] {
		if argsEqual(e.Tuple.Args, args) {
			return e
		}
	}
	return nil
}

// getOrCreate returns the entry for a tuple, creating an invisible one if
// needed.
func (r *Relation) getOrCreate(p *entryPool, t types.Tuple) *entry {
	return r.getOrCreateAt(p, p.keyHash(t), t)
}

// getOrCreateAt is getOrCreate under the tuple's keyHash h. A matching
// tombstone is revived: its cached VID carries over (equal args imply equal
// tuples and equal VIDs).
func (r *Relation) getOrCreateAt(p *entryPool, h uint64, t types.Tuple) *entry {
	if e := r.find(h, t.Args); e != nil {
		if !e.visible && len(e.Rows) == 0 {
			// Revival: the cached VID stays valid; the store forgot the
			// vertex with its last row and the next row registers it
			// again, and the reviving insert recomputes the payload.
			r.dead--
		}
		return e
	}
	e := p.alloc()
	e.Tuple = t
	e.Rows = p.rows.Cap1()
	if r.entries[h] == nil {
		if r.entries == nil {
			r.entries = make(map[uint64]*entry)
		}
		r.entries[h] = e
	} else {
		if r.spill == nil { // the relation's first 64-bit collision
			r.spill = make(map[uint64][]*entry)
		}
		r.spill[h] = append(r.spill[h], e)
	}
	return e
}

// all yields every entry, tombstones included, in no particular order.
func (r *Relation) all(yield func(*entry) bool) {
	for _, e := range r.entries {
		if !yield(e) {
			return
		}
	}
	for _, list := range r.spill {
		for _, e := range list {
			if !yield(e) {
				return
			}
		}
	}
}

// setVisible flips the entry's visibility. Showing it indexes it at once;
// hiding it leaves it indexed (filtered by probe admission) until unindex at
// the end of the round, and a tombstone is reclaimed only by
// maybeSweepRound.
func (r *Relation) setVisible(p *entryPool, e *entry, visible bool) {
	if e.visible == visible {
		return
	}
	e.visible = visible
	if visible {
		r.visible++
	} else {
		r.visible--
	}
	if visible && !e.indexed {
		r.indexAdd(p, e)
	}
	if !visible && len(e.Rows) == 0 {
		// Tombstone the entry for reuse rather than deleting it;
		// getOrCreate revives it.
		r.dead++
	}
}

// indexAdd inserts the entry into every index of the relation.
func (r *Relation) indexAdd(p *entryPool, e *entry) {
	for _, idx := range r.indexes {
		p.key = appendIndexKey(p.key[:0], e.Tuple, idx.positions)
		idx.add(p.key, e)
	}
	e.indexed = true
}

// unindex removes the entry from every index (called at the end of a round
// for entries that netted to invisible).
func (r *Relation) unindex(p *entryPool, e *entry) {
	for _, idx := range r.indexes {
		p.key = appendIndexKey(p.key[:0], e.Tuple, idx.positions)
		idx.remove(p.key, e)
	}
	e.indexed = false
}

// sweepDue reports whether tombstones dominate the live population.
func (r *Relation) sweepDue() bool { return r.dead > 128 && r.dead > 2*r.visible }

// maybeSweepRound reclaims tombstones at the end of a round once they
// dominate the live population.
func (r *Relation) maybeSweepRound(p *entryPool) {
	if r.sweepDue() {
		r.sweep(p)
	}
}

// sweep deletes all tombstones, bounding retained memory to a small factor
// of the live entry count. Swept entries are cleared (releasing their
// tuples) and handed to the node's free list, for any relation to reuse.
func (r *Relation) sweep(p *entryPool) {
	// Free-list order only decides which cleared box getOrCreate reuses;
	// entry pointer identity never reaches state, ordering or the wire.
	reclaim := func(e *entry) bool {
		if e.visible || len(e.Rows) > 0 || e.staged || e.aggQueued {
			return false
		}
		*e = entry{}
		p.free = append(p.free, e)
		return true
	}
	for h, e := range r.entries {
		if reclaim(e) {
			delete(r.entries, h)
		}
	}
	for h, list := range r.spill {
		if list = slices.DeleteFunc(list, reclaim); len(list) == 0 {
			delete(r.spill, h)
		} else {
			r.spill[h] = list
		}
	}
	r.dead = 0
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

// indexID renders the position list as a canonical map key without any
// fmt-based formatting. Plan steps carry theirs from plan-build time
// (planStep.indexID); tests derive one per call, never per probe.
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

// ensureIndex creates (and backfills) a hash index over the argument
// positions whose indexID is id, returning a direct handle usable for
// probe-time lookups. positions is retained, not copied: plan steps and test
// literals never mutate theirs. Backfill inserts visible entries in
// canonical tuple order: bucket order feeds candidate-enumeration order,
// which the determinism fences observe through emission order, so index
// creation over a non-empty relation must not leak the entries map's
// iteration order.
func (r *Relation) ensureIndex(p *entryPool, id string, positions []int) *index {
	if idx := r.indexByID(id); idx != nil {
		return idx
	}
	idx := &index{id: id, positions: positions}
	for _, t := range r.Tuples() {
		e := r.get(p, t)
		p.key = appendIndexKey(p.key[:0], t, idx.positions)
		idx.add(p.key, e)
		e.indexed = true
	}
	r.indexes = append(r.indexes, idx)
	return idx
}

// indexByID scans for the index with the given indexID: a relation has a
// handful at most, and the scan runs at bind time only.
func (r *Relation) indexByID(id string) *index {
	for _, idx := range r.indexes {
		if idx.id == id {
			return idx
		}
	}
	return nil
}

// Index returns the handle of an existing index over positions, or nil. The
// engine resolves every join step to such a handle once at plan-bind time so
// probes skip index-ID formatting entirely.
func (r *Relation) Index(positions []int) *index { return r.indexByID(indexID(positions)) }

// Tuples returns the visible tuples sorted canonically (for deterministic
// output in tests and examples). Entry map keys hash process-local handle
// keys, so this cold path sorts by the canonical encoding instead — the
// order must not depend on interning history or map iteration.
func (r *Relation) Tuples() []types.Tuple {
	if r.visible == 0 {
		return nil // every index bind of an empty node comes through here
	}
	out := make([]types.Tuple, 0, r.visible)
	for e := range r.all {
		if e.visible {
			out = append(out, e.Tuple)
		}
	}
	types.SortTuples(out)
	return out
}
