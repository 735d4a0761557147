package types

import (
	"encoding/binary"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the per-process interning layer behind the compact
// Value representation. Heavy payloads — strings, 20-byte IDs, lists and
// provenance annotations — live in append-only tables and are referenced
// from values by stable 32-bit handles. Two invariants govern the design:
//
//  1. Interning is invisible on the wire. The canonical encoding of a value
//     (docs/wire-format.md) is computed from payload CONTENT, never from
//     handle numbers, so two processes that interned the same values in
//     different orders still produce byte-identical messages and identical
//     SHA-1 vertex identifiers.
//
//  2. Handles are canonical within a process. Each table deduplicates on
//     payload content, so two values of the same kind are equal if and only
//     if their handles are equal. This is what lets Value support Go's ==
//     and lets relations key entries on fixed-width handle bytes instead of
//     variable-length canonical encodings. Only VALUES intern: the ID table
//     holds the digests programs carry as KindID arguments, never the VIDs
//     and RIDs of provenance vertices, which the provenance store keys its
//     rows by directly.
//
// Tables grow monotonically for the life of the process (there is no
// reference counting); the population is bounded by the number of DISTINCT
// heavy payloads a workload's tuples carry as arguments — path lists for
// PATHVECTOR, nothing at all for MINCOST — and does not grow with the
// provenance graph. Entries additionally cache their canonical encoding, so
// encoding an interned value is a single copy instead of a value walk.
//
// Concurrency: lookups by handle are lock-free (an atomic chunk spine);
// interning takes a read lock on the dedup map first and falls back to the
// write lock only for first-time payloads. A handle is only obtainable from
// a Value, and any cross-goroutine hand-off of a Value synchronizes (channel
// send, mutex, …), which carries the table writes with it under the Go
// memory model.

const (
	internChunkBits = 12
	internChunkSize = 1 << internChunkBits
	internChunkMask = internChunkSize - 1
)

// internChunk is one fixed-size page of an append-only table. Pages never
// move once published, so readers index them without locks.
type internChunk[T any] struct{ items [internChunkSize]T }

// chunkStore is the append-only storage half of an intern table. Handle 0
// is reserved as "no handle"; entry h lives at index h-1.
type chunkStore[T any] struct {
	spine atomic.Pointer[[]*internChunk[T]]
}

// get returns the entry for handle h. h must have been returned by a put.
//
//exspan:hotpath
func (c *chunkStore[T]) get(h uint32) *T {
	i := h - 1
	sp := *c.spine.Load()
	return &sp[i>>internChunkBits].items[i&internChunkMask]
}

// put appends v as entry h (the caller allocates handles densely starting at
// 1 and must hold the table's write lock).
func (c *chunkStore[T]) put(h uint32, v T) {
	i := h - 1
	var sp []*internChunk[T]
	if p := c.spine.Load(); p != nil {
		sp = *p
	}
	if ci := int(i >> internChunkBits); ci == len(sp) {
		grown := make([]*internChunk[T], len(sp)+1)
		copy(grown, sp)
		grown[ci] = new(internChunk[T])
		c.spine.Store(&grown)
		sp = grown
	}
	sp[i>>internChunkBits].items[i&internChunkMask] = v
}

// strEntry, idEntry, listEntry and payloadEntry are the per-kind table rows.
// Every row caches enc, the payload's full canonical encoding including the
// kind tag, so Encode and WireSize on interned values are O(len) copies.
type strEntry struct {
	s   string
	enc []byte
}

type idEntry struct {
	id  ID
	enc []byte
}

type listEntry struct {
	elems []Value
	key   string // canonical encoding of the elements; the dedup map key
	enc   []byte
}

type payloadEntry struct {
	key string // the payload bytes; the dedup map key
	enc []byte // kind tag, uvarint length, then the payload bytes
}

var (
	strTab = struct {
		sync.RWMutex
		lookup map[string]uint32
		store  chunkStore[strEntry]
		next   uint32
	}{lookup: make(map[string]uint32), next: 1}

	idTab = struct {
		sync.RWMutex
		lookup map[ID]uint32
		store  chunkStore[idEntry]
		next   uint32
	}{lookup: make(map[ID]uint32), next: 1}

	listTab = struct {
		sync.RWMutex
		lookup map[string]uint32
		store  chunkStore[listEntry]
		next   uint32
	}{lookup: make(map[string]uint32), next: 1}

	provTab = struct {
		sync.RWMutex
		lookup map[string]uint32
		store  chunkStore[payloadEntry]
		next   uint32
	}{lookup: make(map[string]uint32), next: 1}
)

// internStr returns the canonical handle for s. The warm path (the string
// is already interned) is two map reads under an RLock and allocates
// nothing; the fenced paths only ever take it.
//
//exspan:hotpath
func internStr(s string) uint32 {
	strTab.RLock()
	h, ok := strTab.lookup[s]
	strTab.RUnlock()
	if ok {
		return h
	}
	strTab.Lock()
	defer strTab.Unlock()
	if h, ok := strTab.lookup[s]; ok {
		return h
	}
	// Clone so the table never pins a larger buffer the caller sliced s out
	// of (e.g. a decode scratch buffer).
	s = strings.Clone(s)
	//exspanlint:alloc-ok first sight of this string: the table row is built once
	enc := make([]byte, 0, 1+UvarintLen(uint64(len(s)))+len(s))
	enc = append(enc, byte(KindStr))
	enc = binary.AppendUvarint(enc, uint64(len(s)))
	enc = append(enc, s...)
	h = strTab.next
	strTab.next++
	strTab.store.put(h, strEntry{s: s, enc: enc})
	strTab.lookup[s] = h
	return h
}

// internID returns the canonical handle for id; warm path as internStr.
//
//exspan:hotpath
func internID(id ID) uint32 {
	idTab.RLock()
	h, ok := idTab.lookup[id]
	idTab.RUnlock()
	if ok {
		return h
	}
	idTab.Lock()
	defer idTab.Unlock()
	if h, ok := idTab.lookup[id]; ok {
		return h
	}
	//exspanlint:alloc-ok first sight of this ID: the table row is built once
	enc := make([]byte, 0, 1+IDLen)
	enc = append(enc, byte(KindID))
	enc = append(enc, id[:]...)
	h = idTab.next
	idTab.next++
	idTab.store.put(h, idEntry{id: id, enc: enc})
	idTab.lookup[id] = h
	return h
}

// listKeyScratch recycles the temporary buffers interning a list encodes its
// elements into, keeping repeat List construction allocation-free.
var listKeyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// internList returns the canonical handle for a list by its elements'
// canonical encoding; the key is built in pooled scratch, so the warm path
// allocates nothing.
//
//exspan:hotpath
func internList(elems []Value) uint32 {
	bp := listKeyScratch.Get().(*[]byte)
	b := (*bp)[:0]
	b = binary.AppendUvarint(b, uint64(len(elems)))
	for _, e := range elems {
		b = e.Encode(b)
	}
	listTab.RLock()
	h, ok := listTab.lookup[string(b)]
	listTab.RUnlock()
	if ok {
		*bp = b
		listKeyScratch.Put(bp)
		return h
	}
	listTab.Lock()
	defer listTab.Unlock()
	if h, ok := listTab.lookup[string(b)]; ok {
		*bp = b
		listKeyScratch.Put(bp)
		return h
	}
	//exspanlint:alloc-ok first sight of this list: the dedup key is copied once
	key := string(b)
	*bp = b
	listKeyScratch.Put(bp)
	//exspanlint:alloc-ok first sight of this list: the table row is built once
	enc := make([]byte, 0, 1+len(key))
	enc = append(enc, byte(KindList))
	enc = append(enc, key...)
	h = listTab.next
	listTab.next++
	// The elems slice is retained, not copied: List documents that callers
	// must not mutate the slice after construction.
	listTab.store.put(h, listEntry{elems: elems, key: key, enc: enc})
	listTab.lookup[key] = h
	return h
}

// internPayload interns a provenance annotation by its canonical bytes. A
// nil payload interns like an empty one.
func internPayload(b []byte) uint32 {
	key := string(b)
	provTab.RLock()
	h, ok := provTab.lookup[key]
	provTab.RUnlock()
	if ok {
		return h
	}
	provTab.Lock()
	defer provTab.Unlock()
	if h, ok := provTab.lookup[key]; ok {
		return h
	}
	enc := make([]byte, 0, 1+UvarintLen(uint64(len(key)))+len(key))
	enc = append(enc, byte(KindProv))
	enc = binary.AppendUvarint(enc, uint64(len(key)))
	enc = append(enc, key...)
	h = provTab.next
	provTab.next++
	provTab.store.put(h, payloadEntry{key: key, enc: enc})
	provTab.lookup[key] = h
	return h
}

// InternStats reports the table populations (strings, ids, lists, payloads).
// It exists for tests and for memory diagnostics; see the interning notes at
// the top of this file for why the tables only grow.
func InternStats() (strs, ids, lists, payloads int) {
	strTab.RLock()
	strs = int(strTab.next - 1)
	strTab.RUnlock()
	idTab.RLock()
	ids = int(idTab.next - 1)
	idTab.RUnlock()
	listTab.RLock()
	lists = int(listTab.next - 1)
	listTab.RUnlock()
	provTab.RLock()
	payloads = int(provTab.next - 1)
	provTab.RUnlock()
	return
}
