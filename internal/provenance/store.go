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
// partition of ruleExec for rules executed locally. The store additionally
// keeps the VID→tuple mapping (the paper's "systems table that maps VIDs to
// tuples") and reverse dataflow edges used by cache invalidation (§6.1).
//
// A node's Store is itself split into one Partition per engine worker shard
// (see partition.go): during the sharded runtime's parallel phases each
// shard writes only its own partition, so the store needs no locks.
//
// The package has one surface per role. Writers — the engine's worker shards
// — go through Partition, holding the *Vertex of each stored tuple they
// maintain. Readers — the query processor, the CLI, experiments and the
// benchmark — go through Store, keyed by the IDs that travel in query
// messages, fanning out across partitions where a row could live in any of
// them. The only rows a reader writes are the reverse dataflow edges of its
// own cache (AddParent / DropParents).
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// Store is one node's view of its provenance graph: the read surface over one
// or more single-writer partitions.
type Store struct {
	Node types.NodeID

	// OnProvChange, when set, fires after the derivation set of a local
	// VID changes (entry added or removed). The query cache uses it for
	// invalidation. While DeferChanges is in effect, notifications are
	// buffered per partition and replayed by FlushDeferred.
	OnProvChange func(vid types.ID)

	parts     []*Partition
	deferring bool
}

// NewStoreSharded creates a store with n partitions, one per engine worker
// shard (one partition is the layout every single-threaded node uses).
func NewStoreSharded(node types.NodeID, n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{Node: node}
	s.parts = make([]*Partition, n)
	for i := range s.parts {
		s.parts[i] = newPartition(s)
	}
	return s
}

// Part returns partition i, the write surface of engine worker shard i.
func (s *Store) Part(i int) *Partition { return s.parts[i] }

// DeferChanges buffers OnProvChange notifications until FlushDeferred. The
// engine brackets its parallel phases with this pair so the (single-threaded)
// query-cache hook never runs concurrently.
func (s *Store) DeferChanges() { s.deferring = true }

// FlushDeferred replays buffered change notifications in partition order and
// resumes synchronous delivery.
func (s *Store) FlushDeferred() {
	s.deferring = false
	if s.OnProvChange == nil {
		for _, p := range s.parts {
			p.pending = p.pending[:0]
		}
		return
	}
	for _, p := range s.parts {
		for _, vid := range p.pending {
			s.OnProvChange(vid)
		}
		p.pending = p.pending[:0]
	}
}

// vertex returns the vertex of vid from whichever partition holds it, or nil.
func (s *Store) vertex(vid types.ID) *Vertex {
	for _, p := range s.parts {
		if v := p.verts[vid]; v != nil {
			return v
		}
	}
	return nil
}

// TupleOf resolves a local VID to its tuple.
func (s *Store) TupleOf(vid types.ID) (types.Tuple, bool) {
	if v := s.vertex(vid); v != nil {
		return v.tuple, true
	}
	return types.Tuple{}, false
}

// Derivations returns the visible prov entries for a VID. Callers must not
// mutate the returned slice.
func (s *Store) Derivations(vid types.ID) []ProvEntry {
	if v := s.vertex(vid); v != nil {
		return v.prov
	}
	return nil
}

// RuleExecOf resolves a local RID.
func (s *Store) RuleExecOf(rid types.ID) (RuleExecEntry, bool) {
	for _, p := range s.parts {
		if e := p.ruleExec[rid]; e != nil {
			return *e, true
		}
	}
	return RuleExecEntry{}, false
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified).
func (s *Store) ForEachRuleExec(fn func(RuleExecEntry)) {
	for _, p := range s.parts {
		for _, e := range p.ruleExec {
			fn(*e)
		}
	}
}

// AddParent records that local tuple vid was consumed by rule execution rid
// deriving headVID at headLoc — a write path driven by the query processor's
// cache installation. The edge lands in the partition holding the VID's
// vertex (or its earlier edges), so invalidation finds it alongside them.
func (s *Store) AddParent(vid, rid, headVID types.ID, headLoc types.NodeID) {
	p := s.parts[0]
	for _, q := range s.parts {
		if q.verts[vid] != nil || q.parents[vid] != nil {
			p = q
			break
		}
	}
	k := parentKey{vid: vid, rid: rid}
	list := p.parents[vid]
	if pos, ok := p.parentIdx[k]; ok {
		list[pos].Count++
		return
	}
	if list == nil {
		list = p.parentArena.Cap1()
		if p.parents == nil {
			p.parents = make(map[types.ID][]Parent)
			p.parentIdx = make(map[parentKey]int)
		}
	}
	p.parentIdx[k] = len(list)
	p.parents[vid] = append(list, Parent{RID: rid, HeadVID: headVID, HeadLoc: headLoc, Count: 1})
}

// Parents returns the reverse dataflow edges of a local VID. Callers must
// not mutate the returned slice.
func (s *Store) Parents(vid types.ID) []Parent {
	for _, p := range s.parts {
		if list := p.parents[vid]; list != nil {
			return list
		}
	}
	return nil
}

// DropParents removes every reverse edge of a VID (an invalidation wave
// consumed them). A slice previously returned by Parents stays readable.
func (s *Store) DropParents(vid types.ID) {
	for _, p := range s.parts {
		for _, e := range p.parents[vid] {
			delete(p.parentIdx, parentKey{vid: vid, rid: e.RID})
		}
		delete(p.parents, vid)
	}
}

// NumProv reports the number of visible prov entries across partitions.
func (s *Store) NumProv() int {
	n := 0
	for _, p := range s.parts {
		for _, v := range p.verts {
			n += len(v.prov)
		}
	}
	return n
}

// NumRuleExec reports the number of visible ruleExec entries.
func (s *Store) NumRuleExec() int {
	n := 0
	for _, p := range s.parts {
		n += len(p.ruleExec)
	}
	return n
}

// NumParents reports the number of reverse dataflow edges.
func (s *Store) NumParents() int {
	n := 0
	for _, p := range s.parts {
		n += len(p.parentIdx)
	}
	return n
}

// ProvRows renders the store's prov relation as sorted printable rows
// (Loc, tuple, RID short, RLoc) — the format of the paper's Table 1.
func (s *Store) ProvRows() []string {
	var rows []string
	for _, p := range s.parts {
		for _, v := range p.verts {
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
	}
	sort.Strings(rows)
	return rows
}

// RuleExecRows renders the store's ruleExec relation as sorted rows (RLoc,
// RID short, rule, VIDList shorts) — the format of Table 2. Input tuples may
// live in sibling partitions (a sharded rule firing stores its row at the
// RID's home partition), hence the store-wide TupleOf.
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
