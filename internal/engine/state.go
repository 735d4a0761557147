package engine

import (
	"bufio"
	"crypto/sha1"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/openaddr"
	"repro/internal/provenance"
	"repro/internal/types"
)

// WriteStates writes the canonical fixpoint state of each node to w — what
// every fence that compares two runs compares, and what `exspan -dump-prov`
// prints. Per node, in order:
//
//	node <id>
//	the visible tuples of prov, ruleExec, then every other predicate of the
//	program by name, each predicate's tuples sorted canonically; in value
//	mode each tuple is followed by "payload <hex>", its encoded BDD
//	"prov     " + each row of the store's prov partition (Store.ProvRows)
//	"ruleExec " + each row of its ruleExec partition (Store.RuleExecRows)
//
// prov and ruleExec lead the tuples because the centralized mode relays the
// rows to its server as tuples and a rewritten program
// (ndlog.ProvenanceRewrite) derives them as relations. Every program declares
// both, so the by-name pass skips them; a node that holds neither lists
// nothing for them.
func WriteStates(w io.Writer, nodes []*Node) error {
	bw := bufio.NewWriter(w)
	for _, n := range nodes {
		n.writeState(bw)
	}
	return bw.Flush()
}

func (n *Node) writeState(w *bufio.Writer) {
	fmt.Fprintf(w, "node %d\n", int(n.ID))
	tuples := func(pred string) {
		for _, t := range n.Tuples(pred) {
			w.WriteString(t.String() + "\n")
			if p, ok := n.PayloadOf(t); ok {
				fmt.Fprintf(w, "payload %x\n", n.Ring.Encode(p))
			}
		}
	}
	tuples("prov")
	tuples("ruleExec")
	for _, info := range n.Prog.Preds() {
		if info.Name != "prov" && info.Name != "ruleExec" {
			tuples(info.Name)
		}
	}
	for _, row := range n.Store.ProvRows() {
		w.WriteString("prov     " + row + "\n")
	}
	for _, row := range n.Store.RuleExecRows() {
		w.WriteString("ruleExec " + row + "\n")
	}
}

// StateDigest is the hex SHA-1 of the nodes' canonical state.
func StateDigest(nodes []*Node) string {
	h := sha1.New()
	WriteStates(h, nodes)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// DiffStates compares two clusters' canonical states node by node and returns
// only what differs: per differing node its header, then "- " for each line
// only want has and "+ " for each line only got has. A payload line travels
// with the tuple it annotates. Equal states return "".
func DiffStates(want, got []*Node) string {
	var b strings.Builder
	if len(want) != len(got) {
		fmt.Fprintf(&b, "%d nodes, want %d\n", len(got), len(want))
	}
	for i := 0; i < min(len(want), len(got)); i++ {
		w, g := stateLines(want[i]), stateLines(got[i])
		unmatched := map[string]int{}
		for _, l := range g {
			unmatched[l]++
		}
		var diff []string
		for _, l := range w {
			if unmatched[l] > 0 {
				unmatched[l]--
			} else {
				diff = append(diff, "- "+l)
			}
		}
		for _, l := range g {
			if unmatched[l] > 0 {
				unmatched[l]--
				diff = append(diff, "+ "+l)
			}
		}
		if len(diff) > 0 {
			fmt.Fprintf(&b, "node %d:\n%s\n", int(want[i].ID), strings.Join(diff, "\n"))
		}
	}
	return b.String()
}

// stateLines is one node's canonical state as diff units: its lines, with
// each payload line joined to the tuple line before it.
func stateLines(n *Node) []string {
	var sb strings.Builder
	WriteStates(&sb, []*Node{n})
	var out []string
	for _, l := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")[1:] {
		if strings.HasPrefix(l, "payload ") && len(out) > 0 {
			out[len(out)-1] += " " + l
			continue
		}
		out = append(out, l)
	}
	return out
}

// CheckQuiescent reports the first invariant the nodes break, or nil. At
// every fixpoint, on every node:
//
//   - there is no evaluation error, the node holds no round scratch, and
//     nothing is pending or staged for release;
//   - an entry's vertex is registered in the store if and only if the node
//     runs reference mode, the entry is not a prov or ruleExec tuple, and it
//     has rows;
//   - a hidden entry that is not staged has no rows;
//   - an entry of an indexed relation is indexed if and only if it is
//     visible: the end of a round unindexes what it hid;
//   - every visible entry sits in its bucket under each index of its
//     relation, and the buckets, none of them empty, hold nothing else;
//   - every relation's visible and tombstone counts are what a walk of the
//     node's entries finds;
//   - for a program without events, the store holds exactly the registered
//     entries' prov rows;
//   - every ruleExec row's input handles name vertices of the store whose
//     VIDs rehash to its RID (Store.CheckRuleExecs);
//   - in reference mode, every prov row with a non-zero RID resolves to a
//     ruleExec row in the store of its RLoc node.
func CheckQuiescent(nodes []*Node) error {
	byID := make(map[types.NodeID]*Node, len(nodes))
	for _, n := range nodes {
		byID[n.ID] = n
	}
	for _, n := range nodes {
		if err := n.checkQuiescent(byID); err != nil {
			return fmt.Errorf("node %d: %w", int(n.ID), err)
		}
	}
	return nil
}

func (n *Node) checkQuiescent(byID map[types.NodeID]*Node) (err error) {
	switch {
	case n.Err != nil:
		return n.Err
	case n.sc != nil:
		return fmt.Errorf("holds a round scratch (%d firings, %d aggregate updates)", len(n.sc.fires), len(n.sc.aggIn))
	case n.pending():
		return fmt.Errorf("%d deltas pending", len(n.queue)-n.qhead)
	case len(n.stagedEnts)+len(n.stagedGroups) > 0:
		return fmt.Errorf("%d entries and %d aggregate groups staged", len(n.stagedEnts), len(n.stagedGroups))
	}
	// Every entry, group and bucket sits where a probe for its own key
	// ends, and each table counts what a walk of it finds.
	p := &n.pool
	if err := openaddr.Check(&p.tabs.tuples, func(e *entry) tupleKey { return tupleKey{p, e.Tuple.Args, e.table} },
		func(e *entry) string { return fmt.Sprintf("entry %v of table %d", e.Tuple, e.table) }); err != nil {
		return fmt.Errorf("tuple table: %w", err)
	}
	if err := openaddr.Check(&p.tabs.groups, func(g *aggGroup) groupKey { return groupKey{p, g.groupVals, g.rule} },
		func(g *aggGroup) string { return fmt.Sprintf("group %v of rule %d", g.groupVals, g.rule) }); err != nil {
		return fmt.Errorf("group table: %w", err)
	}
	if err := p.checkBuckets(n.Prog.tables); err != nil {
		return fmt.Errorf("bucket table: %w", err)
	}
	rows := 0
	for e := range n.pool.tabs.tuples.All {
		info := n.Prog.tables[e.table]
		want := n.Mode == ProvReference && !info.meta && len(e.Rows) > 0
		got := !e.VID.IsZero() && n.Store.Lookup(e.VID) == &e.Vertex
		switch {
		case got != want:
			return fmt.Errorf("%v (%d rows, visible %v): registered %v, want %v",
				e.Tuple, len(e.Rows), e.visible, got, want)
		case !e.visible && !e.staged && len(e.Rows) > 0:
			return fmt.Errorf("%v is hidden and unstaged with %d rows", e.Tuple, len(e.Rows))
		case len(info.indexes) > 0 && e.indexed != e.visible:
			return fmt.Errorf("%v: indexed %v, visible %v", e.Tuple, e.indexed, e.visible)
		}
		if want {
			rows += len(e.Rows)
		}
	}
	events := slices.ContainsFunc(n.Prog.Preds(), func(p *PredInfo) bool { return p.Event })
	if got := n.Store.NumProv(); !events && got != rows {
		return fmt.Errorf("store holds %d prov rows, registered entries %d", got, rows)
	}
	if n.Mode == ProvReference {
		n.Store.ForEachProv(func(vid types.ID, d provenance.ProvEntry) {
			if at := byID[d.RLoc]; err == nil && !d.RID.IsZero() && (at == nil || !at.Store.HasRuleExec(d.RID)) {
				t, _ := n.Store.TupleOf(vid)
				err = fmt.Errorf("prov %v via %s at %d: no ruleExec row there", t, d.RID.Short(), int(d.RLoc))
			}
		})
	}
	if err != nil {
		return err
	}
	if err := n.Store.CheckRuleExecs(); err != nil {
		return err
	}
	return n.pool.checkCounts()
}

// checkBuckets reports whether the bucket table files each visible entry
// once under every index of its relation, and nothing else: every bucket
// sits where a probe for its hash ends, each visible entry is in the bucket
// of its index hash, no bucket is empty, and the buckets hold as many
// entries as the visible entries have indexes.
func (p *entryPool) checkBuckets(tables []*PredInfo) error {
	if err := openaddr.Check(&p.tabs.buckets, func(b *bucket) bucketKey { return bucketKey(b.h) },
		func(b *bucket) string { return fmt.Sprintf("bucket %016x of %d entries", b.h, len(b.ents)) }); err != nil {
		return err
	}
	want := 0
	for e := range p.tabs.tuples.All {
		if !e.visible {
			continue
		}
		info := tables[e.table]
		for i := range info.indexes {
			if ix := &info.indexes[i]; !slices.Contains(p.lookup(p.indexHash(ix, e.Tuple)), e) {
				return fmt.Errorf("%v is visible but not in its bucket of index %s(%s)", e.Tuple, info.Name, ix.id)
			}
		}
		want += len(info.indexes)
	}
	held := 0
	for b := range p.tabs.buckets.All {
		if len(b.ents) == 0 {
			return fmt.Errorf("bucket %016x is empty", b.h)
		}
		held += len(b.ents)
	}
	if held != want {
		return fmt.Errorf("the buckets hold %d entries, the visible entries' indexes %d", held, want)
	}
	return nil
}

// checkCounts reports whether every table's counts are its visible entries
// and its tombstones, the hidden derivation-free ones, as a walk of the pool
// finds them.
func (p *entryPool) checkCounts() error {
	want := make([]tableCount, len(p.counts))
	for e := range p.tabs.tuples.All {
		switch {
		case e.visible:
			want[e.table].visible++
		case len(e.Rows) == 0:
			want[e.table].dead++
		}
	}
	if !slices.Equal(p.counts, want) {
		return fmt.Errorf("table counts %v, a walk of the pool finds %v", p.counts, want)
	}
	return nil
}

// FromRewrite returns the native form of a node that runs the Algorithm 1
// provenance rewrite (ndlog.ProvenanceRewrite) with provenance off, where
// plain NDlog rules maintain prov and ruleExec as relations. The result is a
// node of the same program that holds rw's visible tuples except those two
// relations, and whose provenance store is loaded from them through the
// store's write surface. WriteStates renders it as it renders a native
// reference-mode node of the original program, so DiffStates compares the
// rewrite with the engine's provenance hooks row for row. The result is a
// view for rendering, never evaluated: its entries are shown without rows,
// and its store holds vertices of its own, carved by Store.Vertex.
func FromRewrite(rw *Node) *Node {
	var labels []string // the rows name the original program's rules
	widest := 0
	for _, r := range rw.Tuples("ruleExec") {
		widest = max(widest, len(r.Args[3].AsList()))
		if label := r.Args[2].AsStr(); !slices.Contains(labels, label) {
			labels = append(labels, label)
		}
	}
	n := NewNode(rw.ID, rw.Prog, ProvReference, nil)
	n.Store = provenance.NewStore(rw.ID, &provenance.Rules{Labels: labels, MaxInputs: widest})
	byVID := map[types.ID]types.Tuple{}
	for _, info := range rw.Prog.Preds() {
		if info.Name == "prov" || info.Name == "ruleExec" {
			continue
		}
		for _, t := range rw.Tuples(info.Name) {
			n.pool.setVisible(info, n.pool.getOrCreate(info, t), true)
			byVID[t.VID()] = t
		}
	}
	for _, p := range rw.Tuples("prov") { // prov(@Loc, VID, RID, RLoc)
		vid := p.Args[1].AsID()
		n.Store.AddProv(n.Store.Vertex(vid, byVID[vid]), p.Args[2].AsID(), p.Args[3].AsNode())
	}
	for _, r := range rw.Tuples("ruleExec") { // ruleExec(@RLoc, RID, R, VIDList)
		list := r.Args[3].AsList()
		inputs := make([]*provenance.Vertex, len(list))
		for i, v := range list {
			inputs[i] = n.Store.Vertex(v.AsID(), byVID[v.AsID()])
		}
		n.Store.AddRuleExec(r.Args[1].AsID(), slices.Index(labels, r.Args[2].AsStr()), inputs)
	}
	return n
}
