package engine

// This file is the measurement half of the engine's PLANNER layer (see
// planner.go for the cost model): live cardinality and selectivity counters
// maintained allocation-free inside the existing hot paths, and the
// quiescence-time fold that turns them into the snapshot the cost model
// reads.
//
// Three counter families exist, none adding an allocation or a map access
// to the hot path:
//
//   - Per-relation cardinality and churn: Relation.visible (already the
//     O(1) Len) and Relation.churn, both bumped inside setVisible.
//   - Per-index distinct keys: len(index.buckets), maintained by the
//     ordinary index add/remove that setVisible drives.
//   - Join-probe fan-out tallies: joinStat{probes, hits} per compiled join
//     step (Node.joinStats, indexed by joinID — an array bump per probe).
//
// The per-joinID tallies are folded into the node-level accumulator
// (Node.fanAcc, keyed by the probed predicate and index — a key that stays
// meaningful across plan swaps, unlike the joinID) only at quiescence, when
// the planner runs.

// joinStat tallies one compiled join step's probes and returned candidates:
// hits/probes is the step's measured fan-out.
type joinStat struct {
	probes int64
	hits   int64
}

// condStat tallies one body condition's evaluations and passes: passes/evals
// is the condition's measured selectivity, replacing the planner's flat 0.5
// credit once enough evaluations accumulate (condMinEvals). Slot-indexed by
// CompiledRule.condBase + planStep.condID — a keying that survives plan
// swaps, because rebuilt plans re-derive the same term numbering from the
// rule source.
type condStat struct {
	evals  int64
	passes int64
}

// statKey identifies a probe target independently of any particular plan:
// the probed predicate and the indexID of the probed positions. Measured
// fan-out keyed this way survives re-plans — a new plan probing the same
// (predicate, positions) inherits the old plan's measurements.
type statKey struct {
	pred string
	idx  string
}

// statsSnapshot is the planner's read-only view of the node's statistics at
// one quiescence point.
type statsSnapshot struct {
	card   map[string]int64     // predicate -> visible tuples
	churn  map[string]int64     // predicate -> total visibility transitions
	fanout map[statKey]joinStat // accumulated measured probe fan-out
}

// foldJoinStats drains the per-joinID probe tallies into the node-level
// accumulator under the current joinID -> statKey mapping, zeroing the
// counters. Must run before the mapping is rebuilt (a re-plan swap renumbers
// what each joinID probes) and only at quiescence.
func (n *Node) foldJoinStats() {
	// A node pays for the mapping and the accumulator only once it folds:
	// small nodes never reach the re-plan drift gate, and non-planable
	// programs fold only under ExplainPlans.
	if n.joinKeys == nil {
		n.rebuildJoinKeys()
	}
	if n.fanAcc == nil {
		n.fanAcc = make(map[statKey]joinStat)
	}
	for id := range n.joinStats {
		js := &n.joinStats[id]
		if js.probes == 0 {
			continue
		}
		key := n.joinKeys[id]
		if key.pred != "" {
			acc := n.fanAcc[key]
			acc.probes += js.probes
			acc.hits += js.hits
			n.fanAcc[key] = acc
		}
		*js = joinStat{}
	}
	for id := range n.condStats {
		cs := &n.condStats[id]
		if cs.evals == 0 {
			continue
		}
		n.condAcc[id].evals += cs.evals
		n.condAcc[id].passes += cs.passes
		*cs = condStat{}
	}
}

// statsSnapshot folds pending tallies and assembles the planner's view.
func (n *Node) snapshotStats() *statsSnapshot {
	n.foldJoinStats()
	snap := &statsSnapshot{
		card:   make(map[string]int64),
		churn:  make(map[string]int64),
		fanout: n.fanAcc,
	}
	for _, info := range n.Prog.Preds() {
		if info.Event {
			continue
		}
		rel := &n.tablesByID[info.tableID]
		snap.card[info.Name] = int64(rel.Len())
		snap.churn[info.Name] = rel.churn
	}
	return snap
}

// distinctKeys estimates the number of distinct values the predicate holds
// over the given positions: the live bucket count when an index exists, a
// one-off scan (cold path, quiescence only) otherwise.
func (n *Node) distinctKeys(pred string, positions []int) int64 {
	rel := n.lookup(pred)
	if rel == nil {
		return 0
	}
	if idx := rel.indexByID(indexID(positions)); idx != nil {
		return int64(len(idx.buckets))
	}
	seen := make(map[uint64]struct{})
	var buf []byte
	for e := range rel.all {
		if !e.visible {
			continue
		}
		buf = appendIndexKey(buf[:0], e.Tuple, positions)
		seen[hashIndexKey(buf)] = struct{}{}
	}
	return int64(len(seen))
}
