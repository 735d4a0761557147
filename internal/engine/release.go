package engine

// This file is the retraction protocol's second phase on a node and across a
// cluster (see ARCHITECTURE.md "Deletion semantics"): staging suspects and
// aggregate groups while a deletion wave runs, and releasing them — in
// stratified waves, at the driver's global quiescence point — once it has
// quiesced.

// stageEntry registers an over-deleted entry with surviving alternate
// derivations for the re-derivation phase.
func (n *Node) stageEntry(e *entry) {
	if e.staged {
		return
	}
	e.staged = true
	n.stagedEnts = append(n.stagedEnts, e)
}

// stratumOf returns the release stratum of a predicate (0 for predicates
// the program never mentions; those can only be staged via relayed meta
// rows, which are never recursive in practice).
func (n *Node) stratumOf(pred string) int {
	if info := n.Prog.Pred(pred); info != nil {
		return info.Stratum
	}
	return 0
}

// minStagedStratum returns the lowest occupied release stratum, or -1 when
// nothing is staged.
func (n *Node) minStagedStratum() int {
	min := -1
	for _, e := range n.stagedEnts {
		if s := n.stratumOf(e.Tuple.Pred); min < 0 || s < min {
			min = s
		}
	}
	for i := range n.stagedGroups {
		if s := n.stagedGroups[i].rule.headStratum; min < 0 || s < min {
			min = s
		}
	}
	return min
}

// releaseStratum moves the given stratum's staged re-derivations into
// actionable work: suspects whose alternate derivations survived the
// deletion wave are enqueued as rederive deltas, and staged aggregate
// groups re-refresh, emitting their deferred winner. Items in other strata
// stay staged. It reports whether any work was produced (the driver then
// runs the node to quiescence again). Staging is validated here, not at
// staging time — a suspect re-shown by a genuine insert, or a group whose
// output was already rebuilt, releases as a no-op — so release order across
// nodes cannot affect the fixpoint (the stratified wave order in
// Node.ReleaseStaged is a round-trip optimization, not a correctness
// requirement; engine/dred_test.go proves order independence).
//
// limit, when non-nil, caps how many staged items this call may release —
// the lever dred_test.go's randomized release uses as the reference side of
// the confluence fence; nil (every driver) releases the whole stratum as one
// batch.
func (n *Node) releaseStratum(stratum int, limit *int) bool {
	any := false
	ents := n.stagedEnts
	kept := ents[:0]
	for _, e := range ents {
		if limit != nil && *limit == 0 || n.stratumOf(e.Tuple.Pred) != stratum {
			kept = append(kept, e)
			continue
		}
		if limit != nil {
			*limit--
		}
		e.staged = false
		if !e.visible && len(e.Rows) > 0 {
			n.enqueue(localDelta{tuple: e.Tuple, sign: rederive})
			any = true
		}
	}
	for i := len(kept); i < len(ents); i++ {
		ents[i] = nil
	}
	n.stagedEnts = kept

	groups := n.stagedGroups
	keptG := groups[:0]
	for i := range groups {
		sg := groups[i]
		if limit != nil && *limit == 0 || sg.rule.headStratum != stratum {
			keptG = append(keptG, sg)
			continue
		}
		if limit != nil {
			*limit--
		}
		sg.g.staged = false
		for _, em := range sg.g.refresh(n, sg.rule, nil) {
			n.emitAggChange(sg.rule, em)
			any = true
		}
	}
	for i := len(keptG); i < len(groups); i++ {
		groups[i] = stagedGroup{}
	}
	n.stagedGroups = keptG
	return any
}

// ReleaseStaged begins the retraction protocol's re-derivation phase on
// this node: suspects over-deleted with surviving alternate derivations are
// enqueued for re-insertion and staged aggregate groups emit their deferred
// winner. It reports whether any work was produced (never, once the node
// has failed); the caller then runs the node (Flush) — and the whole cluster
// — to quiescence again, repeating until no node stages further work.
//
// Release proceeds in stratified waves: each call releases the lowest
// occupied SCC stratum (PredInfo.Stratum) as one batch of rederive deltas,
// so a suspect's supports re-derive before the suspects that consume them
// validate, and the driver pays one release/flush round trip per stratum
// instead of one per suspect. Strata that release only
// stale stagings (no-ops under release-time validation) are consumed within
// the same call, so a true return always carries actionable work and a
// false return means nothing is staged. The wave order is purely a
// round-trip optimization — release order cannot affect the fixpoint
// (engine/dred_test.go proves order independence).
//
// Correctness requires the cluster-wide deletion wave to have quiesced
// first: releasing while delete messages are still in flight re-creates the
// race between deletion and re-derivation that diverges on cyclic
// derivations (count-to-infinity). Every driver therefore reaches this only
// through ReleasePass, at its global quiescence point — the simulator's
// empty event queue, the scheduler's drained rounds, the deployment's
// retired work accounting, or Settle under a synchronous transport.
func (n *Node) ReleaseStaged() bool {
	if n.Err != nil {
		return false
	}
	for {
		stratum := n.minStagedStratum()
		if stratum < 0 {
			return false
		}
		if n.releaseStratum(stratum, nil) {
			return true
		}
	}
}

// ReleasePass is the retraction protocol's phase 2, stated once for every
// driver. The caller has established global quiescence (see ReleaseStaged
// for why that is required). each must apply the function it is given to
// every node of the cluster, on the goroutine that owns that node — it may
// run the calls concurrently — and report whether any call returned true.
// The pass releases every node's staged work and reports whether any node
// had some; the driver then runs the cluster to quiescence again and
// repeats. Only a pass that released nothing is the true fixpoint.
//
// With flush set, a node that released runs to local quiescence before its
// call returns (Settle, the simulator's OnIdle hook, deploy.WaitFixpoint).
// The Scheduler passes false: released work stays queued for its next round,
// where it runs on the worker pool like any other delta.
//
// The functions handed to each capture nothing, so a pass allocates nothing
// (the scheduler's delivery alloc fence runs through here).
func ReleasePass(each func(func(*Node) bool) bool, flush bool) bool {
	release := (*Node).ReleaseStaged
	if flush {
		release = releaseAndFlush
	}
	return each(release)
}

func releaseAndFlush(n *Node) bool {
	if !n.ReleaseStaged() {
		return false
	}
	n.Flush()
	return true
}

// Settle drives the retraction protocol's release loop across a set of
// nodes connected by a synchronous transport (one whose Send delivers — and
// cascades — before returning, like the test harnesses): at entry the
// deletion wave has globally quiesced, so staged work is released and run,
// repeatedly, until no node stages anything further.
func Settle(nodes ...*Node) {
	each := func(fn func(*Node) bool) bool { return anyNode(nodes, fn) }
	for ReleasePass(each, true) {
	}
}

// anyNode applies fn to every node, in order, and reports whether any call
// returned true — the each of ReleasePass for a driver that owns all its
// nodes on one goroutine.
func anyNode(nodes []*Node, fn func(*Node) bool) bool {
	any := false
	for _, n := range nodes {
		if fn(n) {
			any = true
		}
	}
	return any
}
