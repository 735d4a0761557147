package main

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// Oracles: every expected value below is computed by the harness from the
// generated inputs alone (topo.Links, the lookup list), never read back from
// the engine. They run outside the timed region.

const unreachable = int64(1) << 60

// bestCosts returns what MINCOST and PATHVECTOR must converge to: want[s][d]
// is the cheapest path cost from s to d over topo.Links (Floyd–Warshall).
// MINCOST also derives a node's cost to itself, through a link and back, so
// with roundTrips the diagonal is the cheapest such round trip; PATHVECTOR
// refuses paths that revisit a node, so without it the diagonal is empty.
func bestCosts(topo *topology.Topology, roundTrips bool) [][]int64 {
	n := topo.N
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = unreachable
			}
		}
	}
	for _, l := range topo.Links {
		if l.Cost < d[l.U][l.V] {
			d[l.U][l.V], d[l.V][l.U] = l.Cost, l.Cost
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if via := d[i][k] + d[k][j]; via < d[i][j] {
					d[i][j] = via
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i][i] = unreachable
	}
	for _, l := range topo.Links {
		if !roundTrips {
			break
		}
		if 2*l.Cost < d[l.U][l.U] {
			d[l.U][l.U] = 2 * l.Cost
		}
		if 2*l.Cost < d[l.V][l.V] {
			d[l.V][l.V] = 2 * l.Cost
		}
	}
	return d
}

// checkBestCosts verifies a converged set of bestPathCost(@S,D,C) or
// bestPath(@S,D,C,P) tuples against want: one tuple per reachable pair, each
// with the oracle's cost, and (for bestPath) a path that is a real walk over
// the topology's links from S to D whose link costs add up to C.
func checkBestCosts(topo *topology.Topology, want [][]int64, got []types.Tuple) error {
	linkCost := map[[2]types.NodeID]int64{}
	for _, l := range topo.Links {
		linkCost[[2]types.NodeID{l.U, l.V}] = l.Cost
		linkCost[[2]types.NodeID{l.V, l.U}] = l.Cost
	}
	seen := map[[2]types.NodeID]bool{}
	for _, t := range got {
		if len(t.Args) < 3 {
			return fmt.Errorf("oracle: malformed tuple %s", t)
		}
		s, d, c := t.Args[0].AsNode(), t.Args[1].AsNode(), t.Args[2].AsInt()
		if s < 0 || int(s) >= topo.N || d < 0 || int(d) >= topo.N {
			return fmt.Errorf("oracle: %s names a node outside the topology", t)
		}
		if seen[[2]types.NodeID{s, d}] {
			return fmt.Errorf("oracle: two best costs for %s->%s", s, d)
		}
		seen[[2]types.NodeID{s, d}] = true
		if c != want[s][d] {
			return fmt.Errorf("oracle: %s has cost %d, shortest path is %d", t, c, want[s][d])
		}
		if len(t.Args) < 4 {
			continue
		}
		path := t.Args[3].AsList()
		if len(path) < 2 || path[0].AsNode() != s || path[len(path)-1].AsNode() != d {
			return fmt.Errorf("oracle: %s path does not run from %s to %s", t, s, d)
		}
		var sum int64
		for i := 1; i < len(path); i++ {
			w, ok := linkCost[[2]types.NodeID{path[i-1].AsNode(), path[i].AsNode()}]
			if !ok {
				return fmt.Errorf("oracle: %s path uses a link the topology does not have", t)
			}
			sum += w
		}
		if sum != c {
			return fmt.Errorf("oracle: %s path costs %d", t, sum)
		}
	}
	reachable := 0
	for s := range want {
		for d := range want[s] {
			if want[s][d] < unreachable {
				reachable++
			}
		}
	}
	if len(got) != reachable {
		return fmt.Errorf("oracle: %d best-cost tuples, %d reachable pairs", len(got), reachable)
	}
	return nil
}

// tuplesOf gathers a predicate's visible tuples across engine nodes.
func tuplesOf(nodes []*engine.Node, pred string) []types.Tuple {
	var out []types.Tuple
	for _, n := range nodes {
		out = append(out, n.Tuples(pred)...)
	}
	return out
}

// checkChord verifies a converged CHORD overlay: every node's succ is the
// clockwise-nearest identifier among its own peer/alive set (its topology
// neighbours), and every lookup produced exactly one lookupRes row.
func checkChord(topo *topology.Topology, nodes []*engine.Node, lookups int) error {
	adj := topo.Adjacency()
	for n := 0; n < topo.N; n++ {
		id := types.NodeID(n)
		best, bestDist := types.NodeID(-1), int64(apps.ChordSpace)+1
		for _, nb := range adj[id] {
			dist := (apps.ChordID(nb.Node) - apps.ChordID(id) + apps.ChordSpace) % apps.ChordSpace
			if dist == 0 {
				dist = apps.ChordSpace
			}
			if dist < bestDist {
				best, bestDist = nb.Node, dist
			}
		}
		succ := nodes[n].Tuples("succ")
		if best < 0 {
			if len(succ) != 0 {
				return fmt.Errorf("oracle: isolated node %s has a successor", id)
			}
			continue
		}
		if len(succ) != 1 || succ[0].Args[1].AsNode() != best {
			return fmt.Errorf("oracle: node %s succ = %v, clockwise-nearest peer is %s", id, succ, best)
		}
	}
	if got := len(tuplesOf(nodes, "lookupRes")); got != lookups {
		return fmt.Errorf("oracle: %d lookupRes rows for %d lookups", got, lookups)
	}
	return nil
}

// derivationCounter counts a tuple vertex's derivation trees by walking the
// distributed provenance graph directly through each node's store: a base
// row counts 1, a rule execution the product of its inputs, a vertex the sum
// over its prov rows. Evaluating a POLYNOMIAL query result in the counting
// semiring must give the same number.
type derivationCounter struct {
	stores []*provenance.Store
	memo   map[vertex]int64
}

type vertex struct {
	vid types.ID
	loc types.NodeID
}

func (dc *derivationCounter) count(vid types.ID, loc types.NodeID) int64 {
	v := vertex{vid, loc}
	if n, ok := dc.memo[v]; ok {
		return n
	}
	var total int64
	for _, d := range dc.stores[loc].Derivations(vid) {
		if d.RID.IsZero() {
			total++
			continue
		}
		re, ok := dc.stores[d.RLoc].RuleExecOf(d.RID)
		if !ok {
			continue
		}
		prod := int64(1)
		for _, in := range re.VIDList {
			prod *= dc.count(in, d.RLoc)
		}
		total += prod
	}
	dc.memo[v] = total
	return total
}

// checkPolynomial verifies one POLYNOMIAL query result: it decodes, its
// counting-semiring value equals the harness's own derivation count, and
// every base literal is a link tuple of the topology.
func checkPolynomial(payload []byte, vid types.ID, loc types.NodeID, dc *derivationCounter, linkVIDs map[types.ID]bool) error {
	expr, err := provquery.DecodePolynomial(payload)
	if err != nil {
		return fmt.Errorf("oracle: result does not decode: %w", err)
	}
	if got, want := algebra.Eval(expr, algebra.Counting()), dc.count(vid, loc); got != want || want == 0 {
		return fmt.Errorf("oracle: polynomial counts %d derivations, the provenance graph has %d", got, want)
	}
	for _, b := range expr.BaseSet() {
		if !linkVIDs[b.VID] {
			return fmt.Errorf("oracle: base literal %s is not a link of the topology", b.Label)
		}
	}
	return nil
}

// linkVIDSet is the vertex identifiers of every link tuple the topology
// seeds, both directions.
func linkVIDSet(topo *topology.Topology) map[types.ID]bool {
	set := map[types.ID]bool{}
	for _, l := range topo.Links {
		set[apps.LinkTuple(l.U, l.V, l.Cost).VID()] = true
		set[apps.LinkTuple(l.V, l.U, l.Cost).VID()] = true
	}
	return set
}
