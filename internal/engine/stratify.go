package engine

import "sort"

// This file computes the program's predicate dependency structure at
// compile time. The retraction discipline (see apply.go, release.go and
// ARCHITECTURE.md "Deletion semantics") needs to know which predicates can
// participate in cyclic derivations: for those, exact derivation counting
// is unsound — a tuple can keep a positive support count whose derivations
// bottom out only in each other ("phantom support") — so deletes follow the
// DRed-style over-delete/re-derive protocol instead. Non-recursive
// predicates keep the cheap exact-counting semantics, which is sound for
// them and avoids the transient churn of over-deletion.
//
// A predicate is recursive when it lies on a cycle of the head→body
// dependency graph (a strongly connected component with more than one
// member, or a self-loop). Aggregate rules contribute the same edges as
// plain rules: MINCOST's sp2/sp3 put pathCost and bestPathCost in one SCC,
// which is exactly the count-to-infinity loop the retraction protocol must
// break.
//
// The SCC pass also yields the release stratification: Tarjan identifies
// components in reverse topological order of the condensation, and with
// edges pointing head→body a component is popped only after every
// component it depends on (its bodies) has been popped. The component
// number is therefore a stratum: releasing staged retraction work in
// ascending stratum order re-derives a suspect's supports before any
// suspect that consumes them (Node.ReleaseStaged).

// markRecursive computes the recursive flag and release stratum of every
// predicate (and the headRecursive/headStratum of every rule) via Tarjan's
// SCC algorithm over the head→body predicate graph. Called once at the end
// of Compile.
func (p *Program) markRecursive() {
	// Dense predicate numbering for the walk (events included: a cycle
	// through an event predicate still re-derives stored tuples). The
	// numbering iterates names in sorted order so component numbers — and
	// with them the release strata — are a pure function of the program,
	// not of map iteration order.
	names := make([]string, 0, len(p.preds))
	for name := range p.preds {
		names = append(names, name)
	}
	sort.Strings(names)
	idx := make(map[string]int, len(names))
	for i, name := range names {
		idx[name] = i
	}
	adj := make([][]int, len(names))
	selfLoop := make([]bool, len(names))
	for _, cr := range p.Rules {
		h := idx[cr.HeadPred]
		for _, a := range cr.atoms {
			b := idx[a.pred]
			if b == h {
				selfLoop[h] = true
			}
			adj[h] = append(adj[h], b)
		}
	}

	// Iterative Tarjan (the recursion depth is bounded only by program
	// size, but generated programs can chain hundreds of rules).
	const unvisited = -1
	index := make([]int, len(names))
	low := make([]int, len(names))
	comp := make([]int, len(names))
	onStack := make([]bool, len(names))
	for i := range index {
		index[i], comp[i] = unvisited, unvisited
	}
	var stack, compSize []int
	next := 0
	type frame struct{ v, ei int }
	var frames []frame
	for root := range adj {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei == 0 {
				index[v], low[v] = next, next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				c := len(compSize)
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = c
					size++
					if w == v {
						break
					}
				}
				compSize = append(compSize, size)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pf := &frames[len(frames)-1]
				if low[v] < low[pf.v] {
					low[pf.v] = low[v]
				}
			}
		}
	}

	for name, info := range p.preds {
		i := idx[name]
		info.Recursive = selfLoop[i] || compSize[comp[i]] > 1
		info.Stratum = comp[i]
	}
	for _, cr := range p.Rules {
		hi := p.preds[cr.HeadPred]
		cr.headRecursive = hi.Recursive
		cr.headStratum = hi.Stratum
	}
}
