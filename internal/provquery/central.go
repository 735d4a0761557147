package provquery

import (
	"repro/internal/algebra"
	"repro/internal/types"
)

// CentralGraph is the query-side view of *centralized* provenance (§3
// Distribution): every prov and ruleExec row has been relayed to one
// server, so a query is an in-memory walk with no network traversal —
// Polynomial, folded in the query's semiring. It is constructed from the
// server's materialized prov and ruleExec relations, and is the reference
// the distributed traversal is tested against.
type CentralGraph struct {
	prov     map[types.ID][]centralDeriv
	locs     map[types.ID]types.NodeID
	ruleExec map[types.ID]centralExec
}

type centralDeriv struct {
	rid  types.ID
	rloc types.NodeID
}

type centralExec struct {
	rule   string
	inputs []types.ID
}

// NewCentralGraph builds the graph from prov(@Loc,VID,RID,RLoc) and
// ruleExec(@RLoc,RID,R,List) rows as stored at the central server.
func NewCentralGraph(provRows, ruleExecRows []types.Tuple) *CentralGraph {
	g := &CentralGraph{
		prov:     map[types.ID][]centralDeriv{},
		locs:     map[types.ID]types.NodeID{},
		ruleExec: map[types.ID]centralExec{},
	}
	for _, r := range provRows {
		if len(r.Args) != 4 {
			continue
		}
		vid := r.Args[1].AsID()
		g.prov[vid] = append(g.prov[vid], centralDeriv{
			rid:  r.Args[2].AsID(),
			rloc: r.Args[3].AsNode(),
		})
		g.locs[vid] = r.Args[0].AsNode()
	}
	for _, r := range ruleExecRows {
		if len(r.Args) != 4 {
			continue
		}
		var inputs []types.ID
		for _, v := range r.Args[3].AsList() {
			inputs = append(inputs, v.AsID())
		}
		g.ruleExec[r.Args[1].AsID()] = centralExec{rule: r.Args[2].AsStr(), inputs: inputs}
	}
	return g
}

// NumVertices reports the number of tuple vertices known to the server.
func (g *CentralGraph) NumVertices() int { return len(g.prov) }

// Polynomial reconstructs the provenance polynomial of a tuple vertex; the
// #DERIVATIONS, NODESET, DERIVABILITY and BDD answers are algebra.Eval of it.
// Base labels are the VIDs' short hashes (the server does not hold tuple
// contents, only the graph). A vertex already on the path from the root
// contributes Zero, so on cyclic provenance the result sums the cycle-free
// proofs.
func (g *CentralGraph) Polynomial(vid types.ID) *algebra.Expr {
	return g.polynomial(vid, map[types.ID]bool{})
}

func (g *CentralGraph) polynomial(vid types.ID, onPath map[types.ID]bool) *algebra.Expr {
	derivs := g.prov[vid]
	if len(derivs) == 0 || onPath[vid] {
		return algebra.Zero()
	}
	onPath[vid] = true
	defer delete(onPath, vid)
	var kids []*algebra.Expr
	for _, d := range derivs {
		if d.rid.IsZero() {
			kids = append(kids, algebra.NewBase(algebra.Base{
				VID: vid, Label: vid.Short(), Node: g.locs[vid],
			}))
			continue
		}
		re, ok := g.ruleExec[d.rid]
		if !ok {
			continue
		}
		var inputs []*algebra.Expr
		for _, in := range re.inputs {
			inputs = append(inputs, g.polynomial(in, onPath))
		}
		kids = append(kids, algebra.Prod(re.rule+"@"+d.rloc.String(), inputs...))
	}
	return algebra.Sum("@"+g.locs[vid].String(), kids...)
}
