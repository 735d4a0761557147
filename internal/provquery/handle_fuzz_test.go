package provquery_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provquery"
	"repro/internal/topology"
	"repro/internal/types"
)

// FuzzHandleMsg hands every message DecodeMsg accepts to the query processor
// of a converged Figure 3 MINCOST cluster — at a fuzzed node, as sent by a
// fuzzed member (a deployed node authenticates the sender) — and runs the
// simulator to quiescence. Property: no panic. A KProvQuery's Ret, say, is
// attacker-supplied: the simulator drops a send to a destination outside
// the cluster, as a deployed node does (deploy.NodeProc.send).
func FuzzHandleMsg(f *testing.F) {
	c, err := core.NewCluster(core.Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.RunToFixpoint(); err != nil {
		f.Fatal(err)
	}
	n := len(c.Hosts)

	// A derived tuple, one of its rule executions, and the id of a query
	// about it that has already finished.
	var ref core.TupleRef
	var rule provquery.Msg
	for _, r := range c.TuplesOf("bestPathCost") {
		for _, d := range c.Hosts[r.Loc].Engine.Store.Derivations(r.VID) {
			if !d.RID.IsZero() {
				ref, rule = r, provquery.Msg{Kind: provquery.KRuleQuery, RID: d.RID, VID: r.VID, Ret: r.Loc}
			}
		}
	}
	if ref.VID.IsZero() {
		f.Fatal("no derived bestPathCost tuple")
	}
	done := c.Hosts[0].Query.Query(ref.VID, ref.Loc, func([]byte) {})
	c.Sim.Run()
	rule.QID = types.HashString("rq")

	foreign := types.HashString("foreign")
	for _, m := range []provquery.Msg{
		{Kind: provquery.KProvQuery, QID: types.HashString("q"), VID: ref.VID, Ret: 0},
		{Kind: provquery.KProvQuery, QID: types.HashString("q"), VID: ref.VID, Ret: 0x30303030},
		rule,
		{Kind: provquery.KRuleQuery, QID: types.HashString("rq"), RID: foreign, VID: ref.VID, Ret: 1},
		{Kind: provquery.KProvResult, QID: foreign, VID: ref.VID, Ret: 0, Payload: []byte{1, 2}},
		{Kind: provquery.KProvResult, QID: done, VID: ref.VID, Ret: 0, Payload: []byte{}},
		{Kind: provquery.KRuleResult, QID: done, RID: rule.RID, Ret: 0, Payload: []byte{0}},
		{Kind: provquery.KInvalidate, VID: ref.VID},
	} {
		f.Add(m.Encode(nil), uint8(ref.Loc), uint8(1))
	}
	f.Fuzz(func(t *testing.T, b []byte, at, from uint8) {
		m, err := provquery.DecodeMsg(b)
		if err != nil {
			return
		}
		c.Hosts[int(at)%n].Query.Handle(types.NodeID(int(from)%n), m)
		c.Sim.Run()
	})
}
