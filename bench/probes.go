package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// probeInputs bounds how many tuples and rule executions a probe harvests;
// probeCalls is how many calls each probe times (the smoke tests time fewer).
const probeInputs = 4096

var probeCalls = 200000

// sink keeps the compiler from discarding the probed calls.
var sink int

// perCall times fn over probeCalls calls, cycling through n inputs, and
// returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for c := 0; c < probeCalls; c++ {
		fn(c % n)
	}
	return float64(time.Since(t0)) / float64(probeCalls)
}

// probes fills the *_ns metrics: each times one exported function of a
// layer in a loop over inputs harvested from the workload's last converged
// cluster, after the timed passes.
func probes(v map[string]float64, nodes []*engine.Node, topo *topology.Topology, onSimnet bool) {
	type located struct {
		store *provenance.Store
		vid   types.ID
	}
	var tuples []types.Tuple
	var verts []located
	type execution struct {
		provenance.RuleExecEntry
		store *provenance.Store
		loc   types.NodeID
	}
	var execs []execution
	// Round-robin over nodes so the sample is not one node's state.
	per := probeInputs/len(nodes) + 1
	for _, n := range nodes {
		got := 0
		for _, p := range n.Prog.Preds() {
			for _, t := range n.Tuples(p.Name) {
				if got == per {
					break
				}
				tuples = append(tuples, t)
				verts = append(verts, located{n.Store, t.VID()})
				got++
			}
		}
		got = 0
		n.Store.ForEachRuleExec(func(re provenance.RuleExecEntry) {
			if got < per {
				execs = append(execs, execution{re, n.Store, n.ID})
				got++
			}
		})
	}

	var buf []byte
	v["types.vid_ns"] = perCall(len(tuples), func(i int) {
		var id types.ID
		id, buf = tuples[i].VIDBuf(buf)
		sink += int(id[0])
	})
	v["types.ruleexecid_ns"] = perCall(len(execs), func(i int) {
		var id types.ID
		id, buf = types.RuleExecIDBuf(execs[i].Rule, execs[i].loc, execs[i].VIDList, buf)
		sink += int(id[0])
	})
	v["types.appendkey_ns"] = perCall(len(tuples), func(i int) {
		buf = tuples[i].AppendArgsKey(buf[:0])
		sink += len(buf)
	})
	v["types.tuple_encode_ns"] = perCall(len(tuples), func(i int) {
		buf = tuples[i].Encode(buf[:0])
		sink += len(buf)
	})
	encoded := make([][]byte, len(tuples))
	msgs := make([]*engine.Message, len(tuples))
	encodedMsgs := make([][]byte, len(tuples))
	for i, t := range tuples {
		encoded[i] = t.Encode(nil)
		msgs[i] = &engine.Message{Tuple: t, Delta: engine.Insert, HasRef: true, RID: verts[i].vid, RLoc: t.Loc()}
		encodedMsgs[i] = msgs[i].Encode(nil)
	}
	v["types.tuple_decode_ns"] = perCall(len(tuples), func(i int) {
		_, n, _ := types.DecodeTuple(encoded[i])
		sink += n
	})
	v["engine.msg_encode_ns"] = perCall(len(msgs), func(i int) {
		buf = msgs[i].Encode(buf[:0])
		sink += len(buf)
	})
	v["engine.msg_decode_ns"] = perCall(len(msgs), func(i int) {
		m, _ := engine.DecodeMessage(encodedMsgs[i])
		if m != nil {
			sink += int(m.Delta)
		}
	})
	v["provenance.derivations_ns"] = perCall(len(verts), func(i int) {
		sink += len(verts[i].store.Derivations(verts[i].vid))
	})
	v["provenance.ruleexecof_ns"] = perCall(len(execs), func(i int) {
		re, _ := execs[i].store.RuleExecOf(execs[i].RID)
		sink += re.Count
	})
	if onSimnet {
		v["simnet.dispatch_ns"] = dispatchNs(topo)
	}
}

// dispatchNs times the simulator substrate alone: sends between adjacent
// nodes of the workload's topology, delivered to handlers that do nothing.
func dispatchNs(topo *topology.Topology) float64 {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, topo.N)
	topo.Install(nw)
	for i := 0; i < topo.N; i++ {
		nw.Register(types.NodeID(i), simnet.HandlerFunc(func(types.NodeID, any, int) {}))
	}
	payload := &engine.Message{}
	t0 := time.Now()
	for c := 0; c < probeCalls; c++ {
		l := topo.Links[c%len(topo.Links)]
		nw.Send(l.U, l.V, payload, 64)
		if c%64 == 63 {
			sim.Run()
		}
	}
	sim.Run()
	if sim.Steps() == 0 {
		return 0
	}
	return float64(time.Since(t0)) / float64(sim.Steps())
}
