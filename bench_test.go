// Package repro holds the go-test profiling benchmarks: one per path
// PERFORMANCE.md names as a profiling target — the engine's delta loop
// (BenchmarkEngineFixpoint), the distributed query path
// (BenchmarkQueryBFS), the simulator's message dispatch
// (BenchmarkSimnetDispatch), the cost-based planner
// (BenchmarkPlannerAdversarial) and the deletion path
// (BenchmarkDRedChurn). They are tools for profiling one path, not a
// record: performance claims come from `go run ./bench`, and the paper's
// figures are regenerated by `go run ./cmd/exspan-bench` and pinned by
// internal/experiments' golden test.
package repro

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// BenchmarkEngineFixpoint measures raw PSN evaluation: one MINCOST run to
// fixpoint on a 100-node transit-stub network (reference provenance).
func BenchmarkEngineFixpoint(b *testing.B) {
	topo := topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RunToFixpoint(); err != nil {
			b.Fatal(err)
		}
		var deltas int64
		for _, h := range c.Hosts {
			deltas += h.Engine.DeltasProcessed()
		}
		b.ReportMetric(float64(deltas), "deltas/op")
	}
}

// BenchmarkQueryBFS measures end-to-end distributed polynomial queries on a
// converged 100-node network.
func BenchmarkQueryBFS(b *testing.B) {
	topo := topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))
	c, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.RunToFixpoint(); err != nil {
		b.Fatal(err)
	}
	targets := c.TuplesOf("bestPathCost")
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := targets[rng.Intn(len(targets))]
		done := false
		c.Query(types.NodeID(rng.Intn(topo.N)), ref.VID, ref.Loc, func([]byte) { done = true })
		c.Sim.Run()
		if !done {
			b.Fatal("query incomplete")
		}
	}
}

// BenchmarkSimnetDispatch measures the simulator substrate in isolation:
// scheduling and delivering messages across a multi-hop topology, with no
// engine work attached. This is the per-message overhead every simulated
// run pays millions of times; it must stay allocation-free.
func BenchmarkSimnetDispatch(b *testing.B) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, 32)
	for i := 1; i < 32; i++ {
		nw.AddLink(types.NodeID(i-1), types.NodeID(i), simnet.Link{Latency: simnet.Millisecond, Bps: 1e9})
	}
	delivered := 0
	for i := 0; i < 32; i++ {
		nw.Register(types.NodeID(i), simnet.HandlerFunc(func(types.NodeID, any, int) { delivered++ }))
	}
	payload := &engine.Message{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := types.NodeID(i % 32)
		to := types.NodeID((i * 11) % 32)
		nw.Send(from, to, payload, 128)
		if i%64 == 63 {
			sim.Run()
		}
	}
	sim.Run()
	if delivered == 0 {
		b.Fatal("no messages delivered")
	}
}

// BenchmarkPlannerAdversarial measures the cost-based planner against an
// adversarial syntax order: a 3-atom rule whose body lists a 2000-row
// relation before a 2-row one sharing the same join keys. The syntax-order
// plan enumerates ~2000 candidates per event before filtering; the planner,
// fed only live cardinality statistics (no hooks), probes the selective
// relation first. The fixpoint is identical either way — only work order
// changes — so ops/sec is a pure measure of join-order quality.
func BenchmarkPlannerAdversarial(b *testing.B) {
	prog, err := engine.Compile(ndlog.MustParse(`r1 out(@X,P) :- eGo(@X), big(@X,P), sel(@X,P).`))
	if err != nil {
		b.Fatal(err)
	}
	for _, planned := range []bool{false, true} {
		name := "syntax-order"
		if planned {
			name = "planned"
		}
		b.Run(name, func(b *testing.B) {
			n := engine.NewNode(0, prog, engine.ProvNone, dropTransport{}, nil)
			if !planned {
				n.NoReplan = true
			}
			for i := 0; i < 2000; i++ {
				n.InsertBase(types.NewTuple("big", types.Node(0), types.Int(int64(i))))
			}
			for i := 0; i < 2; i++ {
				n.InsertBase(types.NewTuple("sel", types.Node(0), types.Int(int64(i))))
			}
			engine.Settle(n)
			if planned {
				// The insert phase crosses the drift gate, so Settle's idle
				// hook may already have re-planned; force once to be sure and
				// verify the chosen order probes the selective relation first.
				n.ForceReplan()
				var sb strings.Builder
				n.ExplainPlans(&sb)
				out := sb.String()
				if si, bi := strings.Index(out, "join sel"), strings.Index(out, "join big"); si < 0 || (bi >= 0 && bi < si) {
					b.Fatal("planner kept the syntax order")
				}
			}
			ev := types.NewTuple("eGo", types.Node(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.InjectEvent(ev)
			}
			b.StopTimer()
			if n.Err != nil {
				b.Fatal(n.Err)
			}
			if n.TupleCount("out") != 2 {
				b.Fatalf("out count = %d, want 2", n.TupleCount("out"))
			}
		})
	}
}

// dropTransport discards sends; the adversarial planner benchmark derives
// only node-local heads.
type dropTransport struct{}

func (dropTransport) Send(from, to types.NodeID, m *engine.Message) {}

// churnOp pairs a base tuple with its home node for delete/re-insert churn.
type churnOp struct {
	at  types.NodeID
	tup types.Tuple
}

// benchDRedChurn drives one deletion-churn workload through the scheduler:
// converge once outside the timer, then per iteration retract the churn set,
// run to fixpoint, restore it and run to fixpoint again. Each iteration ends
// at the same fixpoint it started from, so every sample does identical work.
func benchDRedChurn(b *testing.B, prog *engine.Program, nNodes int,
	setup func(*engine.Scheduler), churn []churnOp) {
	b.Helper()
	s := engine.NewScheduler(prog, engine.ProvReference, nNodes, 0, 0)
	setup(s)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range churn {
			s.DeleteBase(op.at, op.tup)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		for _, op := range churn {
			s.InsertBase(op.at, op.tup)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var deltas int64
	for n := 0; n < s.NumNodes(); n++ {
		deltas += s.Node(n).DeltasProcessed()
	}
	if deltas == 0 {
		b.Fatal("churn produced no work")
	}
	b.ReportMetric(float64(deltas)/float64(b.N), "deltas/op")
}

// BenchmarkDRedChurn measures the deletion path of the two-phase retraction
// protocol under steady churn. MINCOST retracts and restores one ring link —
// the count-to-infinity trigger, chasing re-derivations around the cycle;
// CHORD fails and rejoins one overlay node by churning its soft-state alive
// tuples, retracting successor/finger chains through it. Staged suspects and
// aggregate promotions go out in stratified per-SCC waves, one rederive batch
// per wave.
func BenchmarkDRedChurn(b *testing.B) {
	b.Run("mincost", func(b *testing.B) {
		// A unit-cost grid is the adversarial deletion workload: every
		// shortest path has equal-cost alternates, so retracting a central
		// link over-deletes many tuples that survive with another
		// derivation — each one a staged suspect the release phase must
		// validate and re-derive.
		const side = 6
		grid := &topology.Topology{N: side * side}
		id := func(r, c int) types.NodeID { return types.NodeID(r*side + c) }
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					grid.Links = append(grid.Links, topology.Link{U: id(r, c), V: id(r, c+1), Class: topology.ClassStub, Cost: 1})
				}
				if r+1 < side {
					grid.Links = append(grid.Links, topology.Link{U: id(r, c), V: id(r+1, c), Class: topology.ClassStub, Cost: 1})
				}
			}
		}
		prog, err := engine.Compile(apps.MinCost())
		if err != nil {
			b.Fatal(err)
		}
		u, v := id(side/2, side/2-1), id(side/2, side/2)
		churn := []churnOp{
			{u, apps.LinkTuple(u, v, 1)},
			{v, apps.LinkTuple(v, u, 1)},
		}
		benchDRedChurn(b, prog, grid.N, func(s *engine.Scheduler) {
			for _, l := range grid.Links {
				s.InsertBase(l.U, apps.LinkTuple(l.U, l.V, l.Cost))
				s.InsertBase(l.V, apps.LinkTuple(l.V, l.U, l.Cost))
			}
		}, churn)
	})
	b.Run("chord", func(b *testing.B) {
		topo := topology.Ring(32, rand.New(rand.NewSource(8)))
		prog, err := engine.Compile(apps.Chord())
		if err != nil {
			b.Fatal(err)
		}
		base := apps.ChordBase(topo)
		// Node 5 fails and rejoins: its neighbors lose their alive soft
		// state for it, and it loses its own view of them.
		const down = types.NodeID(5)
		var churn []churnOp
		for _, l := range topo.Links {
			if l.U == down || l.V == down {
				churn = append(churn,
					churnOp{l.U, apps.AliveTuple(l.U, l.V)},
					churnOp{l.V, apps.AliveTuple(l.V, l.U)})
			}
		}
		benchDRedChurn(b, prog, topo.N, func(s *engine.Scheduler) {
			for n := 0; n < topo.N; n++ {
				for _, tup := range base[types.NodeID(n)] {
					s.InsertBase(types.NodeID(n), tup)
				}
			}
		}, churn)
	})
}
