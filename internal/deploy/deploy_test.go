package deploy

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestDeployFigure3 runs MINCOST over real UDP sockets on the Fig 3
// topology and checks the same fixpoint as the simulation.
func TestDeployFigure3(t *testing.T) {
	cl, err := NewCluster(Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Start()
	cl.InsertLinks()
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"bestPathCost(@a,c,5)": true,
		"bestPathCost(@a,d,8)": true,
		"bestPathCost(@b,c,2)": true,
		"bestPathCost(@d,a,8)": true,
	}
	got := map[string]bool{}
	for _, tu := range cl.Snapshot("bestPathCost") {
		got[tu.String()] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing %s (have %d tuples)", k, len(got))
		}
	}
	if cl.TotalSentBytes() == 0 {
		t.Error("no bytes accounted")
	}
}

// TestDeployDropsOutOfClusterDestination writes one hostile engine datagram
// into a converged Figure 3 MINCOST cluster: link(@0, 999, 1) is well formed,
// but rule sp2 routes its derived head to node 999, which used to index past
// the cluster's address table and kill the whole process. The send must be
// dropped and counted, and the cluster must stay up and reach its fixpoint.
func TestDeployDropsOutOfClusterDestination(t *testing.T) {
	cl, err := NewCluster(Config{
		Topo: topology.Figure3(),
		Prog: apps.MinCost(),
		Mode: engine.ProvReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Start()
	cl.InsertLinks()
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	dropped := cl.Dropped.Load()

	m := &engine.Message{Tuple: types.NewTuple("link", types.Node(0), types.Node(999), types.Int(1)), Delta: engine.Insert}
	dgram := append([]byte{tagEngine, 0, 0, 0, 1}, m.Encode(nil)...) // tag, from node 1
	conn, err := net.DialUDP("udp", nil, cl.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Issue the work item the way a cluster sender does, so quiescence
	// waits for the node to handle the datagram.
	cl.sent.Add(1)
	if _, err := conn.Write(dgram); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	if cl.Dropped.Load() <= dropped {
		t.Errorf("Dropped = %d after the out-of-cluster send, want > %d", cl.Dropped.Load(), dropped)
	}
	reached := false
	for _, tu := range cl.Snapshot("bestPathCost") {
		reached = reached || tu.Args[1].AsNode() == 999
	}
	if !reached {
		t.Error("node 0 never handled the hostile link: no bestPathCost toward node 999")
	}
}

// TestDeployRingPathVector runs PATHVECTOR on the §7.4 ring overlay with 8
// UDP nodes, in reference and value modes, and checks the reference mode is
// cheaper — the testbed headline of Fig 16.
func TestDeployRingPathVector(t *testing.T) {
	topo := topology.Ring(8, rand.New(rand.NewSource(3)))
	costs := map[engine.ProvMode]float64{}
	for _, mode := range []engine.ProvMode{engine.ProvNone, engine.ProvReference, engine.ProvValue} {
		cl, err := NewCluster(Config{Topo: topo, Prog: apps.PathVector(), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.InsertLinks()
		if _, err := cl.WaitFixpoint(20 * time.Second); err != nil {
			cl.Stop()
			t.Fatalf("mode %s: %v", mode, err)
		}
		if err := cl.Err(); err != nil {
			cl.Stop()
			t.Fatalf("mode %s: %v", mode, err)
		}
		// All-pairs best paths must exist.
		n := len(cl.Snapshot("bestPath"))
		if n < topo.N*(topo.N-1) {
			t.Errorf("mode %s: %d bestPath tuples, want >= %d", mode, n, topo.N*(topo.N-1))
		}
		costs[mode] = cl.AvgSentKB()
		cl.Stop()
	}
	t.Logf("avg per-node KB: none=%.2f ref=%.2f value=%.2f",
		costs[engine.ProvNone], costs[engine.ProvReference], costs[engine.ProvValue])
	if !(costs[engine.ProvNone] < costs[engine.ProvReference] &&
		costs[engine.ProvReference] < costs[engine.ProvValue]) {
		t.Errorf("expected none < reference < value, got %v", costs)
	}
}

// TestDeployMatchesSimulation checks that deployment and simulation reach
// identical bestPathCost fixpoints from the same topology (the paper's
// "identical codebase" property).
func TestDeployMatchesSimulation(t *testing.T) {
	topo := topology.Ring(6, rand.New(rand.NewSource(11)))
	cl, err := NewCluster(Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Start()
	cl.InsertLinks()
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deployed := map[string]bool{}
	for _, tu := range cl.Snapshot("bestPathCost") {
		deployed[tu.String()] = true
	}

	simTuples := simulatedBestPaths(t, topo)
	if len(deployed) != len(simTuples) {
		t.Fatalf("deployment has %d bestPathCost tuples, simulation %d", len(deployed), len(simTuples))
	}
	for k := range simTuples {
		if !deployed[k] {
			t.Errorf("simulation tuple %s missing from deployment", k)
		}
	}
}

func simulatedBestPaths(t *testing.T, topo *topology.Topology) map[string]bool {
	t.Helper()
	// Local import cycle avoidance: run a tiny inline simulation using the
	// engine directly with a synchronous transport.
	prog, err := engine.Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*engine.Node, topo.N)
	tr := &syncTransport{nodes: &nodes}
	for i := range nodes {
		nodes[i] = engine.NewNode(types.NodeID(i), prog, engine.ProvReference, tr, nil)
	}
	for _, l := range topo.Links {
		nodes[l.U].InsertBase(types.NewTuple("link", types.Node(l.U), types.Node(l.V), types.Int(l.Cost)))
		nodes[l.V].InsertBase(types.NewTuple("link", types.Node(l.V), types.Node(l.U), types.Int(l.Cost)))
	}
	tr.drain()
	// Release retraction-protocol staging (improvement-driven winner
	// evictions over-delete and stage even on insert-only workloads); the
	// deployed cluster gets the same treatment from WaitFixpoint.
	engine.Settle(nodes...)
	out := map[string]bool{}
	for _, n := range nodes {
		if rel := n.Table("bestPathCost"); rel != nil {
			for _, tu := range rel.Tuples() {
				out[tu.String()] = true
			}
		}
	}
	return out
}

// syncTransport queues cross-node messages and delivers them in FIFO order
// on drain — a minimal single-threaded "network" for engine-only tests.
type syncTransport struct {
	nodes *[]*engine.Node
	queue []queued
	busy  bool
}

type queued struct {
	from, to types.NodeID
	m        *engine.Message
}

func (t *syncTransport) Send(from, to types.NodeID, m *engine.Message) {
	t.queue = append(t.queue, queued{from, to, m})
	t.drain()
}

func (t *syncTransport) drain() {
	if t.busy {
		return
	}
	t.busy = true
	defer func() { t.busy = false }()
	for len(t.queue) > 0 {
		q := t.queue[0]
		t.queue = t.queue[1:]
		(*t.nodes)[q.to].HandleMessage(q.from, q.m)
	}
}
