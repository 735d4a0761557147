package deploy

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/types"
)

// bootCluster starts a cluster, seeds its EDB and waits for its fixpoint;
// the cluster stops when the test ends.
func bootCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	cl.Start()
	cl.InsertLinks()
	if _, err := cl.WaitFixpoint(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestDeployFigure3 runs MINCOST over real UDP sockets on the Fig 3
// topology and checks the paper's best path costs.
func TestDeployFigure3(t *testing.T) {
	cl := bootCluster(t, Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference})
	got := map[string]bool{}
	for _, tu := range cl.Snapshot("bestPathCost") {
		got[tu.String()] = true
	}
	for _, k := range []string{"bestPathCost(@a,c,5)", "bestPathCost(@a,d,8)", "bestPathCost(@b,c,2)", "bestPathCost(@d,a,8)"} {
		if !got[k] {
			t.Errorf("missing %s (have %d tuples)", k, len(got))
		}
	}
	if cl.TotalSentBytes() == 0 {
		t.Error("no bytes accounted")
	}
}

// TestDeployDropsOutOfClusterDestination has a member node send one hostile
// engine datagram into a converged Figure 3 MINCOST cluster: link(@0, 999, 1)
// is well formed, but rule sp2 routes its derived head to node 999, which
// used to index past the cluster's address table and kill the whole process.
// The send must be dropped and counted, and the cluster must stay up and
// reach its fixpoint.
func TestDeployDropsOutOfClusterDestination(t *testing.T) {
	cl := bootCluster(t, Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference})
	dropped := cl.Dropped.Load()

	m := &engine.Message{Tuple: types.NewTuple("link", types.Node(0), types.Node(999), types.Int(1)), Delta: engine.Insert}
	np := cl.Nodes[1]
	np.Do(func() { np.send(0, tagEngine, m.Encode(nil)) })
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

// TestDeployDropsForeignDatagrams writes datagrams into a converged reliable
// cluster from a socket outside it: data frames whose sender id names no
// node — acking one used to index past the cluster's address table and kill
// the process — and an engine datagram claiming to come from node 1. Each
// must be dropped and counted without retiring a work item nobody issued,
// and must change no node's state.
func TestDeployDropsForeignDatagrams(t *testing.T) {
	cl := bootCluster(t, Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference,
		Reliable: true, Transport: FastRetransmit})
	want := engine.StateDigest(cl.Engines())
	dropped := cl.Dropped.Load()

	m := (&engine.Message{Tuple: types.NewTuple("link", types.Node(0), types.Node(1), types.Int(9)), Delta: engine.Insert}).Encode(nil)
	dgram := func(tag byte, from uint32, body []byte) []byte {
		return append([]byte{tag, byte(from >> 24), byte(from >> 16), byte(from >> 8), byte(from)}, body...)
	}
	frame := append(transport.EncodeHeader(nil, 1, 0), append([]byte{tagEngine}, m...)...)
	conn, err := net.DialUDP("udp", nil, cl.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hostile := [][]byte{
		dgram(tagReliable, uint32(len(cl.Nodes)), frame),
		dgram(tagReliable, math.MaxUint32, frame), // node -1
		dgram(tagEngine, 1, m),
	}
	for _, d := range hostile {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); cl.Dropped.Load() < dropped+int64(len(hostile)); {
		if time.Now().After(deadline) {
			t.Fatalf("Dropped = %d, want %d", cl.Dropped.Load(), dropped+int64(len(hostile)))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	if got := engine.StateDigest(cl.Engines()); got != want {
		t.Error("a foreign datagram changed the fixpoint")
	}
}

// TestDeployRecoversHandlerPanic: a panic while a node handles one input
// becomes that node's engine error instead of killing the process. The work
// item retires, so WaitFixpoint returns, Err reports the panic, and the
// other nodes keep serving.
func TestDeployRecoversHandlerPanic(t *testing.T) {
	cl := bootCluster(t, Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference})
	cl.Nodes[2].Do(func() { panic("injected fault") })
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Err(); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("Err() = %v, want the recovered panic", err)
	}
	served := false
	cl.Nodes[0].Do(func() { served = true })
	if _, err := cl.WaitFixpoint(10 * time.Second); err != nil || !served {
		t.Fatalf("node 0 stopped serving after node 2's panic (served=%v, err=%v)", served, err)
	}
}

// FastRetransmit keeps reliable-transport tests quick: loopback RTT is
// microseconds, so waiting the default 50 ms before the first
// retransmission only slows the test down. It is exported for the fences of
// the external test package.
var FastRetransmit = transport.Config{InitialRTO: int64(5 * time.Millisecond), MaxRTO: int64(80 * time.Millisecond)}

// TestWaitFixpointTimeoutError pins the typed loss backstop: an unretired
// work item must surface as *FixpointTimeoutError, not a silent give-up.
func TestWaitFixpointTimeoutError(t *testing.T) {
	cl, err := NewCluster(Config{
		Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Start()
	cl.sent.Add(1) // a work item that will never retire: simulated loss
	_, err = cl.WaitFixpoint(50 * time.Millisecond)
	var te *FixpointTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("WaitFixpoint = %v, want *FixpointTimeoutError", err)
	}
	if te.Sent != te.Processed+1 {
		t.Errorf("timeout error counters = %d sent / %d processed, want one outstanding", te.Sent, te.Processed)
	}
}

// TestNewClusterRejectsFaultProbabilities: Loss and Dup are per-datagram
// probabilities in [0,1). NewCluster refuses anything else before it binds
// a socket; at Loss 1 no datagram would ever arrive.
func TestNewClusterRejectsFaultProbabilities(t *testing.T) {
	for _, c := range []struct{ loss, dup float64 }{
		{1, 0}, {1.5, 0}, {-0.5, 0}, {math.NaN(), 0}, {0, 1}, {0, -0.1},
	} {
		cl, err := NewCluster(Config{Topo: topology.Figure3(), Prog: apps.MinCost(),
			Reliable: true, Loss: c.loss, Dup: c.dup})
		if err == nil {
			cl.Stop()
			t.Errorf("Loss %v Dup %v: accepted", c.loss, c.dup)
		}
	}
}

// TestEnginesAfterStop: a stopped cluster's engines stay readable. Engines,
// Snapshot and TransportStats of a reliable Figure 3 MINCOST cluster must
// return promptly after Stop, with the state the running cluster showed.
func TestEnginesAfterStop(t *testing.T) {
	cl := bootCluster(t, Config{Topo: topology.Figure3(), Prog: apps.MinCost(), Mode: engine.ProvReference,
		Reliable: true, Transport: FastRetransmit})
	want := engine.StateDigest(cl.Engines())
	wantSnap := fmt.Sprint(cl.Snapshot("bestPathCost"))
	wantStats := cl.TransportStats()
	if wantStats.Delivered == 0 {
		t.Fatal("vacuous: the reliable transport delivered nothing")
	}
	cl.Stop()
	done := make(chan struct{})
	var got, gotSnap string
	var gotStats transport.Stats
	go func() {
		defer close(done)
		got = engine.StateDigest(cl.Engines())
		gotSnap = fmt.Sprint(cl.Snapshot("bestPathCost"))
		gotStats = cl.TransportStats()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Engines, Snapshot or TransportStats did not return within 2 s of Stop")
	}
	if got != want || gotSnap != wantSnap {
		t.Fatalf("state after Stop differs from the running cluster's:\nsnapshot %s\nwant     %s", gotSnap, wantSnap)
	}
	if gotStats.Delivered < wantStats.Delivered {
		t.Fatalf("transport delivered %d after Stop, %d before", gotStats.Delivered, wantStats.Delivered)
	}
}
