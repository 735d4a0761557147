package simnet

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

// These tests are the simulator counterparts of the engine's hot-path
// fences: the steady-state send→deliver path must not allocate. The typed
// event union (no per-message closures), the 4-ary heap over a reusable
// backing array (no container/heap interface boxing), the flat handler
// slice and the lazy per-source route cache together make a delivered
// message cost zero heap objects once buffers are warm.

// warmPayload stands in for *engine.Message / *provquery.Msg: a pointer, so
// storing it in the event's `any` field never boxes.
type warmPayload struct{ n int }

func buildLine(n int) (*Sim, *Network) {
	s := NewSim()
	nw := NewNetwork(s, n)
	for i := 1; i < n; i++ {
		nw.AddLink(types.NodeID(i-1), types.NodeID(i), Link{Latency: Millisecond, Bps: 1e9})
	}
	return s, nw
}

func TestSendDeliverAllocFree(t *testing.T) {
	s, nw := buildLine(8)
	delivered := 0
	for i := 0; i < 8; i++ {
		nw.Register(types.NodeID(i), HandlerFunc(func(types.NodeID, any, int) { delivered++ }))
	}
	p := &warmPayload{}
	// Warm the event heap, route rows and scratch arrays.
	for i := 0; i < 64; i++ {
		nw.Send(0, 7, p, 100)
		nw.Send(3, 1, p, 50)
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		nw.Send(0, 7, p, 100)
		nw.Send(3, 1, p, 50)
		nw.Send(5, 5, p, 10) // self-delivery
		s.Run()
	})
	if delivered == 0 {
		t.Fatal("no messages delivered")
	}
	if allocs != 0 {
		t.Errorf("steady-state send→deliver allocated %.2f objects per run, want 0", allocs)
	}
}

// TestTimerEscapeHatchStillWorks pins the tagged union's second variant:
// func() events coexist with inline message events in one queue and honor
// the same (time, seq) order.
func TestTimerEscapeHatchStillWorks(t *testing.T) {
	s, nw := buildLine(2)
	var order []string
	nw.Register(1, HandlerFunc(func(types.NodeID, any, int) { order = append(order, "msg") }))
	nw.Send(0, 1, &warmPayload{}, 1) // arrives at ~1 ms
	s.At(2*Millisecond, func() { order = append(order, "timer") })
	s.Run()
	if len(order) != 2 || order[0] != "msg" || order[1] != "timer" {
		t.Fatalf("order = %v, want [msg timer]", order)
	}
}

// TestLazyRoutesRecomputePerSource verifies that churn only marks routes
// stale (a generation bump) and that each sender recomputes its own row on
// demand, keeping rows of silent nodes untouched.
func TestLazyRoutesRecomputePerSource(t *testing.T) {
	s, nw := buildLine(4)
	got := 0
	nw.Register(3, HandlerFunc(func(types.NodeID, any, int) { got++ }))
	nw.Send(0, 3, &warmPayload{}, 1)
	s.Run()
	if got != 1 {
		t.Fatal("first send not delivered")
	}
	gen := nw.topoGen
	if nw.routeGen[0] != gen {
		t.Fatalf("sender row at gen %d, topo at %d", nw.routeGen[0], gen)
	}
	if nw.routeLat[2] != nil {
		t.Error("silent node 2 has a computed route row")
	}
	// Churn: only the generation moves; no row is recomputed eagerly.
	nw.RemoveLink(1, 2)
	if nw.topoGen == gen {
		t.Fatal("RemoveLink did not bump the topology generation")
	}
	if nw.routeGen[0] == nw.topoGen {
		t.Error("churn eagerly refreshed a route row")
	}
	nw.Send(0, 3, &warmPayload{}, 1) // unreachable: dropped
	nw.AddLink(1, 2, Link{Latency: Millisecond, Bps: 1e9})
	nw.Send(0, 3, &warmPayload{}, 1)
	s.Run()
	if got != 2 {
		t.Fatalf("delivered %d messages, want 2 (one dropped during partition)", got)
	}
}

// TestUnreachableSendNotCharged is the regression fence for the accounting
// bug where a message dropped for unreachability was still charged to
// SentBytes/SentMsgs/TotalBytes and the bandwidth recorder.
func TestUnreachableSendNotCharged(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 3)
	nw.Recorder = stats.NewBandwidth(int64(Second))
	// One one-second bucket: its rate in MBps is the recorded bytes / 1e6.
	recorded := func() float64 { return nw.Recorder.Series(int64(Second), 1)[0].MBps }
	nw.AddLink(0, 1, Link{Latency: Millisecond, Bps: 1e9})
	nw.Register(2, HandlerFunc(func(types.NodeID, any, int) { t.Error("unreachable message delivered") }))
	nw.Send(0, 2, "x", 100)
	s.Run()
	if nw.SentBytes[0] != 0 || nw.SentMsgs[0] != 0 || nw.TotalBytes != 0 {
		t.Errorf("dropped message charged: sentBytes=%d sentMsgs=%d total=%d, want all 0",
			nw.SentBytes[0], nw.SentMsgs[0], nw.TotalBytes)
	}
	if rec := recorded(); rec != 0 {
		t.Errorf("dropped message recorded %v MB of bandwidth, want 0", rec)
	}
	// A reachable send is still charged in full.
	nw.Send(0, 1, "x", 100)
	want := int64(100 + stats.DatagramOverhead)
	if nw.SentBytes[0] != want || nw.TotalBytes != want || nw.SentMsgs[0] != 1 {
		t.Errorf("reachable send charged %d/%d bytes %d msgs, want %d/%d/1",
			nw.SentBytes[0], nw.TotalBytes, nw.SentMsgs[0], want, want)
	}
	if rec := recorded(); rec != float64(want)/1e6 {
		t.Errorf("recorder has %v MB, want %d bytes", rec, want)
	}
}

// BenchmarkSimnetHeap exercises the scheduler alone: interleaved push/pop
// of message events through the 4-ary heap.
func BenchmarkSimnetHeap(b *testing.B) {
	s, nw := buildLine(16)
	for i := 0; i < 16; i++ {
		nw.Register(types.NodeID(i), HandlerFunc(func(types.NodeID, any, int) {}))
	}
	p := &warmPayload{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(types.NodeID(i%16), types.NodeID((i*7)%16), p, 64)
		if i%32 == 31 {
			s.Run()
		}
	}
	s.Run()
}
