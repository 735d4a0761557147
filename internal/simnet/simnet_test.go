package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/types"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 4) }) // same time: FIFO by seq
	end := s.Run()
	if end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	want := []int{1, 4, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventOrderingProperty(t *testing.T) {
	f := func(times []uint32) bool {
		s := NewSim()
		var fired []Time
		for _, tm := range times {
			at := Time(tm % 1_000_000)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduledInPastClampsToNow(t *testing.T) {
	s := NewSim()
	var at Time = -1
	s.At(100, func() {
		s.At(50, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != 100 {
		t.Errorf("past event ran at %d, want clamped to 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 || s.Now() != 20 {
		t.Errorf("fired=%d now=%d, want 2 events and time 20", fired, s.Now())
	}
	if !s.Pending() {
		t.Error("expected pending events")
	}
	s.Run()
	if fired != 3 {
		t.Errorf("fired=%d after Run, want 3", fired)
	}
}

func TestLatencyAndBandwidthDelay(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 2)
	nw.MsgOverhead = 0
	nw.AddLink(0, 1, Link{Latency: 10 * Millisecond, Bps: 8000}) // 1000 B/s
	var arrival Time
	nw.Register(1, HandlerFunc(func(from types.NodeID, payload any, size int) {
		arrival = s.Now()
		if size != 500 {
			t.Errorf("size = %d, want 500", size)
		}
	}))
	nw.Send(0, 1, "x", 500)
	s.Run()
	// 10 ms latency + 500 B at 1000 B/s = 0.5 s.
	want := 10*Millisecond + 500*Millisecond
	if arrival != want {
		t.Errorf("arrival = %v, want %v", arrival, want)
	}
}

func TestMultiHopUsesMinLatencyPath(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 3)
	nw.MsgOverhead = 0
	// 0-1-2 with 1 ms links; direct 0-2 with 100 ms.
	nw.AddLink(0, 1, Link{Latency: Millisecond, Bps: 1e12})
	nw.AddLink(1, 2, Link{Latency: Millisecond, Bps: 1e12})
	nw.AddLink(0, 2, Link{Latency: 100 * Millisecond, Bps: 1e12})
	var arrival Time
	nw.Register(2, HandlerFunc(func(types.NodeID, any, int) { arrival = s.Now() }))
	nw.Send(0, 2, "x", 1)
	s.Run()
	if arrival >= 100*Millisecond || arrival < 2*Millisecond {
		t.Errorf("arrival = %v, want ~2 ms via relay", arrival)
	}
}

func TestUnreachableDrops(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 3)
	nw.AddLink(0, 1, Link{Latency: Millisecond, Bps: 1e9})
	delivered := false
	nw.Register(2, HandlerFunc(func(types.NodeID, any, int) { delivered = true }))
	nw.Send(0, 2, "x", 10)
	s.Run()
	if delivered {
		t.Error("message delivered to unreachable node")
	}
}

// TestSendOutsideNetworkDrops sends to destinations no node of the network
// has — past the last node, negative, and from a node to itself under such
// an id — which a hostile message can name. Each send is dropped, counted
// and charged nothing, and the network keeps working.
func TestSendOutsideNetworkDrops(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 2)
	nw.AddLink(0, 1, Link{Latency: Millisecond, Bps: 1e9})
	delivered := 0
	for i := 0; i < 2; i++ {
		nw.Register(types.NodeID(i), HandlerFunc(func(types.NodeID, any, int) { delivered++ }))
	}
	nw.Send(0, 2, "x", 10)
	nw.Send(1, 0x30303030, "x", 10)
	nw.Send(0, -1, "x", 10)
	s.Run()
	if delivered != 0 || nw.DroppedMsgs != 3 || nw.TotalBytes != 0 {
		t.Fatalf("delivered %d, dropped %d, charged %d B; want 0, 3, 0", delivered, nw.DroppedMsgs, nw.TotalBytes)
	}
	nw.Send(0, 1, "x", 10)
	s.Run()
	if delivered != 1 || nw.DroppedMsgs != 3 {
		t.Fatalf("after the drops: delivered %d, dropped %d; want 1, 3", delivered, nw.DroppedMsgs)
	}
}

func TestChurnInvalidatesRoutes(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 3)
	nw.MsgOverhead = 0
	nw.AddLink(0, 1, Link{Latency: Millisecond, Bps: 1e12})
	nw.AddLink(1, 2, Link{Latency: Millisecond, Bps: 1e12})
	got := 0
	nw.Register(2, HandlerFunc(func(types.NodeID, any, int) { got++ }))
	nw.Send(0, 2, "x", 1)
	s.Run()
	if got != 1 {
		t.Fatalf("first send not delivered")
	}
	if !nw.RemoveLink(1, 2) {
		t.Fatal("RemoveLink failed")
	}
	nw.Send(0, 2, "x", 1)
	s.Run()
	if got != 1 {
		t.Error("message delivered after partition")
	}
	nw.AddLink(0, 2, Link{Latency: Millisecond, Bps: 1e12})
	nw.Send(0, 2, "x", 1)
	s.Run()
	if got != 2 {
		t.Error("message not delivered after healing")
	}
}

func TestByteAccounting(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 2)
	nw.AddLink(0, 1, Link{Latency: Millisecond, Bps: 1e9})
	nw.Register(1, HandlerFunc(func(types.NodeID, any, int) {}))
	nw.Register(0, HandlerFunc(func(types.NodeID, any, int) {}))
	nw.Send(0, 1, "x", 100)
	if nw.SentBytes[0] != 100+stats.DatagramOverhead {
		t.Errorf("sent bytes = %d, want %d", nw.SentBytes[0], 100+stats.DatagramOverhead)
	}
	// Self-sends are free.
	nw.Send(0, 0, "x", 100)
	if nw.SentBytes[0] != 100+stats.DatagramOverhead {
		t.Errorf("self-send charged: %d", nw.SentBytes[0])
	}
	nw.Traffic.Reset()
	if nw.TotalBytes != 0 || nw.SentMsgs[0] != 0 {
		t.Error("reset incomplete")
	}
}

func TestSelfSendDelivered(t *testing.T) {
	s := NewSim()
	nw := NewNetwork(s, 1)
	got := false
	nw.Register(0, HandlerFunc(func(types.NodeID, any, int) { got = true }))
	nw.Send(0, 0, "x", 10)
	s.Run()
	if !got {
		t.Error("self-send not delivered")
	}
}

func TestDijkstraRandomGraphSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		s := NewSim()
		nw := NewNetwork(s, n)
		for i := 1; i < n; i++ {
			nw.AddLink(types.NodeID(i), types.NodeID(rng.Intn(i)),
				Link{Latency: Time(1+rng.Intn(50)) * Millisecond, Bps: 1e9})
		}
		u := types.NodeID(rng.Intn(n))
		v := types.NodeID(rng.Intn(n))
		lu, _ := nw.pathCost(u, v)
		lv, _ := nw.pathCost(v, u)
		if lu != lv {
			t.Fatalf("asymmetric latencies %v vs %v", lu, lv)
		}
	}
}
