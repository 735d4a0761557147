package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
)

// testNet is a two-endpoint scripted harness: a virtual clock, an event
// queue, and a fault hook deciding the fate of each transmission. It is
// the minimal stand-in for simnet that lets the protocol state machine be
// exercised against exact loss/duplication/reorder scripts.
type testNet struct {
	now    int64
	seq    int64
	events []testEv
	eps    map[types.NodeID]*Endpoint

	latency int64
	// fault, when set, returns (drop, duplicate, extraDelay) for one
	// transmission attempt.
	fault func(from, to types.NodeID, f *Frame) (bool, bool, int64)
}

type testEv struct {
	at  int64
	seq int64
	fn  func()
}

func newTestNet() *testNet {
	return &testNet{eps: map[types.NodeID]*Endpoint{}, latency: 1_000_000} // 1 ms
}

func (n *testNet) push(at int64, fn func()) {
	n.seq++
	n.events = append(n.events, testEv{at: at, seq: n.seq, fn: fn})
}

func (n *testNet) run() {
	for len(n.events) > 0 {
		best := 0
		for i := 1; i < len(n.events); i++ {
			e, b := n.events[i], n.events[best]
			if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
				best = i
			}
		}
		ev := n.events[best]
		n.events = append(n.events[:best], n.events[best+1:]...)
		if ev.at > n.now {
			n.now = ev.at
		}
		ev.fn()
	}
}

// endpoint creates an endpoint at id whose deliveries append to got.
func (n *testNet) endpoint(id types.NodeID, cfg Config, got *[]any, released *int) *Endpoint {
	hooks := Hooks{
		Send: func(to types.NodeID, f *Frame) {
			from := id
			drop, dup, extra := false, false, int64(0)
			if n.fault != nil {
				drop, dup, extra = n.fault(from, to, f)
			}
			deliver := func() {
				if ep := n.eps[to]; ep != nil {
					ep.OnFrame(from, f)
				}
			}
			if !drop {
				n.push(n.now+n.latency+extra, deliver)
			}
			if dup {
				n.push(n.now+n.latency+extra+10, deliver)
			}
		},
		Deliver: func(from types.NodeID, payload any, size int) {
			if got != nil {
				*got = append(*got, payload)
			}
		},
		Schedule: func(d int64, fn func()) { n.push(n.now+d, fn) },
	}
	if released != nil {
		hooks.Release = func(any) { *released++ }
	}
	ep := New(id, cfg, hooks)
	n.eps[id] = ep
	return ep
}

func TestInOrderExactlyOnceLossless(t *testing.T) {
	n := newTestNet()
	var got []any
	released := 0
	a := n.endpoint(0, Config{}, nil, &released)
	n.endpoint(1, Config{}, &got, nil)
	const N = 100
	for i := 0; i < N; i++ {
		a.Send(1, i, 10)
	}
	n.run()
	if len(got) != N {
		t.Fatalf("delivered %d payloads, want %d", len(got), N)
	}
	for i, p := range got {
		if p.(int) != i {
			t.Fatalf("payload %d = %v, out of order", i, p)
		}
	}
	if a.InFlight() != 0 {
		t.Errorf("inflight = %d after full ack, want 0", a.InFlight())
	}
	if released != N {
		t.Errorf("released %d payloads, want %d", released, N)
	}
	if a.Stats.Retransmits != 0 {
		t.Errorf("lossless run retransmitted %d frames", a.Stats.Retransmits)
	}
}

func TestLossRecoveredByBackoff(t *testing.T) {
	n := newTestNet()
	var got []any
	drops := 0
	// Drop the first three transmissions of data seq 1.
	n.fault = func(from, to types.NodeID, f *Frame) (bool, bool, int64) {
		if f.Seq == 1 && drops < 3 {
			drops++
			return true, false, 0
		}
		return false, false, 0
	}
	cfg := Config{InitialRTO: 10_000_000, MaxRTO: 40_000_000}
	a := n.endpoint(0, cfg, nil, nil)
	n.endpoint(1, cfg, &got, nil)
	a.Send(1, "x", 5)
	n.run()
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("got %v, want exactly one delivery", got)
	}
	if a.Stats.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3", a.Stats.Retransmits)
	}
	// Backoff: attempts at 0, 10, 30 (10+20), 70 (…+40 capped) ms.
	if wantMin := int64(70_000_000); n.now < wantMin {
		t.Errorf("converged at t=%d, before the backoff schedule could fire (want >= %d)", n.now, wantMin)
	}
	if a.InFlight() != 0 {
		t.Errorf("inflight = %d, want 0", a.InFlight())
	}
}

// TestChaosTransportExactlyOnce drives seeded random loss, duplication and
// reorder (latency jitter) and checks the receiver still sees every
// payload exactly once, in order — the unit-level version of the drivers'
// chaos equivalence fences.
func TestChaosTransportExactlyOnce(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		n := newTestNet()
		n.fault = func(from, to types.NodeID, f *Frame) (bool, bool, int64) {
			return rng.Float64() < 0.2, rng.Float64() < 0.15, int64(rng.Intn(5_000_000))
		}
		var got []any
		cfg := Config{InitialRTO: 5_000_000, MaxRTO: 20_000_000, Window: 8}
		a := n.endpoint(0, cfg, nil, nil)
		b := n.endpoint(1, cfg, &got, nil)
		const N = 200
		for i := 0; i < N; i++ {
			a.Send(1, i, 4)
		}
		n.run()
		if len(got) != N {
			t.Fatalf("seed %d: delivered %d payloads, want %d", seed, len(got), N)
		}
		for i, p := range got {
			if p.(int) != i {
				t.Fatalf("seed %d: delivery %d = %v, out of order", seed, i, p)
			}
		}
		if a.InFlight() != 0 || a.Err() != nil {
			t.Fatalf("seed %d: inflight=%d err=%v", seed, a.InFlight(), a.Err())
		}
		if b.Stats.DupsDropped == 0 && b.Stats.OooBuffered == 0 {
			t.Errorf("seed %d: chaos run exercised no dedup or reorder path", seed)
		}
	}
}

func TestWindowBoundsInFlightFrames(t *testing.T) {
	n := newTestNet()
	var got []any
	cfg := Config{Window: 4}
	a := n.endpoint(0, cfg, nil, nil)
	n.endpoint(1, cfg, &got, nil)
	for i := 0; i < 20; i++ {
		a.Send(1, i, 1)
	}
	// All 20 sends happen at t=0 with no acks yet: only Window frames may
	// have been transmitted; the rest queue locally in seq order.
	if a.Stats.DataSent != 4 {
		t.Fatalf("transmitted %d frames before any ack, want window=4", a.Stats.DataSent)
	}
	if a.InFlight() != 20 {
		t.Fatalf("inflight = %d (queued sends count until acked), want 20", a.InFlight())
	}
	n.run()
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
	for i := range got {
		if got[i].(int) != i {
			t.Fatalf("delivery %d = %v, out of order", i, got[i])
		}
	}
	if a.InFlight() != 0 {
		t.Errorf("inflight = %d after drain, want 0", a.InFlight())
	}
}

func TestPeerDeadSurfacesErrorAndReleases(t *testing.T) {
	n := newTestNet()
	n.fault = func(types.NodeID, types.NodeID, *Frame) (bool, bool, int64) { return true, false, 0 }
	released := 0
	var deadErr error
	cfg := Config{InitialRTO: 1_000_000, MaxRTO: 2_000_000, MaxRetries: 3}
	a := n.endpoint(0, cfg, nil, &released)
	a.hooks.PeerDead = func(err error) { deadErr = err }
	n.endpoint(1, cfg, nil, nil)
	a.Send(1, "doomed", 6)
	a.Send(1, "also doomed", 11)
	n.run()
	var pde *PeerDeadError
	if !errors.As(a.Err(), &pde) {
		t.Fatalf("Err() = %v, want *PeerDeadError", a.Err())
	}
	if deadErr == nil {
		t.Error("PeerDead hook not invoked")
	}
	if pde.Peer != 1 || pde.Retries != 3 {
		t.Errorf("error = %+v, want peer 1 after 3 retries", pde)
	}
	if released != 2 {
		t.Errorf("released %d payloads on death, want 2", released)
	}
	if a.InFlight() != 0 {
		t.Errorf("inflight = %d after peer death, want 0", a.InFlight())
	}
	// Further sends to the dead peer are dropped, not queued.
	a.Send(1, "late", 4)
	if a.InFlight() != 0 || released != 3 {
		t.Errorf("send to dead peer queued (inflight=%d released=%d)", a.InFlight(), released)
	}
}

// TestLostAcksRecovered drops every pure-ack frame the receiver sends
// back; the sender keeps retransmitting, the receiver keeps deduping, and
// retirement eventually rides the piggybacked ack on reverse traffic.
// (Only the b->a direction is lossy: a conversation whose every pure ack
// dies in both directions has no quiescent state to converge to.)
func TestLostAcksRecovered(t *testing.T) {
	n := newTestNet()
	n.fault = func(from, to types.NodeID, f *Frame) (bool, bool, int64) {
		return f.Seq == 0 && from == 1, false, 0 // kill b's pure acks only
	}
	var gotA, gotB []any
	cfg := Config{InitialRTO: 2_000_000, MaxRTO: 8_000_000}
	a := n.endpoint(0, cfg, &gotA, nil)
	b := n.endpoint(1, cfg, &gotB, nil)
	a.Send(1, "ping", 4)
	// Reverse traffic gives the piggybacked ack a ride.
	n.push(5_000_000, func() { b.Send(0, "pong", 4) })
	n.run()
	if len(gotB) != 1 || len(gotA) != 1 {
		t.Fatalf("gotA=%v gotB=%v, want one delivery each", gotA, gotB)
	}
	if a.InFlight() != 0 || b.InFlight() != 0 {
		t.Errorf("inflight a=%d b=%d, want 0/0", a.InFlight(), b.InFlight())
	}
	if b.Stats.DupsDropped == 0 {
		t.Error("receiver never saw the retransmitted duplicate")
	}
}

func TestOutOfOrderBufferBounded(t *testing.T) {
	n := newTestNet()
	// Drop seq 1 once so everything behind it goes out of order.
	dropped := false
	n.fault = func(from, to types.NodeID, f *Frame) (bool, bool, int64) {
		if f.Seq == 1 && !dropped {
			dropped = true
			return true, false, 0
		}
		return false, false, 0
	}
	var got []any
	cfg := Config{InitialRTO: 50_000_000, Window: 4}
	a := n.endpoint(0, cfg, nil, nil)
	n.endpoint(1, cfg, &got, nil)
	for i := 0; i < 12; i++ {
		a.Send(1, i, 1)
	}
	n.run()
	if len(got) != 12 {
		t.Fatalf("delivered %d, want 12", len(got))
	}
	for i := range got {
		if got[i].(int) != i {
			t.Fatalf("delivery %d = %v, out of order", i, got[i])
		}
	}
	b := n.eps[1]
	if b.Stats.OooBuffered == 0 {
		t.Error("no out-of-order frame was buffered")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, c := range []struct{ seq, ack uint32 }{{0, 0}, {0, 77}, {1, 0}, {12345, 67890}, {^uint32(0), ^uint32(0)}} {
		h := EncodeHeader(nil, c.seq, c.ack)
		if len(h) != HeaderBytes {
			t.Fatalf("header length %d, want %d", len(h), HeaderBytes)
		}
		seq, ack, err := DecodeHeader(h)
		if err != nil || seq != c.seq || ack != c.ack {
			t.Fatalf("round trip (%d,%d) -> (%d,%d,%v)", c.seq, c.ack, seq, ack, err)
		}
	}
}

func TestHeaderRejectsInconsistentFlags(t *testing.T) {
	// Data flag set with seq 0.
	h := EncodeHeader(nil, 0, 9)
	h[0] = flagData
	if _, _, err := DecodeHeader(h); err == nil {
		t.Error("data flag with seq 0 accepted")
	}
	// Data flag clear with seq != 0.
	h = EncodeHeader(nil, 5, 9)
	h[0] = 0
	if _, _, err := DecodeHeader(h); err == nil {
		t.Error("clear flag with non-zero seq accepted")
	}
	// Unknown flag bits.
	h = EncodeHeader(nil, 5, 9)
	h[0] |= 0x80
	if _, _, err := DecodeHeader(h); err == nil {
		t.Error("unknown flag bit accepted")
	}
	if _, _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
}

// FuzzDecodeFrameHeader pins decode strictness: any accepted header must
// re-encode to the same bytes (the frame header is part of the normative
// wire format, docs/wire-format.md).
func FuzzDecodeFrameHeader(f *testing.F) {
	f.Add(EncodeHeader(nil, 0, 0))
	f.Add(EncodeHeader(nil, 1, 0))
	f.Add(EncodeHeader(nil, 7, 1234))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, ack, err := DecodeHeader(b)
		if err != nil {
			return
		}
		re := EncodeHeader(nil, seq, ack)
		if !bytes.Equal(re, b[:HeaderBytes]) {
			t.Fatalf("decode(%x) -> (%d,%d) re-encodes to %x", b[:HeaderBytes], seq, ack, re)
		}
	})
}

// TestStatsAddCoversEveryField guards the one cluster-wide sum the drivers
// share: a counter added to Stats but not to Add would silently read zero in
// every report.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := one
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("Stats.Add: field %s = %d, want %d", s.Type().Field(i).Name, got, want)
		}
	}
}
