// Package transport is the reliable-delivery layer shared by the simulated
// and deployed transports: per-peer sequence numbers, cumulative acks
// piggybacked on data frames, retransmission timers with exponential
// backoff, and an in-order dedup window, so that delivery into the engine
// is exactly-once even when the substrate drops, duplicates or reorders
// datagrams.
//
// The package is a pure protocol state machine. It owns no socket and no
// clock: the caller supplies hooks for putting a frame on the (unreliable)
// wire, delivering a payload up the stack, and scheduling a callback after
// a delay. The simulator wires these to virtual-time events, the UDP
// deployment to its per-node worker goroutine — the same state machine
// runs under both, which is what makes the chaos equivalence fences
// meaningful (see ARCHITECTURE.md "Transport & fault model").
//
// An Endpoint is deliberately NOT safe for concurrent use. Every driver
// already confines a node's engine state to one goroutine (the simulator's
// event loop, a deployed node's worker); the endpoint lives on that same
// goroutine, including its timer callbacks.
package transport

import (
	"fmt"

	"repro/internal/types"
)

// Frame is one unit put on the unreliable wire. Seq 0 is a pure ack (no
// data); data frames carry Seq >= 1, assigned per (sender, peer) in send
// order. Ack is cumulative: the sender of the frame has delivered every
// data frame with sequence number < Ack from that peer up its own stack.
//
// Payload is opaque to the protocol: the simulator ships in-memory message
// structs, the deployment ships serialized bytes. Size is the payload's
// modelled wire size, excluding the HeaderBytes frame header.
type Frame struct {
	Seq     uint32
	Ack     uint32
	Payload any
	Size    int
}

// Config tunes one endpoint. The zero value selects the defaults.
type Config struct {
	// InitialRTO is the first retransmission timeout in nanoseconds
	// (default 50ms). Each unproductive retransmission doubles it up to
	// MaxRTO (default 800ms); any ack progress resets it.
	InitialRTO int64
	MaxRTO     int64

	// MaxRetries is the number of consecutive unacknowledged
	// retransmissions of the same frame after which the peer is declared
	// dead: its buffered frames are released, an error is surfaced, and
	// further sends to it are dropped — graceful degradation instead of an
	// unbounded stall. 0 means retry forever (the right setting when a
	// partition is known to heal).
	MaxRetries int

	// Window bounds the per-peer in-flight population: at most Window
	// unacked data frames are on the wire at once (further sends queue
	// locally in seq order), and the receive side buffers at most Window
	// out-of-order frames (beyond that they are dropped and recovered by
	// retransmission).
	Window int
}

// Defaults for Config's zero values.
const (
	DefaultInitialRTO = int64(50_000_000)  // 50 ms
	DefaultMaxRTO     = int64(800_000_000) // 800 ms
	DefaultWindow     = 64
)

func (c Config) withDefaults() Config {
	if c.InitialRTO <= 0 {
		c.InitialRTO = DefaultInitialRTO
	}
	if c.MaxRTO < c.InitialRTO {
		c.MaxRTO = DefaultMaxRTO
		if c.MaxRTO < c.InitialRTO {
			c.MaxRTO = c.InitialRTO
		}
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Hooks connect an endpoint to its substrate. Send and Deliver are
// required; Release and PeerDead are optional.
type Hooks struct {
	// Send puts a frame on the unreliable wire toward a peer. The frame
	// struct is freshly allocated per transmission and never mutated after
	// the call, so the substrate may retain it (the simulator holds it in
	// its event queue).
	Send func(to types.NodeID, f *Frame)

	// Deliver hands an in-order, exactly-once payload up the stack. It may
	// reentrantly call Endpoint.Send (an engine cascade); such sends
	// piggyback the already-advanced cumulative ack.
	Deliver func(from types.NodeID, payload any, size int)

	// Schedule arranges for fn to run after delayNs nanoseconds, on the
	// same goroutine that drives the endpoint.
	Schedule func(delayNs int64, fn func())

	// Release, when set, is called exactly once per sent payload when the
	// endpoint is done with it — acked by the peer, or abandoned because
	// the peer was declared dead. Transports use it to recycle message
	// structs and to retire work accounting.
	Release func(payload any)

	// PeerDead, when set, is called when a peer exhausts MaxRetries. The
	// same error is also retained and returned by Err.
	PeerDead func(err error)
}

// Stats counts protocol events since the endpoint was created.
type Stats struct {
	DataSent    int64 // first transmissions of data frames
	Retransmits int64 // timer-driven retransmissions
	AcksSent    int64 // pure-ack frames (piggybacked acks are free)
	Delivered   int64 // payloads handed up exactly-once
	DupsDropped int64 // duplicate data frames discarded by the dedup window
	OooBuffered int64 // out-of-order frames parked until the gap fills
	OooDropped  int64 // out-of-order frames beyond the bounded buffer
	DeadDropped int64 // sends and pending frames abandoned on a dead peer
}

// Add accumulates o into s; cluster drivers sum their endpoints with it.
func (s *Stats) Add(o Stats) {
	s.DataSent += o.DataSent
	s.Retransmits += o.Retransmits
	s.AcksSent += o.AcksSent
	s.Delivered += o.Delivered
	s.DupsDropped += o.DupsDropped
	s.OooBuffered += o.OooBuffered
	s.OooDropped += o.OooDropped
	s.DeadDropped += o.DeadDropped
}

// PeerDeadError reports a peer that stopped acknowledging traffic.
type PeerDeadError struct {
	Self, Peer types.NodeID
	Retries    int
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("transport: node %s: peer %s dead after %d unacknowledged retransmissions",
		e.Self, e.Peer, e.Retries)
}

// Endpoint is one node's reliable-transport half: per-peer send and
// receive state over an unreliable datagram substrate.
type Endpoint struct {
	Stats Stats

	self     types.NodeID
	cfg      Config
	hooks    Hooks
	peers    map[types.NodeID]*peerState
	inflight int
	err      error
}

type pending struct {
	seq     uint32
	payload any
	size    int
}

type bufFrame struct {
	payload any
	size    int
}

type peerState struct {
	id      types.NodeID
	nextSeq uint32 // next sequence number to assign (first is 1)
	sendQ   []pending
	flightN int // leading sendQ entries transmitted at least once

	recvNext    uint32 // next expected data seq; all < recvNext delivered
	recvBuf     map[uint32]bufFrame
	lastAckSent uint32

	rto      int64
	retries  int
	timerGen uint64 // bumped to invalidate outstanding timer callbacks
	dead     bool
}

// New creates an endpoint for node self.
func New(self types.NodeID, cfg Config, hooks Hooks) *Endpoint {
	if hooks.Send == nil || hooks.Deliver == nil || hooks.Schedule == nil {
		panic("transport: Send, Deliver and Schedule hooks are required")
	}
	return &Endpoint{
		self:  self,
		cfg:   cfg.withDefaults(),
		hooks: hooks,
		peers: make(map[types.NodeID]*peerState),
	}
}

func (e *Endpoint) peer(id types.NodeID) *peerState {
	p := e.peers[id]
	if p == nil {
		p = &peerState{id: id, nextSeq: 1, recvNext: 1, rto: e.cfg.InitialRTO}
		e.peers[id] = p
	}
	return p
}

// Send queues one payload for reliable, in-order delivery at the peer. The
// payload belongs to the endpoint until its Release hook fires.
func (e *Endpoint) Send(to types.NodeID, payload any, size int) {
	p := e.peer(to)
	if p.dead {
		e.Stats.DeadDropped++
		e.release(payload)
		return
	}
	pd := pending{seq: p.nextSeq, payload: payload, size: size}
	p.nextSeq++
	p.sendQ = append(p.sendQ, pd)
	e.inflight++
	if p.flightN < e.cfg.Window {
		e.Stats.DataSent++
		e.transmit(p, pd)
		p.flightN++
	}
	if len(p.sendQ) == 1 {
		// Empty -> non-empty transition: start the retransmit timer. While
		// the queue stays non-empty exactly one live timer generation
		// exists (restarted on ack progress, re-armed after each fire).
		e.armTimer(p)
	}
}

// transmit puts one data frame on the wire, piggybacking the current
// cumulative ack for the peer.
func (e *Endpoint) transmit(p *peerState, pd pending) {
	p.lastAckSent = p.recvNext
	e.hooks.Send(p.id, &Frame{Seq: pd.seq, Ack: p.recvNext, Payload: pd.payload, Size: pd.size})
}

// OnFrame processes one frame received from the wire. Duplicates and
// stale retransmissions are absorbed here; the Deliver hook sees each
// payload exactly once, in send order per peer.
func (e *Endpoint) OnFrame(from types.NodeID, f *Frame) {
	p := e.peer(from)
	if p.dead {
		return
	}

	// Cumulative ack: retire every frame the peer has now delivered. A
	// forged or corrupt ack beyond what we ever sent is clamped.
	ack := f.Ack
	if ack > p.nextSeq {
		ack = p.nextSeq
	}
	advanced := false
	for len(p.sendQ) > 0 && p.sendQ[0].seq < ack {
		pd := p.sendQ[0]
		p.sendQ[0] = pending{}
		p.sendQ = p.sendQ[1:]
		if p.flightN > 0 {
			p.flightN--
		}
		e.inflight--
		e.release(pd.payload)
		advanced = true
	}
	if advanced {
		// Progress: reset the backoff and admit queued frames into the
		// freed window, then re-arm (or cancel) the retransmit timer.
		p.retries = 0
		p.rto = e.cfg.InitialRTO
		for p.flightN < e.cfg.Window && p.flightN < len(p.sendQ) {
			e.Stats.DataSent++
			e.transmit(p, p.sendQ[p.flightN])
			p.flightN++
		}
		e.armTimer(p)
	}

	if f.Seq == 0 {
		return // pure ack
	}
	switch {
	case f.Seq < p.recvNext:
		// Already delivered: our ack was lost or the frame was duplicated
		// in flight. Re-ack unconditionally so the sender stops resending.
		e.Stats.DupsDropped++
		e.sendAck(p, true)
	case f.Seq == p.recvNext:
		// In order: deliver, then drain any parked successors. recvNext
		// advances before each Deliver so reentrant sends piggyback the
		// up-to-date ack.
		p.recvNext++
		e.Stats.Delivered++
		e.hooks.Deliver(from, f.Payload, f.Size)
		for {
			nf, ok := p.recvBuf[p.recvNext]
			if !ok {
				break
			}
			delete(p.recvBuf, p.recvNext)
			p.recvNext++
			e.Stats.Delivered++
			e.hooks.Deliver(from, nf.payload, nf.size)
		}
		e.sendAck(p, false)
	default:
		// A gap: park the frame (bounded) and re-ack the hole so the
		// sender retransmits what is missing.
		if _, dup := p.recvBuf[f.Seq]; dup {
			e.Stats.DupsDropped++
		} else if len(p.recvBuf) >= e.cfg.Window {
			e.Stats.OooDropped++
		} else {
			if p.recvBuf == nil {
				p.recvBuf = make(map[uint32]bufFrame)
			}
			p.recvBuf[f.Seq] = bufFrame{payload: f.Payload, size: f.Size}
			e.Stats.OooBuffered++
		}
		e.sendAck(p, true)
	}
}

// sendAck emits a pure-ack frame unless the current cumulative ack already
// went out piggybacked on a data frame (force overrides the suppression —
// a duplicate or a gap means the peer may have missed an earlier ack).
func (e *Endpoint) sendAck(p *peerState, force bool) {
	if !force && p.lastAckSent == p.recvNext {
		return
	}
	p.lastAckSent = p.recvNext
	e.Stats.AcksSent++
	e.hooks.Send(p.id, &Frame{Seq: 0, Ack: p.recvNext})
}

// armTimer (re)schedules the retransmission timer. Bumping the generation
// invalidates any outstanding callback, so at most one timer is live per
// peer; stale callbacks return without effect. With an empty queue this is
// a pure cancel.
func (e *Endpoint) armTimer(p *peerState) {
	p.timerGen++
	if len(p.sendQ) == 0 || p.dead {
		return
	}
	gen := p.timerGen
	e.hooks.Schedule(p.rto, func() { e.onTimer(p, gen) })
}

func (e *Endpoint) onTimer(p *peerState, gen uint64) {
	if gen != p.timerGen || p.dead || len(p.sendQ) == 0 || p.flightN == 0 {
		return
	}
	p.retries++
	if e.cfg.MaxRetries > 0 && p.retries > e.cfg.MaxRetries {
		e.killPeer(p)
		return
	}
	e.Stats.Retransmits++
	e.transmit(p, p.sendQ[0])
	p.rto *= 2
	if p.rto > e.cfg.MaxRTO {
		p.rto = e.cfg.MaxRTO
	}
	e.armTimer(p)
}

// killPeer abandons a peer: buffered frames are released (so quiescence
// accounting can retire them), an error is recorded, and future sends are
// dropped. The engine state already derived from this peer is untouched —
// cleaning it up is the durability story of ROADMAP item 4.
func (e *Endpoint) killPeer(p *peerState) {
	p.dead = true
	p.timerGen++
	for i := range p.sendQ {
		e.Stats.DeadDropped++
		e.inflight--
		e.release(p.sendQ[i].payload)
		p.sendQ[i] = pending{}
	}
	p.sendQ = nil
	p.flightN = 0
	err := &PeerDeadError{Self: e.self, Peer: p.id, Retries: p.retries - 1}
	if e.err == nil {
		e.err = err
	}
	if e.hooks.PeerDead != nil {
		e.hooks.PeerDead(err)
	}
}

func (e *Endpoint) release(payload any) {
	if e.hooks.Release != nil {
		e.hooks.Release(payload)
	}
}

// InFlight reports the number of sent-but-unacked (or still queued)
// payloads across all peers. Drivers gate their global-quiescence points on
// this: a dropped deletion delta that will be retransmitted is still "in
// flight" for the retraction protocol even when no datagram is on the wire.
func (e *Endpoint) InFlight() int { return e.inflight }

// Err returns the first peer-death error, if any.
func (e *Endpoint) Err() error { return e.err }
