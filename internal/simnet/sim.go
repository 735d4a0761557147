// Package simnet is a discrete-event network simulator: the substrate that
// stands in for ns-3 in the original ExSPAN prototype. It provides a
// virtual clock, an event queue, link latency/bandwidth modelling and
// per-node byte accounting, which together reproduce the quantities the
// paper's evaluation measures (communication cost to fixpoint, bandwidth
// over time, query completion latency).
package simnet

import (
	"math"

	"repro/internal/types"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds renders t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a typed tagged union. Message deliveries — the overwhelming
// majority of scheduled work in a fixpoint run — carry their fields inline
// so the send→deliver path never allocates a closure; timers keep the
// func() escape hatch for experiment scripts and topology injection.
type event struct {
	at      Time
	seq     int64
	payload any
	fn      func()
	nw      *Network
	from    types.NodeID
	to      types.NodeID
	size    int32
	// kind discriminates the union: evTimer runs fn, evMessage delivers
	// (from, to, payload, size) through nw. Field order keeps the struct at
	// 64 bytes — it is copied on every heap sift and cleared on every pop.
	kind uint8
}

const (
	evTimer uint8 = iota
	evMessage
)

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is the discrete-event scheduler. It is single-threaded: handlers run
// one at a time in virtual-time order (FIFO for equal timestamps).
//
// The queue is a 4-ary implicit heap over one reusable backing array:
// shallower than a binary heap (fewer cache lines touched per sift) and,
// unlike container/heap, free of the per-push interface boxing that used to
// charge one allocation to every scheduled message.
type Sim struct {
	now    Time
	seq    int64
	events []event
	steps  int64

	// msgCount tracks queued message-delivery events. Zero means no
	// protocol traffic is in flight — the cluster-quiescence signal OnIdle
	// keys on — even while future timer events (experiment scripts, churn
	// batches) remain queued.
	msgCount int

	// OnIdle, when set, is invoked at every protocol-quiescence point: when
	// no message events remain queued (future timers may still be pending —
	// they carry scripted work, not in-flight traffic) and before the clock
	// advances to the next timer or the run returns. It must return true
	// only when it produced new work (scheduled events or made progress
	// that can lead to them); Run and RunUntil then resume the event loop.
	// The engine drivers use it to release staged re-derivations of the
	// retraction protocol, which are only sound to apply once no deletion
	// messages remain in flight anywhere (see ARCHITECTURE.md "Deletion
	// semantics").
	OnIdle func() bool
}

// NewSim creates an empty simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Steps reports the number of events executed so far.
func (s *Sim) Steps() int64 { return s.steps }

// push inserts e into the 4-ary heap, sifting up.
//
//exspan:hotpath
func (s *Sim) push(e event) {
	s.events = append(s.events, e)
	i := len(s.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&s.events[i], &s.events[parent]) {
			break
		}
		s.events[i], s.events[parent] = s.events[parent], s.events[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the backing array never pins payloads or closures.
//
//exspan:hotpath
func (s *Sim) pop() event {
	ev := s.events
	top := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{}
	ev = ev[:n]
	s.events = ev
	// Sift down: move the smallest of up to four children up.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(&ev[c], &ev[min]) {
				min = c
			}
		}
		if !eventLess(&ev[min], &ev[i]) {
			break
		}
		ev[i], ev[min] = ev[min], ev[i]
		i = min
	}
	return top
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.push(event{at: t, seq: s.seq, kind: evTimer, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// scheduleMessage enqueues a message-delivery event with its fields inline:
// no closure, no boxing (payload is a pointer in every production caller).
//
//exspan:hotpath
func (s *Sim) scheduleMessage(t Time, nw *Network, from, to types.NodeID, payload any, size int) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.msgCount++
	s.push(event{at: t, seq: s.seq, kind: evMessage, from: from, to: to, size: int32(size), payload: payload, nw: nw})
}

// dispatch executes one popped event.
//
//exspan:hotpath
func (s *Sim) dispatch(e *event) {
	if e.kind == evMessage {
		e.nw.deliver(e.from, e.to, e.payload, int(e.size))
	} else {
		e.fn()
	}
}

// Run executes events until the queue is empty (a distributed fixpoint for
// protocols without timers) and returns the final virtual time. When an
// OnIdle hook is installed it runs at every protocol-quiescence point: no
// message events queued, before the next timer dispatches and before the
// run returns; the loop resumes while the hook keeps producing work.
func (s *Sim) Run() Time {
	s.run(math.MaxInt64)
	return s.now
}

// RunUntil executes events with timestamps <= deadline and then sets the
// clock to the deadline. Remaining events stay queued. The OnIdle hook runs
// at interior protocol-quiescence points (no messages in flight, even with
// future timers queued), so time-bounded experiment runs observe the same
// release discipline as Run.
func (s *Sim) RunUntil(deadline Time) {
	s.run(deadline)
	if s.now < deadline {
		s.now = deadline
	}
}

// run is Run's and RunUntil's event loop: it dispatches events with
// timestamps <= deadline, offering the OnIdle hook at every quiescence point.
func (s *Sim) run(deadline Time) {
	for {
		for len(s.events) > 0 && s.events[0].at <= deadline {
			if s.msgCount == 0 && s.OnIdle != nil && s.OnIdle() {
				continue // released work may have scheduled messages at now
			}
			e := s.pop()
			if e.kind == evMessage {
				s.msgCount--
			}
			s.now = e.at
			s.steps++
			s.dispatch(&e)
		}
		// Remaining message events are all beyond the deadline (traffic
		// still in flight): not quiescent, stop. Only-timer remainders, or
		// none, are quiescent — offer the hook before stopping.
		if s.msgCount > 0 || s.OnIdle == nil || !s.OnIdle() {
			return
		}
	}
}

// Pending reports whether undelivered events remain.
func (s *Sim) Pending() bool { return len(s.events) > 0 }

// Handler consumes messages delivered by the network.
type Handler interface {
	// HandleMessage is invoked when a message from another node arrives.
	// payload is the in-memory form; size is its modelled wire size in
	// bytes (identical to the UDP datagram size in deployment mode).
	// The payload is only valid for the duration of the call: the
	// transport that owns the message may recycle it once the handler
	// returns (see the Message/Msg pools in engine and provquery).
	HandleMessage(from types.NodeID, payload any, size int)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from types.NodeID, payload any, size int)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from types.NodeID, payload any, size int) { f(from, payload, size) }
