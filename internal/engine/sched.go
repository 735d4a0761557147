package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/types"
)

// Scheduler is the cluster-scale half of the engine's RUNTIME layer: it owns
// every node and drives the whole distributed fixpoint as bulk-synchronous
// rounds over a bounded worker pool, instead of threading each message
// through the discrete-event simulator one delivery at a time. Parallelism is
// across nodes — the paper's model, one dataflow per node — never inside one.
//
// One scheduler round runs every node with pending input to local
// quiescence (in parallel — nodes share no mutable state), then delivers the
// buffered cross-node messages in (source node, emission order) — a fixed
// merge order, so a run is deterministic regardless of how the goroutines
// interleave or how many there are. A node receives a whole round of
// messages as one ingest and evaluates them as one batch (rounds.go). Byte
// accounting charges the same ledger (stats.Traffic) the simulator and the
// UDP deployment charge — wire size plus datagram overhead per message — so
// totals are comparable.
//
// The scheduler computes fixpoints and their provenance; it does not model
// latency or bandwidth (no virtual clock) and does not serve distributed
// provenance queries — use the simnet or deploy drivers for those. Final
// relation and provenance-store state matches a simulator run of the same
// program modulo message-arrival order, and matches it exactly for
// monotone (insert-only) workloads.
type Scheduler struct {
	Prog *Program
	Mode ProvMode

	// Traffic is the byte ledger, charged as deliver deposits each message.
	stats.Traffic
	// Rounds counts executed scheduler rounds.
	Rounds int64

	nodes   []*Node
	workers int
	staged  [][]outMsg // per source node; written only by that node's task
	scratch []*Node    // reusable active-node list (Run)
}

// NewScheduler builds a cluster of nNodes engine nodes driven by a pool of
// `workers` goroutines (0 = GOMAXPROCS). The fourth parameter is ignored: a
// shim kept for bench/ (see the note in node.go).
func NewScheduler(prog *Program, mode ProvMode, nNodes, _, workers int) *Scheduler {
	s := &Scheduler{
		Prog:    prog,
		Mode:    mode,
		Traffic: stats.NewTraffic(nNodes),
		workers: workers,
		staged:  make([][]outMsg, nNodes),
	}
	s.nodes = make([]*Node, nNodes)
	for i := range s.nodes {
		n := NewNode(types.NodeID(i), prog, mode, schedTransport{s})
		// A node runs its whole local fixpoint on one goroutine, so each
		// gets a private message free list; deliver (serial, between
		// rounds) releases messages back to the sender's pool once
		// deposited.
		n.Msgs = NewMessagePool()
		s.nodes[i] = n
	}
	return s
}

// outMsg is one staged cross-node message.
type outMsg struct {
	to types.NodeID
	m  *Message
}

// schedTransport buffers outbound messages per source node. Each node's
// local run is the only writer of its staged slice, so concurrent node
// tasks never contend.
type schedTransport struct{ s *Scheduler }

//exspan:hotpath
func (t schedTransport) Send(from, to types.NodeID, m *Message) {
	t.s.staged[from] = append(t.s.staged[from], outMsg{to: to, m: m})
}

// Node returns engine node i.
func (s *Scheduler) Node(i int) *Node { return s.nodes[i] }

// Engines returns every node in node order — the cluster view WriteStates,
// StateDigest and DiffStates read. The slice is the Scheduler's own.
func (s *Scheduler) Engines() []*Node { return s.nodes }

// NumNodes reports the cluster size.
func (s *Scheduler) NumNodes() int { return len(s.nodes) }

// InsertBase deposits a base-tuple insertion at a node (evaluated by Run).
func (s *Scheduler) InsertBase(node types.NodeID, t types.Tuple) { s.deposit(node, t, Insert) }

// DeleteBase deposits a base-tuple retraction at a node.
func (s *Scheduler) DeleteBase(node types.NodeID, t types.Tuple) { s.deposit(node, t, Delete) }

// InjectEvent deposits an event tuple at a node.
func (s *Scheduler) InjectEvent(node types.NodeID, t types.Tuple) { s.deposit(node, t, Insert) }

func (s *Scheduler) deposit(node types.NodeID, t types.Tuple, sign int8) {
	n := s.nodes[node]
	n.deposit(n.baseDelta(t, sign))
}

// Err reports the first engine error across nodes.
func (s *Scheduler) Err() error {
	for _, n := range s.nodes {
		if n.Err != nil {
			return n.Err
		}
	}
	return nil
}

// Run executes scheduler rounds until the cluster is quiescent: no node has
// pending deltas, no messages are in flight, and no node stages retraction
// re-derivations. Quiescence of the delta rounds is the scheduler's global
// quiescence point — every deletion message has been delivered — so staged
// phase-2 work (suspects with surviving alternate derivations, deferred
// aggregate winner promotions) is released there, in node order, and the
// rounds resume until nothing further is staged. It returns the first
// engine error, if any, or names a node still pending after its run, which
// could not start (it held a round scratch) and would be selected forever.
func (s *Scheduler) Run() error {
	if s.scratch == nil {
		s.scratch = make([]*Node, 0, len(s.nodes))
	}
	for {
		active := s.scratch[:0]
		for _, n := range s.nodes {
			if n.Err == nil && n.pending() {
				active = append(active, n)
			}
		}
		if len(active) == 0 {
			// Between rounds this goroutine owns every node.
			each := func(fn func(*Node) bool) bool { return anyNode(s.nodes, fn) }
			if !ReleasePass(each, false) {
				break
			}
			continue
		}
		s.Rounds++
		s.runLocal(active)
		if err := s.Err(); err != nil {
			return err
		}
		for _, n := range active {
			if n.pending() {
				return fmt.Errorf("engine: node %d processed no delta in its run, %d still queued", int(n.ID), len(n.queue)-n.qhead)
			}
		}
		s.deliver()
	}
	return s.Err()
}

// runLocal runs each active node to local quiescence on the worker pool.
func (s *Scheduler) runLocal(active []*Node) {
	w := s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(active) {
		w = len(active)
	}
	if w <= 1 {
		for _, n := range active {
			n.Flush()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(active) {
					return
				}
				active[i].Flush()
			}
		}()
	}
	wg.Wait()
}

// deliver moves staged messages into destination nodes' rings in (source
// node, emission order) and charges byte accounting. Once deposited, the
// message struct is released back to its sender's pool: deliver runs
// serially between rounds, so the unsynchronized pools see one goroutine.
//
//exspan:hotpath
func (s *Scheduler) deliver() {
	for src := range s.staged {
		msgs := s.staged[src]
		for i := range msgs {
			om := msgs[i]
			msgs[i] = outMsg{}
			s.Recv(om.to, s.Charge(types.NodeID(src), om.m.WireSize()))
			s.nodes[om.to].depositMessage(om.m)
			s.nodes[src].Msgs.Put(om.m)
		}
		s.staged[src] = msgs[:0]
	}
}
