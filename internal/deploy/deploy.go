// Package deploy runs ExSPAN nodes over real UDP sockets on the loopback
// interface — the "deployment mode" of the paper's testbed experiments
// (§7.4, Figs 16-17). The engine and query-processor code is identical to
// the simulation; only the transport differs: messages are serialized into
// UDP datagrams, and time is wall-clock time.
package deploy

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provquery"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/types"
)

// Datagram type tags. tagReliable wraps either of the other two in a
// reliable frame: tag(1) + from(4) + frame header (transport.HeaderBytes) +
// [inner tag(1) + payload] — pure acks carry no inner part. The layout is
// normative in docs/wire-format.md "Reliable frame header".
const (
	tagEngine   byte = 0
	tagQuery    byte = 1
	tagReliable byte = 2
)

// Config describes a deployed cluster.
type Config struct {
	Topo    *topology.Topology
	Prog    *ndlog.Program
	Mode    engine.ProvMode
	Central types.NodeID
	UDF     provquery.UDF
	CacheOn bool

	// Base is extra per-node EDB seeded by InsertLinks after (or, with
	// NoLinkTuples, instead of) the topology's link tuples — the workload
	// suite's identifier/liveness/policy atoms.
	Base map[types.NodeID][]types.Tuple

	// NoLinkTuples suppresses the automatic link tuples for programs whose
	// EDB does not include a link predicate (CHORD).
	NoLinkTuples bool

	// Reliable routes all inter-node traffic through ack/retransmit
	// endpoints (package transport): exactly-once in-order delivery over
	// the lossy UDP substrate, at the cost of one frame header per
	// datagram plus ack traffic. Required for fault injection and for
	// Kill/Restart — a lost or duplicated delta permanently corrupts the
	// count-based provenance state.
	Reliable bool

	// Loss and Dup inject per-datagram drop/duplication probabilities at
	// the send path (self-traffic is exempt: loopback to the own socket is
	// a local event, as in the simulator). Requires Reliable.
	Loss, Dup float64

	// FaultSeed seeds the injection RNG, making the drop/dup decision
	// sequence reproducible (wall-clock interleaving still varies).
	FaultSeed int64

	// Transport tunes the reliable endpoints (zero value = package
	// transport defaults).
	Transport transport.Config
}

// DefaultFixpointTimeout backstops WaitFixpoint against genuine datagram
// loss when neither the call site nor Config picks a budget.
const DefaultFixpointTimeout = 120 * time.Second

// FixpointTimeoutError reports a WaitFixpoint that gave up: work items were
// still outstanding when the loss backstop elapsed.
type FixpointTimeoutError struct {
	Waited          time.Duration
	Sent, Processed int64
}

func (e *FixpointTimeoutError) Error() string {
	return fmt.Sprintf("deploy: no fixpoint after %v (%d of %d work items retired)",
		e.Waited, e.Processed, e.Sent)
}

// Cluster is a set of ExSPAN node processes communicating over UDP.
type Cluster struct {
	Cfg   Config
	Prog  *engine.Program
	Nodes []*NodeProc
	addrs []*net.UDPAddr
	start time.Time

	sent      atomic.Int64 // work items issued (datagrams + local commands)
	processed atomic.Int64 // work items fully handled

	// quiet receives a (coalesced) signal whenever the processed counter
	// catches up with sent — the deployment's analogue of the simulator's
	// empty event queue. WaitFixpoint blocks on it instead of sleep-polling,
	// so convergence detection is driven by work accounting, not timers.
	quiet chan struct{}

	// Dropped counts every datagram discarded instead of delivered:
	// injected faults, traffic to/from killed nodes, malformed or truncated
	// receives (the socket-overflow analogue of the simulator's
	// Network.DroppedMsgs), and sends addressed to no node of the cluster.
	Dropped atomic.Int64

	// traffic is the cluster's byte ledger: every node's worker charges
	// each datagram it writes (header and overhead included) under
	// trafficMu. Receives are not booked.
	trafficMu sync.Mutex
	traffic   stats.Traffic

	faultMu  sync.Mutex
	faultRng *rand.Rand
}

// NodeProc is one deployed node: an engine + query processor served by a
// single worker goroutine, with a UDP socket.
type NodeProc struct {
	ID     types.NodeID
	Engine *engine.Node
	Query  *provquery.Processor

	cl     *Cluster
	conn   *net.UDPConn
	inbox  chan work
	done   chan struct{}
	closed sync.Once

	// Message free lists. All engine and query activity of a node runs on
	// its single worker goroutine, so the unsynchronized pools are safe:
	// outgoing messages are released right after serialization, incoming
	// ones after their handler returns. (This holds in reliable mode too:
	// the endpoint's send queue stores serialized bytes, never the pooled
	// struct.)
	engPool *engine.MessagePool
	qryPool *provquery.MsgPool

	// ep is the reliable-transport endpoint (Config.Reliable). Like the
	// engine it is confined to the worker goroutine: frames and timer
	// callbacks are dispatched through the inbox.
	ep *transport.Endpoint

	// down marks a fail-paused node (Kill/Restart): all its network
	// traffic is discarded in both directions while engine, endpoint and
	// socket state survive. Self-datagrams are exempt — they are local
	// events, as in the simulator's crash windows.
	down atomic.Bool

	errMu  sync.Mutex
	netErr error // first transport-level error (fault)
}

type work struct {
	from    types.NodeID
	engMsg  *engine.Message
	qryMsg  *provquery.Msg
	frame   *transport.Frame
	command func()
}

// relPayload is what a reliable endpoint's send queue holds: the inner tag
// plus the already-serialized message bytes, ready for retransmission long
// after the originating struct went back to its pool.
type relPayload struct {
	tag  byte
	data []byte
}

type udpTransport struct{ np *NodeProc }

func (t udpTransport) Send(from, to types.NodeID, m *engine.Message) {
	t.np.send(to, tagEngine, m.Encode(nil))
	t.np.engPool.Put(m)
}

// NewCluster binds sockets and builds node processes; call Start to begin
// serving and InsertLinks to inject the topology's base tuples.
func NewCluster(cfg Config) (*Cluster, error) {
	prog, err := engine.Compile(cfg.Prog)
	if err != nil {
		return nil, err
	}
	if (cfg.Loss > 0 || cfg.Dup > 0) && !cfg.Reliable {
		return nil, fmt.Errorf("deploy: fault injection requires Config.Reliable — a lost or duplicated delta corrupts provenance counts")
	}
	cl := &Cluster{Cfg: cfg, Prog: prog, start: time.Now(), quiet: make(chan struct{}, 1),
		traffic: stats.NewTraffic(cfg.Topo.N)}
	if cfg.Loss > 0 || cfg.Dup > 0 {
		cl.faultRng = rand.New(rand.NewSource(cfg.FaultSeed))
	}
	alloc := algebra.NewVarAlloc()
	udf := cfg.UDF
	if udf == nil {
		udf = provquery.Polynomial{}
	}
	for i := 0; i < cfg.Topo.N; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			cl.Stop()
			return nil, fmt.Errorf("deploy: listen: %w", err)
		}
		_ = conn.SetReadBuffer(4 << 20)
		_ = conn.SetWriteBuffer(4 << 20)
		np := &NodeProc{
			ID:      types.NodeID(i),
			cl:      cl,
			conn:    conn,
			inbox:   make(chan work, 4096),
			done:    make(chan struct{}),
			engPool: engine.NewMessagePool(),
			qryPool: provquery.NewMsgPool(),
		}
		if cfg.Reliable {
			np.ep = transport.New(np.ID, cfg.Transport, transport.Hooks{
				Send: func(to types.NodeID, f *transport.Frame) {
					np.writeDatagram(to, np.frameReliable(f))
				},
				Deliver: func(from types.NodeID, payload any, size int) {
					rp := payload.(relPayload)
					switch rp.tag {
					case tagEngine:
						if m, err := engine.DecodeMessage(rp.data); err == nil {
							np.Engine.HandleMessage(from, m)
							np.engPool.Put(m)
							return
						}
					case tagQuery:
						if m, err := provquery.DecodeMsg(rp.data); err == nil {
							np.Query.Handle(from, m)
							np.qryPool.Put(m)
							return
						}
					}
					cl.Dropped.Add(1)
				},
				Schedule: func(delayNs int64, fn func()) {
					time.AfterFunc(time.Duration(delayNs), func() { np.tryDo(fn) })
				},
				// Payload-level work accounting: the item issued at
				// sendReliable is retired when the peer acks it (or the
				// peer is declared dead) — a dropped datagram awaiting
				// retransmission keeps the cluster non-quiescent.
				Release:  func(any) { cl.workDone() },
				PeerDead: np.fault,
			})
		}
		en := engine.NewNode(np.ID, prog, cfg.Mode, udpTransport{np}, alloc)
		en.Central = cfg.Central
		en.Msgs = np.engPool
		qp := provquery.NewProcessor(np.ID, en.Store, udf, func(to types.NodeID, m *provquery.Msg) {
			np.send(to, tagQuery, m.Encode(nil))
			np.qryPool.Put(m)
		})
		qp.CacheOn = cfg.CacheOn
		qp.Msgs = np.qryPool
		np.Engine = en
		np.Query = qp
		cl.Nodes = append(cl.Nodes, np)
		cl.addrs = append(cl.addrs, conn.LocalAddr().(*net.UDPAddr))
	}
	return cl, nil
}

// Start launches the receive and worker goroutines of every node.
func (c *Cluster) Start() {
	for _, np := range c.Nodes {
		go np.recvLoop()
		go np.workLoop()
	}
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	for _, np := range c.Nodes {
		if np == nil {
			continue
		}
		np.closed.Do(func() {
			close(np.done)
			_ = np.conn.Close()
		})
	}
}

// insertBatch is how many EDB tuples InsertLinks injects between quiescence
// waits (four links' worth). Flooding every link at once used to race the
// whole boot cascade against the kernel's UDP buffers; under -race slowdowns
// the receive loops fell behind, datagrams were silently dropped, and the
// fixpoint stalled — the documented flake of TestDeployRingPathVector.
// Draining between small batches bounds the in-flight datagram population
// instead of relying on wall-clock luck.
const insertBatch = 8

// InsertLinks injects the workload's EDB at its owning nodes in the boot
// order of apps.BootEDB — the topology's symmetric link tuples (unless
// Config.NoLinkTuples), then Config.Base in node order — pacing injection by
// cluster quiescence (never by wall-clock sleeps).
func (c *Cluster) InsertLinks() {
	fed := 0
	apps.BootEDB(c.Cfg.Topo, c.Cfg.NoLinkTuples, c.Cfg.Base, func(at types.NodeID, t types.Tuple) {
		np := c.Nodes[at]
		np.Do(func() { np.Engine.InsertBase(t) })
		if fed++; fed%insertBatch == 0 {
			c.waitQuiet(10 * time.Second)
		}
	})
}

// Do runs fn on the node's worker goroutine (all engine state is confined
// to it).
func (np *NodeProc) Do(fn func()) {
	np.cl.sent.Add(1)
	np.inbox <- work{command: fn}
}

// tryDo is Do for callers that must not block forever on a stopped node
// (retransmission timer callbacks firing after Stop): the issued work item
// is retired immediately if the node is gone.
func (np *NodeProc) tryDo(fn func()) {
	np.cl.sent.Add(1)
	select {
	case np.inbox <- work{command: fn}:
	case <-np.done:
		np.cl.workDone()
	}
}

// header prepends tag + sender id to payload.
func (np *NodeProc) header(buf []byte, tag byte) []byte {
	buf = append(buf, tag)
	id := uint32(np.ID)
	return append(buf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// frameReliable serializes one reliable frame into a fresh datagram buffer.
func (np *NodeProc) frameReliable(f *transport.Frame) []byte {
	buf := make([]byte, 0, 5+transport.HeaderBytes+1+f.Size)
	buf = np.header(buf, tagReliable)
	buf = transport.EncodeHeader(buf, f.Seq, f.Ack)
	if f.Seq != 0 {
		rp := f.Payload.(relPayload)
		buf = append(buf, rp.tag)
		buf = append(buf, rp.data...)
	}
	return buf
}

// send ships one serialized engine or query message: through the reliable
// endpoint when there is one (self-traffic excepted), as a plain datagram
// otherwise. The destination is a node value out of a tuple or a prov row —
// a head's location attribute, a derivation's RLoc — so a hostile or corrupt
// one may name no node of the cluster: such a send is dropped and counted,
// uncharged and with no work issued.
func (np *NodeProc) send(to types.NodeID, tag byte, payload []byte) {
	switch {
	case to < 0 || int(to) >= len(np.cl.addrs):
		np.cl.Dropped.Add(1)
	case np.ep != nil && to != np.ID:
		np.sendReliable(to, tag, payload)
	default:
		np.sendDatagram(to, tag, payload)
	}
}

// sendReliable queues one payload on the node's endpoint. Work accounting
// is payload-level here: the item issued now is retired by the Release
// hook on ack (or peer death), so retransmits and pure acks stay uncounted
// and quiescence means "everything delivered", not "everything written".
func (np *NodeProc) sendReliable(to types.NodeID, tag byte, payload []byte) {
	np.cl.sent.Add(1)
	np.ep.Send(to, relPayload{tag: tag, data: payload}, len(payload)+1)
}

// sendDatagram writes one unreliable, work-counted datagram (the classic
// path; also self-traffic in reliable mode — loopback to the own socket
// never crosses the faulty wire).
func (np *NodeProc) sendDatagram(to types.NodeID, tag byte, payload []byte) {
	buf := np.header(make([]byte, 0, len(payload)+5), tag)
	buf = append(buf, payload...)
	np.cl.sent.Add(1)
	if !np.writeDatagram(to, buf) {
		// A send that never reaches the peer would stall quiescence;
		// account it as processed.
		np.cl.workDone()
	}
}

// writeDatagram charges and writes one framed datagram, applying the
// fail-pause window and injected faults. Reports whether the datagram made
// it onto the wire.
func (np *NodeProc) writeDatagram(to types.NodeID, buf []byte) bool {
	if to != np.ID && np.down.Load() {
		// A killed node emits nothing; uncharged, as the send never happened.
		np.cl.Dropped.Add(1)
		return false
	}
	np.cl.trafficMu.Lock()
	np.cl.traffic.Charge(np.ID, len(buf))
	np.cl.trafficMu.Unlock()

	if to != np.ID && np.cl.rollFault(np.cl.Cfg.Loss) {
		// Charged, then lost on the wire — as the simulator does it.
		np.cl.Dropped.Add(1)
		return false
	}
	if _, err := np.conn.WriteToUDP(buf, np.cl.addrs[to]); err != nil {
		return false
	}
	if to != np.ID && np.cl.rollFault(np.cl.Cfg.Dup) {
		_, _ = np.conn.WriteToUDP(buf, np.cl.addrs[to])
	}
	return true
}

// rollFault draws one seeded fault decision (sends run on many worker
// goroutines, hence the lock; the decision sequence is reproducible, the
// goroutine interleaving is not).
func (c *Cluster) rollFault(prob float64) bool {
	if prob <= 0 || c.faultRng == nil {
		return false
	}
	c.faultMu.Lock()
	v := c.faultRng.Float64()
	c.faultMu.Unlock()
	return v < prob
}

func (np *NodeProc) recvLoop() {
	buf := make([]byte, 1<<16)
	for {
		n, src, err := np.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		w, ok := np.parse(buf[:n], src)
		if !ok {
			continue
		}
		select {
		case np.inbox <- w:
		case <-np.done:
			return
		}
	}
}

// parse authenticates and decodes one datagram into a work item. A datagram
// is a cluster member's only if its header's sender id names a node and it
// arrived from that node's socket; anything else is foreign — dropped and
// counted, retiring no work item, since no member issued one. A member's
// datagram that is dropped (fail-pause window, malformed payload) retires the
// item its sender issued; reliable frames were never work-counted. A panic
// while decoding drops the datagram the same way and is reported through
// Cluster.Err.
func (np *NodeProc) parse(dgram []byte, src *net.UDPAddr) (w work, ok bool) {
	if len(dgram) < 5 {
		np.cl.Dropped.Add(1)
		return w, false
	}
	tag := dgram[0]
	from := types.NodeID(int32(uint32(dgram[1])<<24 | uint32(dgram[2])<<16 | uint32(dgram[3])<<8 | uint32(dgram[4])))
	if !np.cl.isMember(from, src) {
		np.cl.Dropped.Add(1)
		return w, false
	}
	drop := func() (work, bool) {
		np.cl.Dropped.Add(1)
		if tag != tagReliable {
			np.cl.workDone()
		}
		return work{}, false
	}
	defer func() {
		if r := recover(); r != nil {
			np.fault(fmt.Errorf("deploy: node %s: panic decoding a datagram from %s: %v", np.ID, from, r))
			w, ok = drop()
		}
	}()
	if from != np.ID && np.down.Load() {
		// Fail-pause: a killed node hears nothing. Reliable senders
		// retransmit after Restart.
		return drop()
	}
	w.from = from
	body := dgram[5:]
	switch tag {
	case tagEngine:
		m, err := engine.DecodeMessage(append([]byte(nil), body...))
		if err != nil {
			return drop()
		}
		w.engMsg = m
	case tagQuery:
		m, err := provquery.DecodeMsg(append([]byte(nil), body...))
		if err != nil {
			return drop()
		}
		w.qryMsg = m
	case tagReliable:
		if np.ep == nil {
			return drop()
		}
		seq, ack, err := transport.DecodeHeader(body)
		if err != nil {
			return drop()
		}
		f := &transport.Frame{Seq: seq, Ack: ack}
		if seq != 0 {
			inner := body[transport.HeaderBytes:]
			if len(inner) < 1 {
				return drop()
			}
			f.Payload = relPayload{tag: inner[0], data: append([]byte(nil), inner[1:]...)}
			f.Size = len(inner)
		}
		w.frame = f
	default:
		return drop()
	}
	return w, true
}

// isMember reports whether a datagram claiming to come from node from
// arrived from that node's socket.
func (c *Cluster) isMember(from types.NodeID, src *net.UDPAddr) bool {
	if from < 0 || int(from) >= len(c.addrs) || src == nil {
		return false
	}
	a := c.addrs[from]
	return src.Port == a.Port && src.IP.Equal(a.IP)
}

// fault records the node's first transport-level error (a dead peer, a
// receive-path panic) for Cluster.Err.
func (np *NodeProc) fault(err error) {
	np.errMu.Lock()
	if np.netErr == nil {
		np.netErr = err
	}
	np.errMu.Unlock()
}

func (np *NodeProc) workLoop() {
	for {
		select {
		case w := <-np.inbox:
			np.handle(w)
		case <-np.done:
			return
		}
	}
}

// handle runs one work item on the worker and retires it. A panic in a
// handler does not take the node down: it becomes the engine's Err (if none
// is recorded yet), which halts the node's evaluation, and the item still
// retires, so the process, the other nodes and WaitFixpoint carry on.
func (np *NodeProc) handle(w work) {
	if w.frame == nil {
		// Frames carry their own payload-level accounting (issued at
		// sendReliable, retired by the sender's Release hook on ack).
		defer np.cl.workDone()
	}
	defer func() {
		if r := recover(); r != nil && np.Engine.Err == nil {
			np.Engine.Err = fmt.Errorf("deploy: node %s: panic handling input from %s: %v", np.ID, w.from, r)
		}
	}()
	switch {
	case w.command != nil:
		w.command()
	case w.frame != nil:
		np.ep.OnFrame(w.from, w.frame)
	case w.engMsg != nil:
		np.Engine.HandleMessage(w.from, w.engMsg)
		np.engPool.Put(w.engMsg)
	case w.qryMsg != nil:
		np.Query.Handle(w.from, w.qryMsg)
		np.qryPool.Put(w.qryMsg)
	}
}

// Kill fail-pauses a node: from now on all its network traffic is dropped
// in both directions, while its engine, endpoint, socket and worker state
// survive (the durable-state story is ROADMAP item 4 — a restarted process
// with fresh state could not reconcile derivation counts). Requires
// Config.Reliable: without retransmission the silenced deltas would be
// lost for good.
func (c *Cluster) Kill(id types.NodeID) {
	if !c.Cfg.Reliable {
		panic("deploy: Kill requires Config.Reliable (lost deltas corrupt provenance counts)")
	}
	c.Nodes[id].down.Store(true)
}

// Restart ends a node's fail-pause window. Peers' retransmission timers
// (and the node's own) resume every silenced conversation, which stands in
// for base-tuple re-announcement.
func (c *Cluster) Restart(id types.NodeID) {
	c.Nodes[id].down.Store(false)
}

// workDone retires one work item and pokes WaitFixpoint when the cluster
// may have gone quiescent. Reading sent after bumping processed is safe:
// any still-running handler keeps its own item unretired, so equality is
// only observable once every issued item (and its sends) is accounted.
func (c *Cluster) workDone() {
	if c.processed.Add(1) == c.sent.Load() {
		select {
		case c.quiet <- struct{}{}:
		default:
		}
	}
}

// WaitFixpoint blocks until the cluster is quiescent (every issued work
// item fully handled and no node staging retraction re-derivations) or the
// timeout elapses; it returns the elapsed wall-clock time since cluster
// start, and a *FixpointTimeoutError if the budget ran out. A timeout <= 0
// selects DefaultFixpointTimeout. Quiescence is detected from the work accounting
// itself — workers signal when processed catches up with sent — so a
// loaded or race-instrumented run converges exactly as fast as it actually
// processes work, with no sleep-poll granularity in the way. The timeout
// remains as a backstop for genuine, unrecovered datagram loss.
//
// Work-accounting quiescence is the deployment's global quiescence point —
// no deletion datagram can still be in flight — so the retraction
// protocol's phase 2 (engine.ReleasePass) runs here and the wait repeats
// until a quiescent pass releases nothing. Under reliable transport a payload
// only retires on ack (or peer death), so counters-equal also implies no
// endpoint holds unacked data: a dropped delta awaiting retransmission
// keeps the cluster non-quiescent and the staged work unreleased.
func (c *Cluster) WaitFixpoint(timeout time.Duration) (time.Duration, error) {
	if timeout <= 0 {
		timeout = DefaultFixpointTimeout
	}
	deadline := time.Now().Add(timeout)
	for {
		budget := time.Until(deadline)
		if budget <= 0 || !c.waitQuiet(budget) {
			return time.Since(c.start), &FixpointTimeoutError{
				Waited:    timeout,
				Sent:      c.sent.Load(),
				Processed: c.processed.Load(),
			}
		}
		released := engine.ReleasePass(func(fn func(*engine.Node) bool) bool {
			var any atomic.Bool
			c.onWorkers(func(np *NodeProc) {
				if fn(np.Engine) {
					any.Store(true)
				}
			})
			return any.Load()
		}, true)
		if !released {
			return time.Since(c.start), nil
		}
	}
}

// onWorkers applies fn to every node on that node's worker goroutine —
// where its engine and endpoint state is confined, so the call also
// quiesces in-flight handling — dispatching to all workers at once and
// returning when every call has.
func (c *Cluster) onWorkers(fn func(*NodeProc)) {
	var wg sync.WaitGroup
	for _, np := range c.Nodes {
		np := np
		wg.Add(1)
		np.Do(func() {
			defer wg.Done()
			fn(np)
		})
	}
	wg.Wait()
}

// waitQuiet blocks until processed == sent or the budget elapses. The
// fallback ticker re-checks the counters even without a signal, covering
// the benign race where equality is reached just before a waiter arrives.
func (c *Cluster) waitQuiet(budget time.Duration) bool {
	deadline := time.NewTimer(budget)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s := c.sent.Load(); s == c.processed.Load() && s == c.sent.Load() {
			return true
		}
		select {
		case <-c.quiet:
		case <-tick.C:
		case <-deadline.C:
			s := c.sent.Load()
			return s == c.processed.Load() && s == c.sent.Load()
		}
	}
}

// Err reports the first engine or transport error across nodes.
func (c *Cluster) Err() error {
	for _, np := range c.Nodes {
		if err := np.Engine.Err; err != nil {
			return err
		}
		np.errMu.Lock()
		err := np.netErr
		np.errMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// TransportStats sums the reliable-endpoint counters across nodes, each
// endpoint read on its own worker. Unreliable clusters have no endpoints:
// all zeros, and no worker is disturbed.
func (c *Cluster) TransportStats() transport.Stats {
	var mu sync.Mutex
	var s transport.Stats
	if !c.Cfg.Reliable {
		return s
	}
	c.onWorkers(func(np *NodeProc) {
		mu.Lock()
		s.Add(np.ep.Stats)
		mu.Unlock()
	})
	return s
}

// Traffic returns a copy of the cluster's byte ledger.
func (c *Cluster) Traffic() stats.Traffic {
	c.trafficMu.Lock()
	defer c.trafficMu.Unlock()
	return c.traffic.Clone()
}

// TotalSentBytes sums bytes sent by all nodes.
func (c *Cluster) TotalSentBytes() int64 { return c.Traffic().TotalBytes }

// AvgSentKB reports the per-node average bytes sent, in kilobytes.
func (c *Cluster) AvgSentKB() float64 {
	return float64(c.TotalSentBytes()) / float64(len(c.Nodes)) / 1e3
}

// Engines returns every node's engine in node order — the cluster view
// engine.WriteStates, StateDigest and DiffStates read. It first runs a no-op
// on every worker goroutine, where engine state is confined: that round trip
// is the read barrier making the workers' writes visible to the caller. Read
// the engines only while the cluster is quiescent (after WaitFixpoint) or
// stopped; a worker handling new input races the reader.
func (c *Cluster) Engines() []*engine.Node {
	c.onWorkers(func(*NodeProc) {})
	out := make([]*engine.Node, len(c.Nodes))
	for i, np := range c.Nodes {
		out[i] = np.Engine
	}
	return out
}

// Snapshot returns every visible tuple of a predicate across nodes, read
// through Engines.
func (c *Cluster) Snapshot(pred string) []types.Tuple {
	var out []types.Tuple
	for _, en := range c.Engines() {
		out = append(out, en.Tuples(pred)...)
	}
	return out
}
