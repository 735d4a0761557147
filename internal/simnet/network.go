package simnet

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/types"
)

// Link describes one bidirectional physical link.
type Link struct {
	Latency Time  // one-way propagation delay
	Bps     int64 // bandwidth in bits per second
}

type edge struct{ u, v types.NodeID }

func mkEdge(u, v types.NodeID) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u, v}
}

// neighbor is one adjacency entry with the link parameters inlined, so
// Dijkstra's inner loop walks a flat slice instead of hitting the links map
// once per edge.
type neighbor struct {
	to  types.NodeID
	lat Time
	bps int64
}

// Network models the physical substrate: nodes joined by links with latency
// and bandwidth. Messages between non-adjacent nodes (provenance queries
// are node-to-node at the IP layer) follow the minimum-latency path; the
// transmission delay uses the bottleneck bandwidth along that path.
type Network struct {
	sim      *Sim
	n        int
	links    map[edge]Link
	adj      [][]neighbor // indexed by NodeID
	handlers []Handler    // indexed by NodeID

	// Route caches are per-source and lazy: a topology change only bumps
	// topoGen, and a source's row is recomputed by Dijkstra on its next
	// send. Under churn this replaces the old eager all-pairs recompute
	// with one single-source run per node that actually transmits.
	routeLat [][]Time  // per source; nil until first used
	routeBps [][]int64 // per source; nil until first used
	routeGen []uint64  // topoGen the source's row was computed at (0 = never)
	topoGen  uint64

	// Dijkstra scratch, reused across recomputes.
	djDone []bool
	djHeap []dijkstraItem

	// Traffic is the byte ledger: Send charges every message that reaches
	// the wire to its sender, deliver books it at its receiver.
	stats.Traffic
	Recorder *stats.Bandwidth // optional time-bucketed recorder

	// DroppedMsgs counts every message the network discarded instead of
	// delivering: sends to unreachable destinations (churned-away routes)
	// or to no node of the network, and — under an installed FaultPlan —
	// injected drops, partition cuts and crash windows. It was previously a silent code path; experiment
	// output surfaces it so loss is never invisible in byte accounting.
	DroppedMsgs int64

	faults *FaultPlan
}

// NewNetwork creates a network of n nodes with no links.
func NewNetwork(sim *Sim, n int) *Network {
	return &Network{
		sim:      sim,
		n:        n,
		links:    make(map[edge]Link),
		adj:      make([][]neighbor, n),
		handlers: make([]Handler, n),
		routeLat: make([][]Time, n),
		routeBps: make([][]int64, n),
		routeGen: make([]uint64, n),
		topoGen:  1,
		Traffic:  stats.NewTraffic(n),
	}
}

// Sim returns the simulator driving this network.
func (nw *Network) Sim() *Sim { return nw.sim }

// InstallFaults attaches a fault schedule to the network (nil removes it).
// Faults apply only to inter-node traffic; self-deliveries are local
// events and never touch the wire.
func (nw *Network) InstallFaults(p *FaultPlan) {
	if p != nil {
		p.init()
	}
	nw.faults = p
}

// Faults returns the installed fault schedule, if any.
func (nw *Network) Faults() *FaultPlan { return nw.faults }

// NumNodes reports the number of nodes.
func (nw *Network) NumNodes() int { return nw.n }

// Register installs the message handler for a node.
func (nw *Network) Register(node types.NodeID, h Handler) { nw.handlers[node] = h }

// AddLink installs (or replaces) the bidirectional link u-v.
func (nw *Network) AddLink(u, v types.NodeID, l Link) {
	e := mkEdge(u, v)
	if _, exists := nw.links[e]; exists {
		nw.setNeighbor(u, v, l)
		nw.setNeighbor(v, u, l)
	} else {
		nw.adj[u] = append(nw.adj[u], neighbor{to: v, lat: l.Latency, bps: l.Bps})
		nw.adj[v] = append(nw.adj[v], neighbor{to: u, lat: l.Latency, bps: l.Bps})
	}
	nw.links[e] = l
	nw.topoGen++
}

func (nw *Network) setNeighbor(u, v types.NodeID, l Link) {
	list := nw.adj[u]
	for i := range list {
		if list[i].to == v {
			list[i].lat, list[i].bps = l.Latency, l.Bps
			return
		}
	}
}

// RemoveLink removes the bidirectional link u-v; it reports whether the
// link existed.
func (nw *Network) RemoveLink(u, v types.NodeID) bool {
	e := mkEdge(u, v)
	if _, ok := nw.links[e]; !ok {
		return false
	}
	delete(nw.links, e)
	nw.adj[u] = removeNeighbor(nw.adj[u], v)
	nw.adj[v] = removeNeighbor(nw.adj[v], u)
	nw.topoGen++
	return true
}

// removeNeighbor swap-deletes the entry for x. Adjacency order is not part
// of the simulator's contract (routing orders by latency, FIFO ties by
// scheduling sequence), so the O(1) delete is safe.
func removeNeighbor(list []neighbor, x types.NodeID) []neighbor {
	for i := range list {
		if list[i].to == x {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = neighbor{}
			return list[:last]
		}
	}
	return list
}

// HasLink reports whether a direct link u-v exists.
func (nw *Network) HasLink(u, v types.NodeID) bool {
	_, ok := nw.links[mkEdge(u, v)]
	return ok
}

// Neighbors appends the direct neighbors of u to dst and returns it.
func (nw *Network) Neighbors(u types.NodeID, dst []types.NodeID) []types.NodeID {
	for _, nb := range nw.adj[u] {
		dst = append(dst, nb.to)
	}
	return dst
}

// NumLinks reports the number of installed links.
func (nw *Network) NumLinks() int { return len(nw.links) }

// Send transmits payload (with modelled size bytes) from one node to
// another, delivering it after the path's propagation and transmission
// delay. Messages to self are delivered after a fixed small local delay.
// The destination's handler sees the charged size (size plus the datagram
// overhead); a self-delivery never reaches the wire and keeps its bare size.
// A send to a node outside the network (a destination read off a hostile
// message, say) is dropped uncharged, as a deployed node drops it.
//
//exspan:hotpath
func (nw *Network) Send(from, to types.NodeID, payload any, size int) {
	if uint(to) >= uint(nw.n) {
		nw.DroppedMsgs++
		return
	}
	var delay Time
	if from == to {
		// Self-deliveries are local events: they never reach the wire and
		// cost no bandwidth, mirroring RapidNet local event dispatch.
		delay = 10 * Microsecond
	} else {
		lat, bps := nw.pathCost(from, to)
		if bps <= 0 {
			// Unreachable right now (e.g. under churn): drop, as UDP would.
			// Nothing was put on the wire, so nothing is charged.
			nw.DroppedMsgs++
			return
		}
		if f := nw.faults; f != nil {
			if f.Down(from, nw.sim.now) {
				// A crashed sender emits nothing: the send never happened.
				nw.DroppedMsgs++
				f.Cut++
				return
			}
			delay = f.jitter()
		}
		size = nw.Charge(from, size)
		if nw.Recorder != nil {
			nw.Recorder.Record(int64(nw.sim.Now()), int64(size))
		}
		delay += lat + Time(int64(size)*8*int64(Second)/bps)
	}
	nw.sim.scheduleMessage(nw.sim.now+delay, nw, from, to, payload, size)
}

// deliver hands a scheduled message to its destination handler. Under an
// installed FaultPlan this is the loss point: the message consumed
// bandwidth (charged at send time, as on a real wire), and is now dropped,
// duplicated or delivered according to the schedule.
//
//exspan:hotpath
func (nw *Network) deliver(from, to types.NodeID, payload any, size int) {
	if f := nw.faults; f != nil && from != to {
		if f.cutNow(from, to, nw.sim.now) {
			nw.DroppedMsgs++
			f.Cut++
			return
		}
		if f.dropNow() {
			nw.DroppedMsgs++
			f.Dropped++
			return
		}
		if f.dupNow() {
			// The copy re-enters deliver at its own arrival time, where the
			// schedule rolls for it again (it may be cut, re-duplicated...).
			f.Duplicated++
			nw.sim.scheduleMessage(nw.sim.now+Microsecond+f.jitter(), nw, from, to, payload, size)
		}
	}
	h := nw.handlers[to]
	if h == nil {
		return
	}
	if from != to {
		nw.Recv(to, size)
	}
	h.HandleMessage(from, payload, size)
}

// pathCost returns (latency, bottleneck bandwidth) of the minimum-latency
// path between two nodes, or (0, 0) when unreachable. The source's route
// row is recomputed on demand when stale.
func (nw *Network) pathCost(u, v types.NodeID) (Time, int64) {
	if nw.routeGen[u] != nw.topoGen {
		nw.dijkstraFrom(u)
		nw.routeGen[u] = nw.topoGen
	}
	return nw.routeLat[u][v], nw.routeBps[u][v]
}

type dijkstraItem struct {
	node types.NodeID
	dist Time
}

// djPush/djPop implement a concrete-typed binary heap on the reusable
// scratch slice (container/heap would box every item through `any`).
func djPush(h []dijkstraItem, it dijkstraItem) []dijkstraItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func djPop(h []dijkstraItem) (dijkstraItem, []dijkstraItem) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			min = r
		}
		if h[i].dist <= h[min].dist {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top, h
}

// dijkstraFrom recomputes the minimum-latency routes of a single source
// into its (reused) route row, using per-Network scratch arrays. Churn thus
// costs one single-source run per sender instead of an eager all-pairs
// recompute per topology change.
func (nw *Network) dijkstraFrom(src types.NodeID) {
	const inf = Time(1) << 62
	lat, bps := nw.routeLat[src], nw.routeBps[src]
	if lat == nil {
		lat = make([]Time, nw.n)
		bps = make([]int64, nw.n)
		nw.routeLat[src], nw.routeBps[src] = lat, bps
	}
	if nw.djDone == nil {
		nw.djDone = make([]bool, nw.n)
	}
	done := nw.djDone
	for i := range lat {
		lat[i] = inf
		bps[i] = 0
		done[i] = false
	}
	lat[src] = 0
	bps[src] = 1 << 62
	h := append(nw.djHeap[:0], dijkstraItem{src, 0})
	for len(h) > 0 {
		var it dijkstraItem
		it, h = djPop(h)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, nb := range nw.adj[u] {
			nd := lat[u] + nb.lat
			if nd < lat[nb.to] {
				lat[nb.to] = nd
				bps[nb.to] = minBps(bps[u], nb.bps)
				h = djPush(h, dijkstraItem{nb.to, nd})
			}
		}
	}
	nw.djHeap = h[:0]
	for i := range lat {
		if lat[i] == inf {
			lat[i] = 0
			bps[i] = 0
		}
	}
}

func minBps(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// String summarizes the network.
func (nw *Network) String() string {
	return fmt.Sprintf("simnet(%d nodes, %d links)", nw.n, len(nw.links))
}
