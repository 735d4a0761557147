package engine

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/types"
)

// scratch is what a run of rounds reads and writes and nothing outlives: the
// fire list and the aggregate updates between two rounds, the buffers one
// rule firing and one aggregate refresh fill, and the delta being fired. All
// of it is empty once a node is locally quiescent, so a node holds a scratch
// only while it runs (Node.borrow, Node.giveBack) and the Program keeps the
// rest on one free list: a cluster holds as many as it runs nodes at once —
// one on the simulator, the worker count on the Scheduler, the running nodes
// of a deployment — not one per node.
type scratch struct {
	// The firings deferred by the current round's apply step, the tuples of
	// its events, and the aggregate updates its fire step produced for the
	// next one (rounds.go).
	fires  []fireItem
	events []types.Tuple
	aggIn  []aggItem

	// One rule firing's environment, matched entries, input VIDs and input
	// vertices, and one aggregate firing's group-by values, sized at compile
	// time. Safe because firing never re-enters the evaluator: derived
	// deltas are enqueued and processed by the next round.
	envBuf   []types.Value
	entBuf   []*entry
	vidBuf   []types.ID
	vertBuf  []*provenance.Vertex
	groupBuf []types.Value
	// The candidate output and emit list of one aggregate refresh, which
	// each caller consumes before the next (aggGroup.refresh).
	aggArgsBuf []types.Value
	aggEmitBuf []aggEmit

	// The delta being fired (set by firePhase and firePlan): its tuple and
	// payload, read for an event, which has no entry, and its body position,
	// against which join probes pick the old/new admission side.
	fireTuple   types.Tuple
	firePayload algebra.Payload
	fireAtomPos int

	// key is the byte buffer the node's pool builds keys and encodings in
	// (entryPool.key), lent to the pool while the node holds the scratch.
	key []byte
}

// scratchPool is a Program's free list of scratches: a mutex-guarded stack
// that grows only when every scratch it made is out, so it never holds more
// than the program's nodes ever ran at once.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

func (sp *scratchPool) get(prog *Program) *scratch {
	sp.mu.Lock()
	var sc *scratch
	if k := len(sp.free) - 1; k >= 0 {
		sc = sp.free[k]
		sp.free[k] = nil
		sp.free = sp.free[:k]
	}
	sp.mu.Unlock()
	if sc == nil {
		sc = &scratch{
			envBuf:   make([]types.Value, prog.maxVars),
			entBuf:   make([]*entry, prog.maxAtoms),
			vidBuf:   make([]types.ID, prog.maxAtoms),
			vertBuf:  make([]*provenance.Vertex, prog.maxAtoms),
			groupBuf: make([]types.Value, prog.maxGroup),
		}
	}
	return sc
}

func (sp *scratchPool) put(sc *scratch) {
	sp.mu.Lock()
	sp.free = append(sp.free, sc)
	sp.mu.Unlock()
}

// borrow gives the node a scratch for one entry point that evaluates
// (runRounds, releaseStratum) or hashes a key (PayloadOf). It reports false
// when the node holds one already — a caller further up this goroutine's
// stack, which returns it — and true when the caller must give it back.
func (n *Node) borrow() bool {
	if n.sc != nil {
		return false
	}
	n.sc = n.Prog.scratches.get(n.Prog)
	n.pool.key = n.sc.key
	return true
}

// giveBack returns the node's scratch to the free list, holding none of the
// run's tuples, entries or groups. After a normal run the lists are empty
// already; after an evaluation error or a panic they may not be.
func (n *Node) giveBack() {
	sc := n.sc
	n.sc = nil
	sc.key, n.pool.key = n.pool.key, nil
	clear(sc.fires)
	sc.fires = sc.fires[:0]
	clear(sc.events)
	sc.events = sc.events[:0]
	clear(sc.aggIn)
	sc.aggIn = sc.aggIn[:0]
	clear(sc.entBuf)
	clear(sc.vertBuf)
	clear(sc.aggEmitBuf[:cap(sc.aggEmitBuf)])
	sc.fireTuple = types.Tuple{}
	n.Prog.scratches.put(sc)
}
