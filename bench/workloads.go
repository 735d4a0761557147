package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/types"
)

// workloadInfo is the standing list of workloads, in report order.
var workloadInfo = []struct{ name, why string }{
	{"mincost-fixpoint", "Fig 6: insert-only MINCOST fixpoint on simnet; engine plan execution, aggregates, RID hashing and provenance row writes dominate"},
	{"churn-cached", "Figs 9-10 and 6.1: link flaps against warm query caches; the deletion path (DRed waves, re-election) and cache invalidation pay here"},
	{"query-poly", "Figs 11-14: distributed POLYNOMIAL queries on a converged network; provquery, provenance reads and algebra work, the engine idles"},
	{"chord-sharded", "CHORD on the round scheduler with production's auto shard count; the only shard/merge path and the only real parallelism"},
	{"pathvector-udp", "Figs 16-17: PATHVECTOR over loopback UDP with reliable transport; the only serialising, framing, socket-crossing workload"},
}

func newWorkload(name string, tiny bool) (workload, error) {
	ts := topology.DefaultTransitStub(1)
	if tiny {
		ts = topology.TransitStubParams{Domains: 1, TransitPerDom: 1, StubsPerTransit: 3, NodesPerStub: 3, ExtraStubEdges: 1}
	}
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "mincost-fixpoint":
		return &simWorkload{mode: simFixpoint, ts: ts, domains: pick(4, 2), win: pick(8, 4)}, nil
	case "churn-cached":
		// The window is one sweep: every stub-stub link of every domain
		// flapped once (4 x 156 at full size).
		return &simWorkload{mode: simChurn, ts: ts, domains: pick(4, 2), win: pick(624, 16),
			warmQueries: pick(400, 20), queriesPerOp: 8}, nil
	case "query-poly":
		return &simWorkload{mode: simQuery, ts: ts, domains: pick(8, 2), win: pick(10000, 50),
			checkedQueries: pick(200, 20)}, nil
	case "chord-sharded":
		return &chordWorkload{nodes: pick(1000, 10), lookups: pick(128, 8), win: pick(4, 2)}, nil
	case "pathvector-udp":
		return &udpWorkload{nodes: pick(40, 10), rings: pick(8, 2)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------------
// The three simnet workloads: MINCOST with reference provenance on
// core.Cluster, over `domains` independent transit-stub topologies drawn
// from the seed. Operations rotate over the topologies, so a run's medians
// average the topology-to-topology differences instead of inheriting one
// topology's.

type simMode uint8

const (
	simFixpoint simMode = iota // op: build a cluster and run it to fixpoint
	simChurn                   // op: flap one stub-stub link on a converged, cache-warm cluster
	simQuery                   // op: one POLYNOMIAL query on a converged cluster
)

type simWorkload struct {
	mode           simMode
	ts             topology.TransitStubParams
	domains        int
	win            int
	warmQueries    int // churn: cache-warming queries per cluster during set-up
	queriesPerOp   int // churn: queries interleaved after every flap
	checkedQueries int // query: leading operations whose result the oracle checks

	topos []*topology.Topology
	want  [][][]int64 // per topology: the shortest-path oracle
	prog  *ndlog.Program
	rng   *rand.Rand

	clusters []*simCluster // churn, query: the long-lived clusters
	last     *simCluster   // fixpoint: the most recent converged cluster
	acc      tally         // fixpoint: work summed over finished operations
	first    [][3]int64    // fixpoint: each topology's first (bytes, virtual ns, deltas)
	checked  []checkedQuery
}

type checkedQuery struct {
	k       int
	ref     core.TupleRef
	payload []byte
}

// simCluster is one core.Cluster plus what the harness keeps beside it.
type simCluster struct {
	c       *core.Cluster
	topo    *topology.Topology
	targets []core.TupleRef // the converged bestPathCost tuples queries pick from

	// flaps is a seeded permutation of the topology's stub-stub links, which
	// churn walks round and round: sweeping every link once, rather than
	// drawing links at random, keeps one run's mix of cheap and expensive
	// flaps from differing from the next run's.
	flaps []int
	flap  int

	// Time-zero base-tuple injection is traced as the stretch of the first
	// Sim.Run before its first delivered message.
	seedPending bool
	seedFrom    int64
}

func (w *simWorkload) window() int { return w.win }

func (w *simWorkload) setup(seed int64, m *meter) error {
	master := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	for k := 0; k < w.domains; k++ {
		w.topos = append(w.topos, topology.TransitStub(w.ts, rand.New(rand.NewSource(master.Int63()))))
	}
	m.genNs = int64(time.Since(t0)) / int64(w.domains)
	for _, topo := range w.topos {
		w.want = append(w.want, bestCosts(topo, true))
	}
	var err error
	if w.prog, _, err = m.compile(apps.MinCost); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(master.Int63()))
	w.acc = tally{}
	w.first = make([][3]int64, w.domains)

	if w.mode != simFixpoint {
		for k := range w.topos {
			sc, err := w.newCluster(k, m)
			if err != nil {
				return err
			}
			if _, err := sc.c.RunToFixpoint(); err != nil {
				return err
			}
			sc.flaps = w.rng.Perm(len(sc.topo.StubStubLinks))
			sc.targets = sc.c.TuplesOf("bestPathCost")
			if len(sc.targets) == 0 {
				return fmt.Errorf("no bestPathCost tuples after convergence")
			}
			for q := 0; q < w.warmQueries; q++ {
				if _, _, err := w.query(sc, m); err != nil {
					return err
				}
			}
			w.clusters = append(w.clusters, sc)
		}
	}
	return w.op(-1, m).err // the warm-up operation
}

func (w *simWorkload) newCluster(k int, m *meter) (*simCluster, error) {
	sc := &simCluster{topo: w.topos[k], seedPending: true}
	var err error
	m.timed(kNewCluster, func() {
		sc.c, err = core.NewCluster(core.Config{
			Topo: sc.topo, Prog: w.prog, Mode: engine.ProvReference, CacheOn: w.mode == simChurn,
		})
	})
	if err == nil && m.tr != nil {
		sc.instrument(m)
	}
	return sc, err
}

// tracedHost interposes on simnet.Network.Register: it wraps a core.Host and
// records one span per delivered message, split by payload type into the
// layer that handles it.
type tracedHost struct {
	inner simnet.Handler
	sc    *simCluster
	m     *meter
}

func (h *tracedHost) HandleMessage(from types.NodeID, payload any, size int) {
	k := kEngineMsg
	switch payload.(type) {
	case *provquery.Msg:
		k = kQueryMsg
	case *transport.Frame:
		k = kFrameMsg
	}
	tr := h.m.tr
	if tr == nil { // an untraced operation interleaved into the traced pass
		h.inner.HandleMessage(from, payload, size)
		return
	}
	t0 := tr.now()
	if h.sc.seedPending {
		h.sc.seedPending = false
		tr.leaf(kSeed, h.sc.seedFrom, t0)
	}
	h.inner.HandleMessage(from, payload, size)
	tr.leaf(k, t0, tr.now())
}

// instrument puts the cluster's exported seams under trace: every host's
// message handler, the simulator's idle hook, and each query processor's
// Send (to count protocol messages and bytes).
func (sc *simCluster) instrument(m *meter) {
	for i, h := range sc.c.Hosts {
		sc.c.Net.Register(types.NodeID(i), &tracedHost{inner: h, sc: sc, m: m})
		send := h.Query.Send
		h.Query.Send = func(to types.NodeID, msg *provquery.Msg) {
			if m.tr != nil && msg.Kind != provquery.KInvalidate {
				m.queryMsgs++
				m.queryBytes += int64(msg.WireSize() + sc.c.Net.MsgOverhead)
			}
			send(to, msg)
		}
	}
	idle := sc.c.Sim.OnIdle
	sc.c.Sim.OnIdle = func() bool {
		if m.tr == nil {
			return idle()
		}
		t0 := m.tr.now()
		released := idle()
		t1 := m.tr.now()
		m.tr.leaf(kOnIdle, t0, t1)
		if released {
			m.releaseWaves++
		}
		sc.seedFrom = t1
		return released
	}
}

// run drives the simulator to quiescence inside a Sim.Run span.
func (sc *simCluster) run(m *meter) error {
	sp := m.tr.begin(kSimRun)
	if m.tr != nil {
		sc.seedFrom = m.tr.openStart()
	}
	sc.c.Sim.Run()
	m.tr.end(sp)
	return sc.c.Err()
}

func (sc *simCluster) nodes() []*engine.Node {
	out := make([]*engine.Node, len(sc.c.Hosts))
	for i, h := range sc.c.Hosts {
		out[i] = h.Engine
	}
	return out
}

// work reads the cluster's cumulative work counters at their exported
// seams.
func (sc *simCluster) work() tally {
	t := engineWork(sc.nodes())
	for _, h := range sc.c.Hosts {
		t["provquery.cache_hits"] += float64(h.Query.CacheHits)
		t["provquery.cache_misses"] += float64(h.Query.CacheMisses)
		t["provquery.invalidations"] += float64(h.Query.Invalidations)
	}
	t["simnet.events"] = float64(sc.c.Sim.Steps())
	for _, n := range sc.c.Net.SentMsgs {
		t["simnet.msgs"] += float64(n)
	}
	t["simnet.bytes"] = float64(sc.c.Net.TotalBytes)
	t["simnet.dropped"] = float64(sc.c.Net.DroppedMsgs)
	return t
}

func engineWork(nodes []*engine.Node) tally {
	t := tally{}
	for _, n := range nodes {
		t["engine.deltas"] += float64(n.DeltasProcessed())
		t["engine.rules_fired"] += float64(n.RulesFired())
	}
	return t
}

// engineGauges sizes the state a set of converged engine nodes holds.
func engineGauges(nodes []*engine.Node) tally {
	g := tally{}
	for _, n := range nodes {
		for _, p := range n.Prog.Preds() {
			g["engine.tuples"] += float64(n.TupleCount(p.Name))
		}
		g["engine.agg_groups"] += float64(n.AggGroupCount())
		g["provenance.prov_rows"] += float64(n.Store.NumProv())
		g["provenance.ruleexec_rows"] += float64(n.Store.NumRuleExec())
		g["provenance.parent_edges"] += float64(n.Store.NumParents())
	}
	return g
}

// cleanHeap collects the previous operation's cluster before an operation
// that builds its own. Such an operation then pays for the collections its
// own allocation causes, as a fresh process would, and not for whatever the
// operation before it left behind — which made a CHORD run cost anything
// between 0.09 s and 1.3 s.
func (m *meter) cleanHeap() {
	runtime.GC()
	m.forcedGCs++
}

// freshGauges is engineGauges for a cluster built by one operation, where
// the rows it holds are the rows that operation's deltas wrote.
func freshGauges(nodes []*engine.Node) tally {
	g := engineGauges(nodes)
	if d := engineWork(nodes)["engine.deltas"]; d > 0 {
		g["provenance.rows_per_delta"] = (g["provenance.prov_rows"] + g["provenance.ruleexec_rows"]) / d
	}
	return g
}

// query issues one POLYNOMIAL query for a random converged bestPathCost
// tuple from a random issuer and runs the simulator until the result is
// back.
func (w *simWorkload) query(sc *simCluster, m *meter) (core.TupleRef, []byte, error) {
	ref := sc.targets[w.rng.Intn(len(sc.targets))]
	issuer := types.NodeID(w.rng.Intn(sc.topo.N))
	var payload []byte
	done := false
	m.timed(kQueryCall, func() {
		sc.c.Query(issuer, ref.VID, ref.Loc, func(p []byte) { payload, done = p, true })
	})
	err := sc.run(m)
	if err == nil && !done {
		err = fmt.Errorf("query for %s from %s did not complete", ref.Tuple, issuer)
	}
	return ref, payload, err
}

// queryDetail records, in a traced pass and outside any timed region, what
// one answered query looked like to its client.
func (m *meter) queryDetail(elapsed time.Duration, payload []byte) {
	if m.tr == nil {
		return
	}
	m.queries++
	if len(m.queryUs) == maxQueryDetail {
		return
	}
	m.queryUs = append(m.queryUs, float64(elapsed)/1e3)
	m.resultBytes = append(m.resultBytes, float64(len(payload)))
	t0 := time.Now()
	expr, err := provquery.DecodePolynomial(payload)
	m.decodeUs = append(m.decodeUs, float64(time.Since(t0))/1e3)
	if err == nil {
		m.resultNodes = append(m.resultNodes, float64(expr.NumNodes()))
	}
}

// maxQueryDetail bounds the per-query detail samples of a traced pass.
const maxQueryDetail = 20000

func (w *simWorkload) op(i int, m *meter) sample {
	k := rotate(i, w.domains)
	switch w.mode {
	case simFixpoint:
		return w.fixpointOp(i, k, m)
	case simChurn:
		return w.churnOp(i, w.clusters[k], m)
	}
	return w.queryOp(i, k, m)
}

func (w *simWorkload) fixpointOp(i, k int, m *meter) sample {
	w.last = nil
	m.cleanHeap()
	t0 := m.start()
	sc, err := w.newCluster(k, m)
	if err == nil {
		err = sc.run(m)
	}
	s := sample{wallNs: m.stop(t0), err: err}
	m.tr.finishOp(i, &m.ops)
	if err != nil {
		return s
	}
	s.vNs, s.bytes = int64(sc.c.Sim.Now()), sc.c.Net.TotalBytes
	work := sc.work()
	w.acc.add(work)
	w.last = sc
	// Determinism guard: a topology's fixpoint costs the same every time.
	det := [3]int64{s.bytes, s.vNs, int64(work["engine.deltas"])}
	if w.first[k] == [3]int64{} {
		w.first[k] = det
	} else if det != w.first[k] {
		s.err = fmt.Errorf("determinism: (bytes, virtual ns, deltas) = %v, first run of this topology gave %v", det, w.first[k])
		return s
	}
	s.err = checkBestCosts(sc.topo, w.want[k], tuplesOf(sc.nodes(), "bestPathCost"))
	return s
}

func (w *simWorkload) churnOp(i int, sc *simCluster, m *meter) sample {
	l := sc.topo.Links[sc.topo.StubStubLinks[sc.flaps[sc.flap%len(sc.flaps)]]]
	sc.flap++
	bytes0, now0 := sc.c.Net.TotalBytes, sc.c.Sim.Now()
	t0 := m.start()
	m.timed(kBaseEdit, func() { sc.c.RemoveLink(l) })
	err := sc.run(m)
	m.timed(kBaseEdit, func() { sc.c.AddLink(l) })
	if err == nil {
		err = sc.run(m)
	}
	s := sample{wallNs: m.stop(t0), err: err}
	m.tr.finishOp(i, &m.ops)
	s.vNs, s.bytes = int64(sc.c.Sim.Now()-now0), sc.c.Net.TotalBytes-bytes0

	// The interleaved queries: untimed for the operation, timed one by one
	// for provquery.query_us_p50; they re-warm what the flap invalidated.
	m.untimed(i, func() {
		for q := 0; q < w.queriesPerOp && s.err == nil; q++ {
			var payload []byte
			q0 := time.Now()
			_, payload, s.err = w.query(sc, m)
			m.queryDetail(time.Since(q0), payload)
		}
	})
	return s
}

func (w *simWorkload) queryOp(i, k int, m *meter) sample {
	sc := w.clusters[k]
	bytes0, now0 := sc.c.Net.TotalBytes, sc.c.Sim.Now()
	t0 := m.start()
	ref, payload, err := w.query(sc, m)
	s := sample{wallNs: m.stop(t0), err: err}
	m.tr.finishOp(i, &m.ops)
	m.queryDetail(time.Duration(s.wallNs), payload)
	s.vNs, s.bytes = int64(sc.c.Sim.Now()-now0), sc.c.Net.TotalBytes-bytes0
	if i >= 0 && i < w.checkedQueries {
		w.checked = append(w.checked, checkedQuery{k, ref, payload})
	}
	return s
}

func (w *simWorkload) trace(m *meter) {
	for _, sc := range w.clusters {
		sc.seedPending = false
		sc.instrument(m)
	}
}

func (w *simWorkload) work() tally {
	if w.mode == simFixpoint {
		return w.acc.clone()
	}
	t := tally{}
	for _, sc := range w.clusters {
		t.add(sc.work())
	}
	return t
}

func (w *simWorkload) finish() []error {
	var errs []error
	for k, sc := range w.clusters {
		if err := sc.c.Err(); err != nil {
			errs = append(errs, err)
		}
		// Every flap restored its link, so the converged state must still
		// be the oracle's.
		if err := checkBestCosts(sc.topo, w.want[k], tuplesOf(sc.nodes(), "bestPathCost")); err != nil {
			errs = append(errs, err)
		}
		for _, h := range sc.c.Hosts {
			if p := h.Query.Pending(); p != 0 {
				errs = append(errs, fmt.Errorf("node %s holds %d pending query records at the end", h.Query.Node, p))
				break
			}
		}
	}
	counters := make([]*derivationCounter, len(w.clusters))
	links := make([]map[types.ID]bool, len(w.clusters))
	for _, cq := range w.checked {
		if counters[cq.k] == nil {
			sc := w.clusters[cq.k]
			stores := make([]*provenance.Store, len(sc.c.Hosts))
			for i, h := range sc.c.Hosts {
				stores[i] = h.Engine.Store
			}
			counters[cq.k] = &derivationCounter{stores: stores, memo: map[vertex]int64{}}
			links[cq.k] = linkVIDSet(sc.topo)
		}
		if err := checkPolynomial(cq.payload, cq.ref.VID, cq.ref.Loc, counters[cq.k], links[cq.k]); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", cq.ref.Tuple, err))
		}
	}
	return errs
}

func (w *simWorkload) state() ([]*engine.Node, *topology.Topology, tally) {
	sc, g := w.last, tally(nil)
	if w.mode == simFixpoint {
		g = freshGauges(sc.nodes())
	} else {
		sc = w.clusters[0]
		g = engineGauges(sc.nodes())
	}
	for _, h := range sc.c.Hosts {
		g["provquery.cache_entries"] += float64(h.Query.CacheSize())
		g["provquery.pending_end"] += float64(h.Query.Pending())
	}
	return sc.nodes(), sc.topo, g
}

// ---------------------------------------------------------------------------
// chord-sharded: CHORD on engine.Scheduler with the shard count production
// resolves for this host.

type chordWorkload struct {
	nodes, lookups, win int

	topo     *topology.Topology
	base     map[types.NodeID][]types.Tuple
	lookupTs []types.Tuple
	prog     *engine.Program
	shards   int

	last  *engine.Scheduler
	acc   tally
	first [3]int64
}

func (w *chordWorkload) window() int { return w.win }

func (w *chordWorkload) setup(seed int64, m *meter) error {
	master := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	w.topo = topology.Ring(w.nodes, rand.New(rand.NewSource(master.Int63())))
	m.genNs = int64(time.Since(t0))
	w.base = apps.ChordBase(w.topo)
	w.lookupTs = apps.ChordLookups(w.topo, w.lookups, master.Int63())
	var err error
	if _, w.prog, err = m.compile(apps.Chord); err != nil {
		return err
	}
	// The configuration production runs: cmd/exspan resolves -shards auto
	// through the same call.
	w.shards = engine.EffectiveShards(engine.AutoShards)
	w.acc = tally{}
	return w.op(-1, m).err
}

func (w *chordWorkload) op(i int, m *meter) sample {
	var s *engine.Scheduler
	var err error
	w.last = nil
	m.cleanHeap()
	t0 := m.start()
	m.timed(kSchedNew, func() {
		s = engine.NewScheduler(w.prog, engine.ProvReference, w.topo.N, w.shards, 0)
	})
	m.timed(kSchedInsert, func() {
		for n := 0; n < w.topo.N; n++ {
			for _, tup := range w.base[types.NodeID(n)] {
				s.InsertBase(types.NodeID(n), tup)
			}
		}
	})
	m.timed(kSchedRun, func() { err = s.Run() })
	m.timed(kSchedInsert, func() {
		for _, lk := range w.lookupTs {
			s.InsertBase(lk.Loc(), lk)
		}
	})
	if err == nil {
		m.timed(kSchedRun, func() { err = s.Run() })
	}
	out := sample{wallNs: m.stop(t0), bytes: s.TotalBytes, err: err}
	m.tr.finishOp(i, &m.ops)
	if err != nil {
		return out
	}
	nodes := schedNodes(s)
	work := engineWork(nodes)
	work["engine.sched_rounds"] = float64(s.Rounds)
	w.acc.add(work)
	w.last = s
	det := [3]int64{s.TotalBytes, s.Rounds, int64(work["engine.deltas"])}
	if w.first == [3]int64{} {
		w.first = det
	} else if det != w.first {
		out.err = fmt.Errorf("determinism: (bytes, rounds, deltas) = %v, the first run gave %v", det, w.first)
		return out
	}
	out.err = checkChord(w.topo, nodes, len(w.lookupTs))
	return out
}

func schedNodes(s *engine.Scheduler) []*engine.Node {
	out := make([]*engine.Node, s.NumNodes())
	for i := range out {
		out[i] = s.Node(i)
	}
	return out
}

func (w *chordWorkload) trace(*meter) {}

func (w *chordWorkload) work() tally { return w.acc.clone() }

func (w *chordWorkload) finish() []error { return nil }

func (w *chordWorkload) state() ([]*engine.Node, *topology.Topology, tally) {
	nodes := schedNodes(w.last)
	return nodes, w.topo, freshGauges(nodes)
}

// ---------------------------------------------------------------------------
// pathvector-udp: PATHVECTOR over deploy.Cluster — real UDP sockets on the
// loopback interface, reliable transport, no injected loss. Operations
// rotate over `rings` ring topologies drawn from the seed.

type udpWorkload struct {
	nodes, rings int

	topos []*topology.Topology
	want  [][][]int64
	prog  *ndlog.Program

	last *deploy.Cluster
	acc  tally
}

func (w *udpWorkload) window() int { return 0 } // nothing here repeats exactly

func (w *udpWorkload) setup(seed int64, m *meter) error {
	master := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	for k := 0; k < w.rings; k++ {
		w.topos = append(w.topos, topology.Ring(w.nodes, rand.New(rand.NewSource(master.Int63()))))
	}
	m.genNs = int64(time.Since(t0)) / int64(w.rings)
	for _, topo := range w.topos {
		w.want = append(w.want, bestCosts(topo, false))
	}
	var err error
	if w.prog, _, err = m.compile(apps.PathVector); err != nil {
		return err
	}
	w.acc = tally{}
	return w.op(-1, m).err
}

func (w *udpWorkload) op(i int, m *meter) sample {
	k := rotate(i, w.rings)
	topo := w.topos[k]
	var cl *deploy.Cluster
	var err error
	w.last = nil
	m.cleanHeap()
	m.untimed(i, func() {
		m.timed(kDeployNew, func() {
			cl, err = deploy.NewCluster(deploy.Config{
				Topo: topo, Prog: w.prog, Mode: engine.ProvReference, Reliable: true,
			})
		})
		if err == nil {
			m.timed(kDeployStart, cl.Start)
		}
	})
	if err != nil {
		return sample{err: err}
	}

	t0 := m.start()
	m.timed(kDeployInsert, cl.InsertLinks)
	m.timed(kDeployWait, func() { _, err = cl.WaitFixpoint(0) })
	s := sample{wallNs: m.stop(t0), err: err}
	m.tr.finishOp(i, &m.ops)

	var got []types.Tuple
	if s.err == nil {
		s.err = cl.Err()
	}
	if s.err == nil {
		got = cl.Snapshot("bestPath")
		st := cl.TransportStats()
		s.bytes = cl.TotalSentBytes()
		nodes := deployNodes(cl)
		work := engineWork(nodes)
		work["transport.data_sent"] = float64(st.DataSent)
		work["transport.retransmits"] = float64(st.Retransmits)
		work["transport.acks_sent"] = float64(st.AcksSent)
		work["transport.delivered"] = float64(st.Delivered)
		work["transport.dups_dropped"] = float64(st.DupsDropped)
		work["transport.ooo_buffered"] = float64(st.OooBuffered)
		work["deploy.dropped"] = float64(cl.Dropped.Load())
		work["deploy.sent_kb_per_node"] = cl.AvgSentKB()
		w.acc.add(work)
	}
	m.untimed(i, func() { m.timed(kDeployStop, cl.Stop) })
	if s.err == nil {
		w.last = cl
		s.err = checkBestCosts(topo, w.want[k], got)
	}
	return s
}

func deployNodes(cl *deploy.Cluster) []*engine.Node {
	out := make([]*engine.Node, len(cl.Nodes))
	for i, np := range cl.Nodes {
		out[i] = np.Engine
	}
	return out
}

func (w *udpWorkload) trace(*meter) {}

func (w *udpWorkload) work() tally { return w.acc.clone() }

func (w *udpWorkload) finish() []error { return nil }

// state reads the last cluster's engine nodes after Stop. That is safe: the
// Snapshot and TransportStats calls of its operation ran on every worker
// goroutine after the fixpoint, and nothing writes engine state afterwards.
func (w *udpWorkload) state() ([]*engine.Node, *topology.Topology, tally) {
	nodes := deployNodes(w.last)
	return nodes, w.last.Cfg.Topo, freshGauges(nodes)
}
