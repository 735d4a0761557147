// exspan runs an NDlog program over a simulated topology with a chosen
// provenance mode, reports fixpoint statistics, and optionally executes a
// provenance query against a named tuple.
//
// Examples:
//
//	exspan -app mincost -topo fig3 -mode reference -query 'bestPathCost(@a,c,5)'
//	exspan -app pathvector -topo transitstub -nodes 200 -mode value
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/types"
)

// appSpec describes how a named program is seeded and reported: its EDB
// beyond (or instead of) the topology's link tuples, and the derived
// predicates worth printing after fixpoint.
type appSpec struct {
	noLinks  bool
	base     func(*topology.Topology, int64) map[types.NodeID][]types.Tuple
	outPreds []string
}

var defaultSpec = appSpec{outPreds: []string{"bestPathCost", "bestPath", "pathCost", "path"}}

var appSpecs = map[string]appSpec{
	"mincost":       defaultSpec,
	"pathvector":    defaultSpec,
	"packetforward": defaultSpec,
	"chord": {
		noLinks: true,
		base: func(t *topology.Topology, seed int64) map[types.NodeID][]types.Tuple {
			b := apps.ChordBase(t)
			for _, lk := range apps.ChordLookups(t, 8, seed) {
				b[lk.Loc()] = append(b[lk.Loc()], lk)
			}
			return b
		},
		outPreds: []string{"succ", "pred", "finger", "lookup", "lookupRes"},
	},
	"policy": {
		base: func(t *topology.Topology, seed int64) map[types.NodeID][]types.Tuple {
			return apps.PolicyTuples(t)
		},
		outPreds: []string{"route", "bestRoute", "routeSet", "nextHop"},
	},
}

func main() {
	app := flag.String("app", "mincost", "program: mincost, pathvector, packetforward, chord, policy, or a .ndlog file path")
	topoName := flag.String("topo", "fig3", "topology: fig3, transitstub, ring")
	nodes := flag.Int("nodes", 100, "node count for generated topologies")
	modeName := flag.String("mode", "reference", "provenance mode: none, reference, value, centralized")
	seed := flag.Int64("seed", 42, "random seed")
	query := flag.String("query", "", "tuple to query after fixpoint, e.g. 'bestPathCost(@a,c,5)'")
	udfName := flag.String("udf", "polynomial", "query representation: polynomial, bdd, derivations, nodeset, derivability")
	dumpProv := flag.Bool("dump-prov", false, "print every node's canonical fixpoint state (visible tuples, value-mode payloads,\nprov and ruleExec rows) after fixpoint")
	explain := flag.Bool("explain", false, "after fixpoint, dump node 0's rule plans (join order, probe indexes,\npushed predicates) with the probes and hits each join step measured")
	deployMode := flag.Bool("deploy", false, "run over real UDP sockets (testbed mode) instead of the simulator")
	faultSeed := flag.Int64("fault-seed", 0, "seed of the injected fault schedule (with -loss/-dup/-partition)")
	loss := flag.Float64("loss", 0, "per-datagram drop probability in [0,1); traffic then runs over the\nreliable ack/retransmit transport so the fixpoint is unchanged")
	dupP := flag.Float64("dup", 0, "per-datagram duplication probability in [0,1) (reliable transport, as -loss)")
	partition := flag.String("partition", "", "scheduled healing partition 'startMs:endMs:n1,n2,...' (simulator only)")
	flag.Parse()

	prog, err := loadProgram(*app)
	if err != nil {
		fatal(err)
	}
	spec, ok := appSpecs[*app]
	if !ok {
		spec = defaultSpec // .ndlog file: link EDB, classic output preds
	}
	topo, err := loadTopology(*topoName, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	var base map[types.NodeID][]types.Tuple
	if spec.base != nil {
		base = spec.base(topo, *seed)
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		fatal(err)
	}

	// A fault schedule, when requested, is seeded and recorded in the
	// output, so every chaos run is reproducible from its printed flags.
	var plan *simnet.FaultPlan
	if *loss > 0 || *dupP > 0 || *partition != "" {
		plan = &simnet.FaultPlan{Seed: *faultSeed, Drop: *loss, Dup: *dupP}
		if *partition != "" {
			start, end, side, err := parsePartition(*partition)
			if err != nil {
				fatal(err)
			}
			plan.AddPartition(start, end, side...)
		}
	}

	if *deployMode {
		if *partition != "" {
			fatal(fmt.Errorf("-partition is simulator-only; -loss/-dup work with -deploy"))
		}
		if *query != "" {
			fatal(fmt.Errorf("-query is simulator-only; -dump-prov and -explain work with -deploy"))
		}
		runDeployment(topo, prog, mode, spec, base, *loss, *dupP, *faultSeed, *explain, *dumpProv)
		return
	}

	// A plain fixpoint run (no query, no provenance dump, no faults) uses
	// the round scheduler: same results, no simulator in the way. Queries
	// and dumps need the simulator's virtual clock and the query processor,
	// fault schedules need its network, so those run the simnet driver.
	if *query == "" && !*dumpProv && plan == nil {
		runScheduled(topo, prog, mode, spec, base, *explain)
		return
	}

	cfg := core.Config{Topo: topo, Prog: prog, Mode: mode, Faults: plan,
		Base: base, NoLinkTuples: spec.noLinks}
	c, err := core.NewCluster(cfg)
	if err != nil {
		fatal(err)
	}
	if *explain {
		c.Hosts[0].Engine.CountJoins()
	}
	switch *udfName {
	case "polynomial":
	case "bdd":
		setUDF(c, provquery.BDD(c.BaseVar))
	case "derivations":
		setUDF(c, provquery.Derivations())
	case "nodeset":
		setUDF(c, provquery.NodeSet())
	case "derivability":
		setUDF(c, provquery.Derivability(nil))
	default:
		fatal(fmt.Errorf("unknown -udf %q", *udfName))
	}

	if plan != nil {
		fmt.Println(plan.String())
	}
	fix, err := c.RunToFixpoint()
	if err != nil {
		fatal(err)
	}
	fixpointReport{
		headline: fmt.Sprintf("fixpoint: %.3fs virtual time, %d nodes, %d links",
			fix.Seconds(), topo.N, c.Net.NumLinks()),
		traffic: c.Net.Traffic, dropped: c.Net.DroppedMsgs,
		faults: plan, reliable: plan != nil, transport: c.TransportStats,
		engines: c.Engines(), explain: *explain, dump: *dumpProv,
	}.print(spec)

	if *query != "" {
		runQuery(c, *query, *udfName)
	}
}

// runScheduled computes the fixpoint through the round scheduler
// (engine.Scheduler) and prints statistics comparable to the simulator path
// (identical tuple counts; wall-clock time instead of virtual time).
func runScheduled(topo *topology.Topology, prog *ndlog.Program, mode engine.ProvMode, spec appSpec, base map[types.NodeID][]types.Tuple, explain bool) {
	compiled, err := engine.Compile(prog)
	if err != nil {
		fatal(err)
	}
	s := engine.NewScheduler(compiled, mode, topo.N, 0, 0)
	if explain {
		s.Node(0).CountJoins()
	}
	startAt := time.Now()
	apps.BootEDB(topo, spec.noLinks, base, s.InsertBase)
	if err := s.Run(); err != nil {
		fatal(err)
	}
	fixpointReport{
		headline: fmt.Sprintf("scheduled fixpoint: %.3fs wall clock, %d nodes, %d scheduler rounds",
			time.Since(startAt).Seconds(), topo.N, s.Rounds),
		traffic: s.Traffic, dropped: -1,
		engines: s.Engines(), explain: explain,
	}.print(spec)
}

// runDeployment executes the program over real UDP sockets on loopback
// (the paper's testbed mode) and prints byte and latency statistics. With
// loss or duplication injected, traffic runs over the reliable transport
// and the recovery statistics are reported alongside.
func runDeployment(topo *topology.Topology, prog *ndlog.Program, mode engine.ProvMode, spec appSpec, base map[types.NodeID][]types.Tuple, loss, dup float64, faultSeed int64, explain, dump bool) {
	faulty := loss > 0 || dup > 0
	if faulty {
		fmt.Printf("faults(seed=%d loss=%.3f dup=%.3f) over reliable transport\n", faultSeed, loss, dup)
	}
	startAt := time.Now()
	cl, err := deployFixpoint(deploy.Config{
		Topo: topo, Prog: prog, Mode: mode,
		Base: base, NoLinkTuples: spec.noLinks,
		Reliable: faulty, Loss: loss, Dup: dup, FaultSeed: faultSeed,
	}, explain)
	if err != nil {
		fatal(err)
	}
	defer cl.Stop()
	fixpointReport{
		headline: fmt.Sprintf("deployment fixpoint: %.3fs wall clock, %d UDP nodes",
			time.Since(startAt).Seconds(), topo.N),
		traffic: cl.Traffic(), inKB: true, dropped: cl.Dropped.Load(),
		reliable: faulty, transport: cl.TransportStats,
		engines: cl.Engines(), explain: explain, dump: dump,
	}.print(spec)
}

// deployFixpoint starts a UDP cluster, seeds its EDB and waits for its
// fixpoint, with node 0 counting its join probes when explain is set. On
// success the caller owns the running cluster and must Stop it.
func deployFixpoint(cfg deploy.Config, explain bool) (*deploy.Cluster, error) {
	cl, err := deploy.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if explain {
		cl.Nodes[0].Engine.CountJoins()
	}
	cl.Start()
	cl.InsertLinks()
	if _, err = cl.WaitFixpoint(120 * time.Second); err == nil {
		err = cl.Err()
	}
	if err != nil {
		cl.Stop()
		return nil, err
	}
	return cl, nil
}

// fixpointReport is what every driver prints once its fixpoint is reached;
// the drivers differ only in which sections they can fill.
type fixpointReport struct {
	headline  string
	traffic   stats.Traffic          // the driver's byte ledger at its fixpoint
	inKB      bool                   // deployments are ring-sized: KB, not MB
	dropped   int64                  // datagrams the network dropped; <0: the driver has no network
	faults    *simnet.FaultPlan      // injected fault schedule (simulator)
	reliable  bool                   // traffic ran over the reliable transport: print its counters
	transport func() transport.Stats // read only when reliable
	engines   []*engine.Node         // the driver's cluster view, read at its fixpoint
	explain   bool                   // dump node 0's plans
	dump      bool                   // print every node's canonical state
}

func (r fixpointReport) print(spec appSpec) {
	fmt.Println(r.headline)
	total, avg := float64(r.traffic.TotalBytes), r.traffic.AvgSentBytes()
	if r.inKB {
		fmt.Printf("communication: %.1f KB total, %.2f KB avg per node\n", total/1e3, avg/1e3)
	} else {
		fmt.Printf("communication: %.3f MB total, %.4f MB avg per node\n", total/1e6, avg/1e6)
	}
	if r.dropped >= 0 {
		fmt.Printf("network: %d datagrams dropped\n", r.dropped)
	}
	if r.faults != nil {
		fmt.Printf("faults: %d dropped, %d duplicated, %d cut by partition/crash\n",
			r.faults.Dropped, r.faults.Duplicated, r.faults.Cut)
	}
	if r.reliable {
		st := r.transport()
		fmt.Printf("transport: %d data frames, %d retransmits, %d pure acks, %d dups absorbed, %d reordered\n",
			st.DataSent, st.Retransmits, st.AcksSent, st.DupsDropped, st.OooBuffered)
	}
	var deltas, fired int64
	for _, en := range r.engines {
		deltas += en.DeltasProcessed()
		fired += en.RulesFired()
	}
	fmt.Printf("engine: %d deltas processed, %d rule firings\n", deltas, fired)
	for _, pred := range spec.outPreds {
		n := 0
		for _, en := range r.engines {
			n += en.TupleCount(pred)
		}
		if n > 0 {
			fmt.Printf("  %-14s %6d tuples\n", pred, n)
		}
	}
	if r.explain {
		fmt.Println("plans (node 0):")
		r.engines[0].ExplainPlans(os.Stdout)
	}
	if r.dump {
		engine.WriteStates(os.Stdout, r.engines)
	}
}

// parsePartition parses 'startMs:endMs:n1,n2,...' into a healing cut.
func parsePartition(s string) (start, end simnet.Time, side []types.NodeID, err error) {
	var startMs, endMs int64
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return 0, 0, nil, fmt.Errorf("bad -partition %q, want 'startMs:endMs:n1,n2,...'", s)
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &startMs); err != nil {
		return 0, 0, nil, fmt.Errorf("bad -partition start %q", parts[0])
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &endMs); err != nil {
		return 0, 0, nil, fmt.Errorf("bad -partition end %q", parts[1])
	}
	if endMs <= startMs {
		return 0, 0, nil, fmt.Errorf("-partition window [%d,%d) is empty; it must heal after it starts", startMs, endMs)
	}
	for _, f := range strings.Split(parts[2], ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 0 {
			return 0, 0, nil, fmt.Errorf("bad -partition node %q", f)
		}
		side = append(side, types.NodeID(n))
	}
	return simnet.Time(startMs) * simnet.Millisecond, simnet.Time(endMs) * simnet.Millisecond, side, nil
}

func setUDF(c *core.Cluster, u provquery.UDF) {
	for _, h := range c.Hosts {
		h.Query.UDF = u
	}
}

func runQuery(c *core.Cluster, q, udfName string) {
	t, err := parseTupleLiteral(q)
	if err != nil {
		fatal(err)
	}
	ref, ok := c.FindTuple(t)
	if !ok {
		fatal(fmt.Errorf("tuple %s not found (is it visible at node %s?)", t, t.Loc()))
	}
	issued := c.Sim.Now()
	var result []byte
	c.Query(ref.Loc, ref.VID, ref.Loc, func(payload []byte) { result = payload })
	if _, err := c.RunToFixpoint(); err != nil {
		fatal(err)
	}
	if result == nil {
		fatal(fmt.Errorf("query did not complete"))
	}
	fmt.Printf("query %s completed in %.4fs (virtual)\n", t, (c.Sim.Now() - issued).Seconds())
	switch udfName {
	case "polynomial":
		expr, err := provquery.DecodePolynomial(result)
		if err != nil {
			fatal(err)
		}
		fmt.Println("provenance:", expr)
	case "derivations":
		fmt.Println("derivations:", provquery.DecodeCount(result))
	case "nodeset":
		fmt.Println("nodes:", provquery.DecodeNodeSet(result))
	case "derivability":
		fmt.Println("derivable:", provquery.DecodeBool(result))
	default:
		fmt.Printf("result: %d bytes\n", len(result))
	}
}

func loadProgram(name string) (*ndlog.Program, error) {
	switch name {
	case "mincost":
		return apps.MinCost(), nil
	case "pathvector":
		return apps.PathVector(), nil
	case "packetforward":
		return apps.PacketForward(), nil
	case "chord":
		return apps.Chord(), nil
	case "policy":
		return apps.Policy(), nil
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return ndlog.Parse(string(b))
}

func loadTopology(name string, n int, seed int64) (*topology.Topology, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "fig3":
		return topology.Figure3(), nil
	case "transitstub":
		return topology.TransitStubN(n, rng), nil
	case "ring":
		return topology.Ring(n, rng), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

func parseMode(s string) (engine.ProvMode, error) {
	switch s {
	case "none":
		return engine.ProvNone, nil
	case "reference":
		return engine.ProvReference, nil
	case "value":
		return engine.ProvValue, nil
	case "centralized":
		return engine.ProvCentralized, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// parseTupleLiteral parses e.g. bestPathCost(@a,c,5) into a tuple, using
// the ndlog constant conventions (single letters are nodes).
func parseTupleLiteral(s string) (types.Tuple, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), ".")
	prog, err := ndlog.Parse(s + ".")
	if err != nil {
		return types.Tuple{}, fmt.Errorf("bad tuple literal %q: %w", s, err)
	}
	if len(prog.Facts) != 1 {
		return types.Tuple{}, fmt.Errorf("expected one tuple literal, got %q", s)
	}
	atom := prog.Facts[0]
	t := types.Tuple{Pred: atom.Pred}
	for _, a := range atom.Args {
		c, ok := a.(*ndlog.Const)
		if !ok {
			return types.Tuple{}, fmt.Errorf("tuple arguments must be constants: %q", s)
		}
		t.Args = append(t.Args, c.Val)
	}
	return t, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exspan:", err)
	os.Exit(1)
}
