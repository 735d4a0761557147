// exspan runs an NDlog program over a topology with a chosen provenance
// mode, reports fixpoint statistics, and optionally executes a provenance
// query against a named tuple. It runs on one of three drivers through one
// path (internal/driver): the round scheduler by default, the simulator when
// the run needs virtual time or a fault network (-query, -dump-prov, -loss,
// -dup, -partition), and loopback UDP sockets with -deploy, where -query,
// -dump-prov, -explain, -loss and -dup work too. -query needs -mode
// reference, the only mode whose nodes keep the prov and ruleExec rows a
// query walks; it is refused in the other three before anything boots.
//
// Examples:
//
//	exspan -app mincost -topo fig3 -mode reference -query 'bestPathCost(@a,c,5)'
//	exspan -app pathvector -topo transitstub -nodes 200 -mode value
//	exspan -app mincost -topo fig3 -deploy -query 'bestPathCost(@a,c,5)' -udf derivations
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/driver"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exspan:", err)
		os.Exit(1)
	}
}

// run is the whole CLI: it parses args, boots the workload on one driver,
// prints its fixpoint report to stdout and answers -query. A malformed flag
// or -h exits the process, as flag.Parse does.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exspan", flag.ExitOnError)
	app := fs.String("app", "mincost", "program: mincost, pathvector, packetforward, chord, policy, or a .ndlog file path")
	topoName := fs.String("topo", "fig3", "topology: fig3, transitstub, ring")
	nodes := fs.Int("nodes", 100, "node count for generated topologies")
	modeName := fs.String("mode", "reference", "provenance mode: none, reference, value, centralized")
	seed := fs.Int64("seed", 42, "random seed")
	query := fs.String("query", "", "tuple to query after fixpoint, e.g. 'bestPathCost(@a,c,5)'")
	udfName := fs.String("udf", "polynomial", "query representation: polynomial, bdd, derivations, nodeset, derivability")
	dumpProv := fs.Bool("dump-prov", false, "print every node's canonical fixpoint state (visible tuples, value-mode payloads,\nprov and ruleExec rows) after fixpoint")
	explain := fs.Bool("explain", false, "after fixpoint, dump node 0's rule plans (join order, probe indexes,\npushed predicates) with the probes and hits each join step measured")
	deployMode := fs.Bool("deploy", false, "run over real UDP sockets (testbed mode) instead of the simulator")
	faultSeed := fs.Int64("fault-seed", 0, "seed of the injected fault schedule (with -loss/-dup/-partition)")
	loss := fs.Float64("loss", 0, "per-datagram drop probability in [0,1); traffic then runs over the\nreliable ack/retransmit transport so the fixpoint is unchanged")
	dupP := fs.Float64("dup", 0, "per-datagram duplication probability in [0,1) (reliable transport, as -loss)")
	partition := fs.String("partition", "", "scheduled healing partition 'startMs:endMs:n1,n2,...' (simulator only)")
	fs.Parse(args) // ExitOnError: returns only on success

	// Refused before anything boots: at a drop probability of 1 nothing
	// gets through, and at a duplication probability of 1 every copy is
	// copied again, so the run would never reach its fixpoint; a cluster
	// without nodes has no per-node average.
	if !(*loss >= 0 && *loss < 1) {
		return fmt.Errorf("-loss %v is outside [0,1)", *loss)
	}
	if !(*dupP >= 0 && *dupP < 1) {
		return fmt.Errorf("-dup %v is outside [0,1)", *dupP)
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes %d: a cluster needs at least one node", *nodes)
	}
	// The query processor walks the prov and ruleExec rows that only
	// reference mode keeps at each node; in any other mode every answer
	// would be an empty provenance.
	if *query != "" && *modeName != "reference" {
		return fmt.Errorf("-query needs -mode reference: -mode %s keeps no distributed provenance to query", *modeName)
	}

	prog, err := loadProgram(*app)
	if err != nil {
		return err
	}
	spec, ok := appSpecs[*app]
	if !ok {
		spec = defaultSpec // .ndlog file: link EDB, classic output preds
	}
	topo, err := loadTopology(*topoName, *nodes, *seed)
	if err != nil {
		return err
	}
	var base map[types.NodeID][]types.Tuple
	if spec.base != nil {
		base = spec.base(topo, *seed)
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		return err
	}
	udf, ok := udfs[*udfName]
	if !ok {
		return fmt.Errorf("unknown -udf %q", *udfName)
	}
	setup := func(engines []*engine.Node, procs []*provquery.Processor) {
		if *explain {
			engines[0].CountJoins()
		}
		u := udf(engines)
		for _, p := range procs {
			p.UDF = u
		}
	}

	// A fault schedule, when requested, is seeded and recorded in the
	// output, so every chaos run is reproducible from its printed flags.
	var plan *simnet.FaultPlan
	if *loss > 0 || *dupP > 0 || *partition != "" {
		plan = &simnet.FaultPlan{Seed: *faultSeed, Drop: *loss, Dup: *dupP}
		if *partition != "" {
			start, end, side, err := parsePartition(*partition)
			if err != nil {
				return err
			}
			plan.AddPartition(start, end, side...)
		}
	}

	// The driver follows from the flags: -deploy runs over UDP; a fault
	// schedule needs the simulator's network, and -query and -dump-prov run
	// there too, reporting virtual time as they always have; every other
	// run goes through the round scheduler, which reports wall-clock time.
	cfg := core.Config{Topo: topo, Prog: prog, Mode: mode, Base: base, NoLinkTuples: spec.noLinks}
	startAt := time.Now()
	wall := func() simnet.Time { return simnet.Time(time.Since(startAt)) }
	clock, unit := wall, "wall clock"
	var d driver.Driver
	var r fixpointReport
	switch {
	case *deployMode:
		if *partition != "" {
			return fmt.Errorf("-partition is simulator-only; -loss/-dup work with -deploy")
		}
		if plan != nil {
			fmt.Fprintf(stdout, "faults(seed=%d loss=%.3f dup=%.3f) over reliable transport\n", *faultSeed, *loss, *dupP)
		}
		u, err := driver.NewUDP(deploy.Config{Topo: topo, Prog: prog, Mode: mode,
			Base: base, NoLinkTuples: spec.noLinks,
			Reliable: plan != nil, Loss: *loss, Dup: *dupP, FaultSeed: *faultSeed}, setup)
		if err != nil {
			return err
		}
		defer u.Stop()
		d, r = u, fixpointReport{
			headline: fmt.Sprintf("deployment fixpoint: %.3fs wall clock, %d UDP nodes", wall().Seconds(), topo.N),
			traffic:  u.Traffic(), inKB: true, dropped: u.Dropped.Load(),
			reliable: plan != nil, transport: u.TransportStats,
		}
	case plan != nil || *query != "" || *dumpProv:
		if plan != nil {
			fmt.Fprintln(stdout, plan.String())
		}
		cfg.Faults = plan
		s, err := driver.NewSim(cfg, setup)
		if err != nil {
			return err
		}
		d, clock, unit = s, s.Sim.Now, "virtual"
		r = fixpointReport{
			headline: fmt.Sprintf("fixpoint: %.3fs virtual time, %d nodes, %d links", clock().Seconds(), topo.N, s.Net.NumLinks()),
			traffic:  s.Net.Traffic, dropped: s.Net.DroppedMsgs,
			faults: plan, reliable: plan != nil, transport: s.TransportStats,
		}
	default:
		s, err := driver.NewSched(cfg, 0, setup)
		if err != nil {
			return err
		}
		d, r = s, fixpointReport{
			headline: fmt.Sprintf("scheduled fixpoint: %.3fs wall clock, %d nodes, %d scheduler rounds", wall().Seconds(), topo.N, s.Rounds),
			traffic:  s.Traffic, dropped: -1,
		}
	}
	engines := d.Engines()
	r.print(stdout, spec, engines, *explain, *dumpProv)
	if *query == "" {
		return nil
	}
	return runQuery(stdout, d, engines, clock, unit, *query, *udfName)
}

// udfs builds each -udf representation for a cluster's engines.
var udfs = map[string]func([]*engine.Node) provquery.UDF{
	"polynomial":   func([]*engine.Node) provquery.UDF { return provquery.Polynomial{} },
	"bdd":          func(en []*engine.Node) provquery.UDF { return provquery.BDD(driver.BaseVar(en)) },
	"derivations":  func([]*engine.Node) provquery.UDF { return provquery.Derivations() },
	"nodeset":      func([]*engine.Node) provquery.UDF { return provquery.NodeSet() },
	"derivability": func([]*engine.Node) provquery.UDF { return provquery.Derivability(nil) },
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
}

// print writes the report, then node 0's plans when explain is set and
// every node's canonical state when dump is.
func (r fixpointReport) print(w io.Writer, spec appSpec, engines []*engine.Node, explain, dump bool) {
	fmt.Fprintln(w, r.headline)
	total, avg := float64(r.traffic.TotalBytes), r.traffic.AvgSentBytes()
	if r.inKB {
		fmt.Fprintf(w, "communication: %.1f KB total, %.2f KB avg per node\n", total/1e3, avg/1e3)
	} else {
		fmt.Fprintf(w, "communication: %.3f MB total, %.4f MB avg per node\n", total/1e6, avg/1e6)
	}
	if r.dropped >= 0 {
		fmt.Fprintf(w, "network: %d datagrams dropped\n", r.dropped)
	}
	if r.faults != nil {
		fmt.Fprintf(w, "faults: %d dropped, %d duplicated, %d cut by partition/crash\n",
			r.faults.Dropped, r.faults.Duplicated, r.faults.Cut)
	}
	if r.reliable {
		st := r.transport()
		fmt.Fprintf(w, "transport: %d data frames, %d retransmits, %d pure acks, %d dups absorbed, %d reordered\n",
			st.DataSent, st.Retransmits, st.AcksSent, st.DupsDropped, st.OooBuffered)
	}
	var deltas, fired int64
	for _, en := range engines {
		deltas += en.DeltasProcessed()
		fired += en.RulesFired()
	}
	fmt.Fprintf(w, "engine: %d deltas processed, %d rule firings\n", deltas, fired)
	for _, pred := range spec.outPreds {
		n := 0
		for _, en := range engines {
			n += en.TupleCount(pred)
		}
		if n > 0 {
			fmt.Fprintf(w, "  %-14s %6d tuples\n", pred, n)
		}
	}
	if explain {
		fmt.Fprintln(w, "plans (node 0):")
		engines[0].ExplainPlans(w)
	}
	if dump {
		engine.WriteStates(w, engines)
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

// runQuery asks for the provenance of the tuple literal q at its own node
// and prints the answer in the -udf representation.
// clock reads the driver's time, in unit.
func runQuery(w io.Writer, d driver.Driver, engines []*engine.Node, clock func() simnet.Time, unit, q, udfName string) error {
	t, err := parseTupleLiteral(q)
	if err != nil {
		return err
	}
	loc := t.Loc()
	if loc < 0 || int(loc) >= len(engines) || !slices.ContainsFunc(engines[loc].Tuples(t.Pred), t.Equal) {
		return fmt.Errorf("tuple %s not found (is it visible at node %s?)", t, loc)
	}
	issued := clock()
	var result []byte
	d.Query(loc, t.VID(), loc, func(payload []byte) { result = payload })
	if err := d.Fixpoint(); err != nil {
		return err
	}
	if result == nil {
		return fmt.Errorf("query did not complete")
	}
	fmt.Fprintf(w, "query %s completed in %.4fs (%s)\n", t, (clock() - issued).Seconds(), unit)
	switch udfName {
	case "polynomial":
		expr, err := provquery.DecodePolynomial(result)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "provenance:", expr)
	case "derivations":
		fmt.Fprintln(w, "derivations:", provquery.DecodeCount(result))
	case "nodeset":
		fmt.Fprintln(w, "nodes:", provquery.DecodeNodeSet(result))
	case "derivability":
		fmt.Fprintln(w, "derivable:", provquery.DecodeBool(result))
	default:
		fmt.Fprintf(w, "result: %d bytes\n", len(result))
	}
	return nil
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
