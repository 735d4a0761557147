package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// sample is what one operation reports to the runner.
type sample struct {
	wallNs int64 // wall time of the operation's timed region
	vNs    int64 // its simulated-network duration; 0 without a virtual clock
	bytes  int64 // wire bytes charged during the timed region, headers included
	err    error // the operation errored, did not complete or failed its oracle
}

// tally is a set of cumulative work counters keyed by the per-layer metric
// each one feeds; the runner reports differences per operation.
type tally map[string]float64

func (t tally) add(o tally) {
	for k, v := range o {
		t[k] += v
	}
}

func (t tally) clone() tally {
	c := make(tally, len(t))
	c.add(t)
	return c
}

// workload is one of the five benchmark workloads. A value is used for one
// set-up and the operations that follow it.
type workload interface {
	// setup generates the inputs from the seed, builds the state the
	// operations start from and runs the warm-up operation.
	setup(seed int64, m *meter) error
	// op runs operation i; oracles the operation owns run inside it,
	// outside the timed region.
	op(i int, m *meter) sample
	// trace switches the harness seams of long-lived state to traced mode.
	trace(m *meter)
	// work returns the cumulative work counters of the operations so far.
	work() tally
	// finish runs the end-of-run oracles.
	finish() []error
	// state describes the last converged cluster: its engine nodes and
	// topology (probe inputs), and gauges of the state it holds.
	state() (nodes []*engine.Node, topo *topology.Topology, gauges tally)
	// window is the number of leading operations the deterministic counters
	// are taken over (0 = every operation of the untraced pass), so that
	// they do not depend on how many operations the time budget allows.
	window() int
}

// meter carries what an operation needs to measure itself: the tracer (nil
// with tracing off), the span totals, and runtime allocation sampling around
// timed regions.
type meter struct {
	tr       *tracer
	ops, aux totals // spans under op roots / under untimed aux roots

	sampleRuntime bool
	rt            [3]metrics.Sample
	allocObjs     uint64
	allocBytes    uint64
	peakHeap      uint64
	rt0           [2]uint64

	root int32

	// Set-up timings the workloads record for the layer budget.
	genNs, parseNs, compileNs int64
	rules                     int

	forcedGCs    int64 // collections cleanHeap forced
	releaseWaves int64
	queryUs      []float64 // wall time of each interleaved or timed query
	resultBytes  []float64
	decodeUs     []float64
	resultNodes  []float64
	queries      int64
	queryMsgs    int64
	queryBytes   int64
}

func newMeter() *meter {
	m := &meter{}
	m.rt[0].Name = "/gc/heap/allocs:objects"
	m.rt[1].Name = "/gc/heap/allocs:bytes"
	m.rt[2].Name = "/memory/classes/heap/objects:bytes"
	return m
}

// start opens an operation's timed region.
func (m *meter) start() time.Time {
	if m.sampleRuntime {
		metrics.Read(m.rt[:])
		m.rt0 = [2]uint64{m.rt[0].Value.Uint64(), m.rt[1].Value.Uint64()}
	}
	m.root = m.tr.begin(kOp)
	return time.Now()
}

// stop closes the timed region start opened and returns its wall time.
func (m *meter) stop(t0 time.Time) int64 {
	wall := int64(time.Since(t0))
	m.tr.end(m.root)
	if m.sampleRuntime {
		metrics.Read(m.rt[:])
		m.allocObjs += m.rt[0].Value.Uint64() - m.rt0[0]
		m.allocBytes += m.rt[1].Value.Uint64() - m.rt0[1]
		if h := m.rt[2].Value.Uint64(); h > m.peakHeap {
			m.peakHeap = h
		}
	}
	return wall
}

// timed runs fn inside a span of the given kind.
func (m *meter) timed(k kind, fn func()) {
	sp := m.tr.begin(k)
	fn()
	m.tr.end(sp)
}

// untimed runs harness work that is not part of operation i's timed region
// under an aux root, so that its spans still reach the layer budget.
func (m *meter) untimed(i int, fn func()) {
	aux := m.tr.begin(kAux)
	fn()
	m.tr.end(aux)
	m.tr.finishOp(i, &m.aux)
}

// compile parses and compiles a workload's program, recording both timings
// and the rule count for the layer budget.
func (m *meter) compile(parse func() *ndlog.Program) (*ndlog.Program, *engine.Program, error) {
	t0 := time.Now()
	src := parse()
	m.parseNs = int64(time.Since(t0))
	t0 = time.Now()
	prog, err := engine.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	m.compileNs, m.rules = int64(time.Since(t0)), len(prog.Rules)
	return src, prog, nil
}

// rotate maps an operation number (-1 for the warm-up) onto one of n inputs.
func rotate(i, n int) int { return ((i % n) + n) % n }

// result is one workload run, ready to print.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	errs      []error
	shards    int
	tail      float64 // highest supported percentile of the untraced pass
	values    map[string]float64
}

// setupReps is how often a run repeats the set-up; setup_s is their median,
// so the first repetition's process-cold cost does not decide it.
const setupReps = 3

// loadThreads is the number of threads the load generator itself needs: a
// closed loop with one client.
const loadThreads = 1

// runWorkload runs one workload: set-up, an untraced pass that yields the
// end-to-end metrics and — with trace on — a traced pass, probes and
// counters that yield the per-layer metrics. The passes share the time
// budget.
func runWorkload(name string, seed int64, seconds float64, trace bool, traceOut string, tiny bool) (*result, error) {
	if loadThreads > runtime.NumCPU() {
		return nil, fmt.Errorf("the load generator needs %d thread(s), the host has %d", loadThreads, runtime.NumCPU())
	}
	res := &result{workload: name, seed: seed, values: map[string]float64{}}
	v := res.values

	m := newMeter()
	var w workload
	var setups []float64
	for r := 0; r < setupReps; r++ {
		var err error
		if w, err = newWorkload(name, tiny); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(seed, m); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	v["setup_s"] = median(setups)
	v["setup_first_s"] = setups[0]

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	v["live_heap_mb"] = float64(ms.HeapAlloc) / 1e6
	pause0, gcs0, forced0 := ms.PauseTotalNs, ms.NumGC, m.forcedGCs
	gcCPU0, allCPU0 := cpuSeconds()
	strs0, ids0, lists0, pay0 := types.InternStats()

	// Untraced pass.
	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		budget /= 2
		m.sampleRuntime = true
	}
	win := w.window()
	work0 := w.work()
	var workWin tally
	var winBytes int64
	var wall, vms []float64
	var wallSum int64
	i := 0
	deadline := time.Now().Add(budget)
	for ; i < win || time.Now().Before(deadline) || i == 0; i++ {
		s := w.op(i, m)
		res.attempted++
		if s.err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, s.err))
		}
		wall = append(wall, float64(s.wallNs)/1e6)
		vms = append(vms, float64(s.vNs)/1e6)
		wallSum += s.wallNs
		if win == 0 || i < win {
			winBytes += s.bytes
		}
		if i+1 == win {
			workWin = w.work()
		}
	}
	untracedOps := i
	if win == 0 {
		win, workWin = untracedOps, w.work()
	}
	m.sampleRuntime = false
	runtime.ReadMemStats(&ms)
	forced := m.forcedGCs - forced0
	gcCPU1, allCPU1 := cpuSeconds()
	strs1, ids1, lists1, pay1 := types.InternStats()

	sw := sortedCopy(wall)
	res.tail = tailPercentile(len(sw))
	v["op_ms_p50"] = percentile(sw, 50)
	v["ops_per_s"] = float64(untracedOps) / (float64(wallSum) / 1e9)
	v["wire_bytes_per_op"] = float64(winBytes) / float64(win)
	if len(sw) >= 100 {
		v["driver.op_ms_p90"] = percentile(sw, 90)
	}
	if len(sw) >= 1000 {
		v["driver.op_ms_p99"] = percentile(sw, 99)
	}
	v["driver.op_ms_max"] = sw[len(sw)-1]
	sv := sortedCopy(vms)
	v["driver.op_vms_p50"] = percentile(sv, 50)
	if len(sv) >= 1000 {
		v["driver.op_vms_p99"] = percentile(sv, 99)
	}
	for k, c := range workWin {
		v[k] = (c - work0[k]) / float64(win)
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			v[name] = num / den
		}
	}
	ratio("provquery.cache_hit_ratio", v["provquery.cache_hits"], v["provquery.cache_hits"]+v["provquery.cache_misses"])
	ratio("transport.retransmit_ratio", v["transport.retransmits"], v["transport.data_sent"])
	ratio("transport.ack_ratio", v["transport.acks_sent"], v["transport.delivered"])

	if trace {
		ops := float64(untracedOps)
		v["runtime.allocs_per_op"] = float64(m.allocObjs) / ops
		v["runtime.alloc_kb_per_op"] = float64(m.allocBytes) / 1e3 / ops
		v["runtime.gc_cycles"] = float64(int64(ms.NumGC-gcs0) - forced)
		v["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-pause0) / 1e6
		if allCPU1 > allCPU0 {
			v["runtime.gc_cpu_share"] = (gcCPU1 - gcCPU0) / (allCPU1 - allCPU0)
		}
		v["runtime.peak_heap_mb"] = float64(m.peakHeap) / 1e6
		v["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		v["types.intern_growth_per_op"] = float64(strs1+ids1+lists1+pay1-strs0-ids0-lists0-pay0) / ops
		v["types.intern_strs"], v["types.intern_ids"] = float64(strs1), float64(ids1)
		v["types.intern_lists"], v["types.intern_payloads"] = float64(lists1), float64(pay1)

		// Traced pass: a coin decides per operation between spans recorded
		// and tracing off, so that the overhead compares like with like — on
		// the stateful workloads operation cost drifts with the state, and a
		// strict alternation would split the rotating topologies between
		// the two sides.
		coin := rand.New(rand.NewSource(seed))
		tr := newTracer()
		m.tr = tr
		w.trace(m)
		var traced, plain []float64
		deadline = time.Now().Add(budget)
		for first := i; i < first+2 || time.Now().Before(deadline); i++ {
			m.tr = nil
			if i == first || (i > first+1 && coin.Intn(2) == 0) {
				m.tr = tr
			}
			s := w.op(i, m)
			res.attempted++
			if s.err != nil {
				res.fail(fmt.Errorf("op %d (traced pass): %w", i, s.err))
			}
			if m.tr != nil {
				traced = append(traced, float64(s.wallNs)/1e6)
			} else {
				plain = append(plain, float64(s.wallNs)/1e6)
			}
		}
		m.tr = tr
		layerBudget(v, m, len(traced))
		v["driver.trace_overhead_share"] = (median(traced) - median(plain)) / median(plain)
		if traceOut != "" {
			if err := m.tr.writeFile(traceOut, name, seed); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}

	for _, err := range w.finish() {
		res.attempted++
		res.fail(err)
	}
	nodes, topo, gauges := w.state()
	for k, g := range gauges {
		v[k] = g
	}
	res.shards = nodes[0].NumShards()
	if trace {
		v["topology.gen_ms"] = float64(m.genNs) / 1e6
		v["topology.nodes"], v["topology.links"] = float64(topo.N), float64(len(topo.Links))
		v["ndlog.parse_ms"] = float64(m.parseNs) / 1e6
		v["ndlog.rules"] = float64(m.rules)
		v["engine.compile_ms"] = float64(m.compileNs) / 1e6
		v["engine.shards"] = float64(res.shards)
		ratio("engine.wire_bytes_per_delta", v["wire_bytes_per_op"], v["engine.deltas"])
		onSimnet := v["simnet.events"] > 0
		probes(v, nodes, topo, onSimnet)
	}
	return res, nil
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err)
	}
}

// layerBudget turns the traced pass's span totals into the per-layer timing
// metrics. Every *_ms value is a mean per operation, so that the layers'
// self times add up to the mean operation wall time.
func layerBudget(v map[string]float64, m *meter, tracedOps int) {
	n := float64(tracedOps)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	per := func(c int64) float64 { return float64(c) / n }
	ops, aux := &m.ops, &m.aux

	v["driver.self_ms_residual"] = ms(ops.self[kOp])
	v["core.new_cluster_ms"] = ms(ops.dur[kNewCluster])
	v["core.seed_ms"] = ms(ops.dur[kSeed])
	v["core.onidle_ms"] = ms(ops.dur[kOnIdle])
	v["core.onidle_calls"] = per(ops.n[kOnIdle])
	v["core.release_waves"] = per(m.releaseWaves)
	v["engine.handle_ms"] = ms(ops.dur[kEngineMsg])
	v["engine.msgs_in"] = per(ops.n[kEngineMsg])
	v["engine.sched_insert_ms"] = ms(ops.dur[kSchedInsert])
	v["engine.sched_run_ms"] = ms(ops.dur[kSchedRun])
	v["simnet.run_ms"] = ms(ops.dur[kSimRun])
	v["simnet.self_ms"] = ms(ops.self[kSimRun])
	if ev := v["simnet.events"]; ev > 0 {
		v["simnet.self_ns_per_event"] = v["simnet.self_ms"] * 1e6 / ev
	}
	v["deploy.new_cluster_ms"] = ms(aux.dur[kDeployNew] + aux.dur[kDeployStart])
	v["deploy.insert_links_ms"] = ms(ops.dur[kDeployInsert])
	v["deploy.wait_fixpoint_ms"] = ms(ops.dur[kDeployWait])
	v["deploy.stop_ms"] = ms(aux.dur[kDeployStop])

	// Engine time per delta: everything the traced seams attribute to
	// evaluation (handlers, time-zero injection, release waves, base edits;
	// scheduler inserts and rounds; on UDP the whole wait, which includes
	// transport).
	engineNs := ops.layerSelf("engine") + ops.dur[kSeed] + ops.dur[kOnIdle] +
		ops.dur[kDeployInsert] + ops.dur[kDeployWait]
	if d := v["engine.deltas"]; d > 0 {
		v["engine.ns_per_delta"] = float64(engineNs) / n / d
	}

	// Query protocol: the timed queries of query-poly sit under op roots,
	// the interleaved ones of churn-cached under aux roots.
	qNs := ops.dur[kQueryCall] + ops.dur[kQueryMsg] + aux.dur[kQueryCall] + aux.dur[kQueryMsg]
	qMsgs := ops.n[kQueryMsg] + aux.n[kQueryMsg]
	v["provquery.handle_ms"] = ms(qNs)
	if qMsgs > 0 {
		v["provquery.us_per_msg"] = float64(ops.dur[kQueryMsg]+aux.dur[kQueryMsg]) / 1e3 / float64(qMsgs)
	}
	if m.queries > 0 {
		v["provquery.msgs_per_query"] = float64(m.queryMsgs) / float64(m.queries)
		v["provquery.bytes_per_query"] = float64(m.queryBytes) / float64(m.queries)
	}
	v["provquery.query_us_p50"] = median(m.queryUs)
	v["provquery.result_bytes_p50"] = median(m.resultBytes)
	v["algebra.decode_us_p50"] = median(m.decodeUs)
	v["algebra.result_nodes_p50"] = median(m.resultNodes)
}

// cpuSeconds reads the runtime's own CPU accounting: seconds spent in the
// garbage collector and in total.
func cpuSeconds() (gc, all float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// finite guards the result line against NaN and Inf, which JSON cannot
// carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
