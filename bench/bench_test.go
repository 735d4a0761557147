package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/topology"
)

func TestTailPercentile(t *testing.T) {
	// The highest reported percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {100000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1}, // root
		{start: 10, end: 30, parent: 0},  // child
		{start: 20, end: 50, parent: 0},  // overlaps the previous child: cover is the union 10..50
		{start: 90, end: 120, parent: 0}, // sticks out of the parent: clipped to 90..100
		{start: 12, end: 18, parent: 1},  // grandchild: only its own parent loses it
		{start: 40, end: 45, parent: 2},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30 - 5, 30, 6, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Children recorded out of start order are still a union.
	spans = []span{{start: 0, end: 10, parent: -1}, {start: 6, end: 8, parent: 0}, {start: 1, end: 7, parent: 0}}
	if got := selfTimes(spans); got[0] != 3 {
		t.Errorf("root self = %d, want 10 - |1..8| = 3", got[0])
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin(kOp)) // tracing off: every call is a no-op
	off.finishOp(0, &totals{})

	tr := newTracer()
	var tot totals
	root := tr.begin(kOp)
	run := tr.begin(kSimRun)
	tr.leaf(kEngineMsg, tr.now(), tr.now())
	tr.end(run)
	tr.end(root)
	tr.finishOp(0, &tot)
	if tot.n[kOp] != 1 || tot.n[kSimRun] != 1 || tot.n[kEngineMsg] != 1 {
		t.Fatalf("span counts = %v", tot.n)
	}
	if got := tot.self[kOp] + tot.self[kSimRun] + tot.self[kEngineMsg]; got != tot.dur[kOp] {
		t.Errorf("self times add up to %d, the root lasted %d", got, tot.dur[kOp])
	}
	if len(tr.kept) != 1 || tr.kept[0].spans[2].parent != 1 {
		t.Errorf("kept spans = %+v", tr.kept)
	}
}

// inputs extracts what a freshly set-up workload generated from its seed.
func inputs(t *testing.T, name string, seed int64) any {
	t.Helper()
	w, err := newWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(seed, newMeter()); err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *simWorkload:
		// The choice RNG is part of the inputs: draw from it.
		return []any{w.topos, w.rng.Int63()}
	case *chordWorkload:
		return []any{w.topo, w.lookupTs}
	case *udpWorkload:
		return w.topos
	}
	t.Fatalf("unknown workload type %T", w)
	return nil
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloadInfo {
		a, b, c := inputs(t, w.name, 7), inputs(t, w.name, 7), inputs(t, w.name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds generated the same inputs", w.name)
		}
	}
}

// smoke runs a workload at tiny size: set-up, the counter window, a short
// traced pass, probes and every oracle.
func smoke(t *testing.T, name string) *result {
	t.Helper()
	defer func(n int) { probeCalls = n }(probeCalls)
	probeCalls = 500
	res, err := runWorkload(name, 3, 0, true, "", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.errs {
		t.Errorf("%s: %v", name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", name, res.failed, res.attempted)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	// Exact for a seed on the simulator and the scheduler; a mismatch
	// between two runs is a failure, not a note.
	exact := []string{"wire_bytes_per_op", "driver.op_vms_p50", "engine.deltas", "engine.sched_rounds",
		"simnet.events", "provquery.cache_hits", "provquery.cache_misses", "provquery.invalidations"}
	for _, w := range workloadInfo {
		res := smoke(t, w.name)
		for _, d := range endToEnd {
			if v := res.values[d.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.name, d.name, v)
			}
		}
		if !deterministic(w.name) {
			continue
		}
		again := smoke(t, w.name)
		for _, k := range exact {
			if res.values[k] != again.values[k] {
				t.Errorf("%s: %s = %v, then %v with the same seed", w.name, k, res.values[k], again.values[k])
			}
		}
	}
}

func TestLayerBudgetAddsUp(t *testing.T) {
	res := smoke(t, "mincost-fixpoint")
	v := res.values
	if v["engine.handle_ms"] <= 0 || v["simnet.self_ms"] <= 0 || v["engine.deltas"] <= 0 {
		t.Fatalf("layer budget is empty: handle_ms=%v self_ms=%v deltas=%v",
			v["engine.handle_ms"], v["simnet.self_ms"], v["engine.deltas"])
	}
	// Sim.Run's children are the handler, idle-hook and time-zero spans.
	parts := v["simnet.self_ms"] + v["engine.handle_ms"] + v["core.onidle_ms"] + v["core.seed_ms"]
	if math.Abs(parts-v["simnet.run_ms"]) > 1e-6*v["simnet.run_ms"]+1e-9 {
		t.Errorf("Sim.Run lasted %v ms, its self time and children add up to %v ms", v["simnet.run_ms"], parts)
	}
}

func TestCorruptedOracleFailsTheRun(t *testing.T) {
	w, err := newWorkload("mincost-fixpoint", true)
	if err != nil {
		t.Fatal(err)
	}
	sw := w.(*simWorkload)
	m := newMeter()
	if err := sw.setup(3, m); err != nil {
		t.Fatal(err)
	}
	if s := sw.op(0, m); s.err != nil {
		t.Fatalf("clean run failed: %v", s.err)
	}
	// Hand the oracle a topology that is not the one the cluster ran on.
	wrong := *sw.topos[1]
	wrong.Links = append([]topology.Link(nil), wrong.Links...)
	wrong.Links[0].Cost += 3
	sw.want[1] = bestCosts(&wrong, true)
	s := sw.op(1, m)
	if s.err == nil {
		t.Fatal("the oracle accepted costs computed for another topology")
	}
	// A failed operation makes the result incorrect, which is what main
	// turns into a non-zero exit.
	res := &result{workload: "mincost-fixpoint", attempted: 1, values: map[string]float64{}}
	res.fail(s.err)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if report(devnull, res, false) {
		t.Error("report called a run with a failed operation correct")
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables this program
// prints from identical.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloadInfo) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloadInfo))
	}
	for i, w := range workloadInfo {
		if manifest.Workloads[i].Name != w.name || manifest.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %+v, program has %+v", i, manifest.Workloads[i], w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: manifest has %+v, program has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end-to-end", manifest.EndToEnd, endToEnd, true)
	check("per-layer", manifest.PerLayer, perLayer, false)
}
