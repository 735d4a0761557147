package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the program's
// copy of BENCHMARK.json (a test keeps the two identical): every run prints
// every end-to-end metric (-trace 0) or every per-layer metric (-trace 1),
// in table order.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd holds the metrics an operator of the system sees. Only metrics
// that are defined — and steady — on all five workloads qualify, because a
// run prints every one of them; tail latency, virtual-time latency and the
// failure share are reported per layer (driver.*) or through the result
// line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"wire_bytes_per_op", "B", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the layer budget: <layer>.<metric>, layer = package under
// internal/, plus runtime (the Go runtime) and driver (this harness). A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"driver.op_ms_p90", "ms", "lower", 0},
	{"driver.op_ms_p99", "ms", "lower", 0},
	{"driver.op_ms_max", "ms", "lower", 0},
	{"driver.op_vms_p50", "ms", "lower", 0},
	{"driver.op_vms_p99", "ms", "lower", 0},
	{"driver.trace_overhead_share", "ratio", "lower", 0},
	{"driver.self_ms_residual", "ms", "lower", 0},

	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.peak_heap_mb", "MB", "lower", 0},
	{"runtime.gomaxprocs", "count", "higher", 0},

	{"topology.gen_ms", "ms", "lower", 0},
	{"topology.nodes", "count", "lower", 0},
	{"topology.links", "count", "lower", 0},
	{"ndlog.parse_ms", "ms", "lower", 0},
	{"ndlog.rules", "count", "lower", 0},

	{"core.new_cluster_ms", "ms", "lower", 0},
	{"core.seed_ms", "ms", "lower", 0},
	{"core.onidle_ms", "ms", "lower", 0},
	{"core.onidle_calls", "count", "lower", 0},
	{"core.release_waves", "count", "lower", 0},

	{"engine.compile_ms", "ms", "lower", 0},
	{"engine.handle_ms", "ms", "lower", 0},
	{"engine.msgs_in", "count", "lower", 0},
	{"engine.deltas", "count", "lower", 0},
	{"engine.rules_fired", "count", "lower", 0},
	{"engine.tuples", "count", "lower", 0},
	{"engine.agg_groups", "count", "lower", 0},
	{"engine.ns_per_delta", "ns", "lower", 0},
	{"engine.wire_bytes_per_delta", "B", "lower", 0},
	{"engine.shards", "count", "higher", 0},
	{"engine.sched_insert_ms", "ms", "lower", 0},
	{"engine.sched_run_ms", "ms", "lower", 0},
	{"engine.sched_rounds", "count", "lower", 0},
	{"engine.msg_encode_ns", "ns", "lower", 0},
	{"engine.msg_decode_ns", "ns", "lower", 0},

	{"simnet.run_ms", "ms", "lower", 0},
	{"simnet.self_ms", "ms", "lower", 0},
	{"simnet.events", "count", "lower", 0},
	{"simnet.msgs", "count", "lower", 0},
	{"simnet.bytes", "B", "lower", 0},
	{"simnet.dropped", "count", "lower", 0},
	{"simnet.self_ns_per_event", "ns", "lower", 0},
	{"simnet.dispatch_ns", "ns", "lower", 0},

	{"provenance.prov_rows", "count", "lower", 0},
	{"provenance.ruleexec_rows", "count", "lower", 0},
	{"provenance.parent_edges", "count", "lower", 0},
	{"provenance.rows_per_delta", "ratio", "lower", 0},
	{"provenance.derivations_ns", "ns", "lower", 0},
	{"provenance.ruleexecof_ns", "ns", "lower", 0},

	{"provquery.handle_ms", "ms", "lower", 0},
	{"provquery.msgs_per_query", "count", "lower", 0},
	{"provquery.bytes_per_query", "B", "lower", 0},
	{"provquery.us_per_msg", "us", "lower", 0},
	{"provquery.cache_hits", "count", "higher", 0},
	{"provquery.cache_misses", "count", "lower", 0},
	{"provquery.cache_hit_ratio", "ratio", "higher", 0},
	{"provquery.invalidations", "count", "lower", 0},
	{"provquery.cache_entries", "count", "lower", 0},
	{"provquery.pending_end", "count", "lower", 0},
	{"provquery.query_us_p50", "us", "lower", 0},
	{"provquery.result_bytes_p50", "B", "lower", 0},

	{"algebra.decode_us_p50", "us", "lower", 0},
	{"algebra.result_nodes_p50", "count", "lower", 0},

	{"types.intern_strs", "count", "lower", 0},
	{"types.intern_ids", "count", "lower", 0},
	{"types.intern_lists", "count", "lower", 0},
	{"types.intern_payloads", "count", "lower", 0},
	{"types.intern_growth_per_op", "count", "lower", 0},
	{"types.vid_ns", "ns", "lower", 0},
	{"types.ruleexecid_ns", "ns", "lower", 0},
	{"types.appendkey_ns", "ns", "lower", 0},
	{"types.tuple_encode_ns", "ns", "lower", 0},
	{"types.tuple_decode_ns", "ns", "lower", 0},

	{"transport.data_sent", "count", "lower", 0},
	{"transport.retransmits", "count", "lower", 0},
	{"transport.acks_sent", "count", "lower", 0},
	{"transport.delivered", "count", "lower", 0},
	{"transport.dups_dropped", "count", "lower", 0},
	{"transport.ooo_buffered", "count", "lower", 0},
	{"transport.retransmit_ratio", "ratio", "lower", 0},
	{"transport.ack_ratio", "ratio", "lower", 0},

	{"deploy.new_cluster_ms", "ms", "lower", 0},
	{"deploy.insert_links_ms", "ms", "lower", 0},
	{"deploy.wait_fixpoint_ms", "ms", "lower", 0},
	{"deploy.stop_ms", "ms", "lower", 0},
	{"deploy.sent_kb_per_node", "KB", "lower", 0},
	{"deploy.dropped", "count", "lower", 0},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentile is the reporting rule for timings: the highest of the
// percentiles this benchmark reports that still has at least ten samples
// beyond it. Below 20 samples even the median does not qualify.
func tailPercentile(n int) float64 {
	tail := 0.0
	for _, p := range []float64{50, 90, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			tail = p
		}
	}
	return tail
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the acceptance rule measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		v := 0.0
		if m == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
