package experiments

import (
	"strconv"
	"testing"
)

// The paper's shapes — who wins, by what factor — checked on the Results
// TestFiguresGolden pins: figure shares one run of every experiment.

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig06Shape(t *testing.T) {
	res := figure(t, "fig06")
	for _, row := range res.Rows {
		value, ref, none := parseF(t, row[1]), parseF(t, row[2]), parseF(t, row[3])
		if !(value > ref && ref > none) {
			t.Errorf("n=%s: want value > ref > none, got %v %v %v", row[0], value, ref, none)
		}
		if ref/none > 1.6 {
			t.Errorf("n=%s: reference overhead %0.f%% too large", row[0], (ref/none-1)*100)
		}
	}
}

func TestFig07Shape(t *testing.T) {
	res := figure(t, "fig07")
	for _, row := range res.Rows {
		value, ref, none := parseF(t, row[1]), parseF(t, row[2]), parseF(t, row[3])
		if !(value > ref && ref > none) {
			t.Errorf("n=%s: want value > ref > none, got %v %v %v", row[0], value, ref, none)
		}
	}
}

func TestFig08Shape(t *testing.T) {
	res := figure(t, "fig08")
	// Data-plane overhead of provenance must be small relative to the
	// 1 KB payloads: value and reference within 30% of no-provenance in
	// aggregate.
	var sums [3]float64
	for _, row := range res.Rows {
		for i := 0; i < 3; i++ {
			sums[i] += parseF(t, row[i+1])
		}
	}
	if sums[2] == 0 {
		t.Fatal("no traffic recorded")
	}
	if ratio := sums[0] / sums[2]; ratio > 1.6 {
		t.Errorf("value-based packet forwarding overhead ratio %.2f too large", ratio)
	}
	if ratio := sums[1] / sums[2]; ratio > 1.3 {
		t.Errorf("reference packet forwarding overhead ratio %.2f too large", ratio)
	}
}

func TestFig09ChurnShape(t *testing.T) {
	res := figure(t, "fig09")
	var sums [3]float64
	for _, row := range res.Rows {
		for i := 0; i < 3; i++ {
			sums[i] += parseF(t, row[i+1])
		}
	}
	// Under churn, reference tracks no-prov closely; value is well above.
	if !(sums[0] > sums[1] && sums[1] >= sums[2]) {
		t.Errorf("want value > ref >= none, got %v", sums)
	}
}

func TestFig11CachingSavesBandwidth(t *testing.T) {
	res := figure(t, "fig11")
	var without, with float64
	for _, row := range res.Rows {
		without += parseF(t, row[1])
		with += parseF(t, row[2])
	}
	if with >= without {
		t.Errorf("caching should reduce bandwidth: with=%.2f without=%.2f", with, without)
	}
}

func TestFig12CachingCutsLatency(t *testing.T) {
	res := figure(t, "fig12")
	// Caching must not hurt, and must help at the low quantiles where
	// cache hits dominate.
	betterAt := 0
	for _, row := range res.Rows {
		frac := parseF(t, row[0])
		without, with := parseF(t, row[1]), parseF(t, row[2])
		if with > without*1.1 {
			t.Errorf("q=%.2f: caching worsened latency (%.4f -> %.4f)", frac, without, with)
		}
		if with < without {
			betterAt++
		}
	}
	if betterAt < len(res.Rows)/2 {
		t.Errorf("caching improved only %d/%d quantiles", betterAt, len(res.Rows))
	}
}

func TestFig14DFSLongTail(t *testing.T) {
	res := figure(t, "fig14")
	last := res.Rows[len(res.Rows)-1] // the max (q=1.0)
	bfsMax, dfsMax, thrMax := parseF(t, last[1]), parseF(t, last[2]), parseF(t, last[3])
	if dfsMax <= bfsMax {
		t.Errorf("DFS max latency %.4f should exceed BFS %.4f (long tail)", dfsMax, bfsMax)
	}
	if thrMax > dfsMax {
		t.Errorf("threshold max %.4f should not exceed plain DFS %.4f", thrMax, dfsMax)
	}
	// Medians are comparable across strategies.
	var median []float64
	for _, row := range res.Rows {
		if row[0] == "0.50" {
			median = []float64{parseF(t, row[1]), parseF(t, row[2]), parseF(t, row[3])}
		}
	}
	if len(median) == 3 && (median[1] > 2*median[0] || median[0] > 2*median[1]) {
		t.Errorf("BFS/DFS medians diverge unexpectedly: %v", median)
	}
}

func TestFig13ThresholdSavesBandwidth(t *testing.T) {
	res := figure(t, "fig13")
	bfs := parseF(t, res.Rows[0][2])
	dfs := parseF(t, res.Rows[1][2])
	thr := parseF(t, res.Rows[2][2])
	// BFS and DFS traverse the whole graph (similar totals); the
	// threshold variant prunes.
	if thr >= bfs {
		t.Errorf("DFS-Threshold (%.2f) should use less than BFS (%.2f)", thr, bfs)
	}
	if dfs > bfs*1.3 || bfs > dfs*1.3 {
		t.Errorf("BFS (%.2f) and DFS (%.2f) should be comparable", bfs, dfs)
	}
}

func TestFig15BDDCondenses(t *testing.T) {
	res := figure(t, "fig15")
	poly := parseF(t, res.Rows[0][2])
	bddKB := parseF(t, res.Rows[1][2])
	if bddKB >= poly {
		t.Errorf("BDD (%.2f KB) should be cheaper than polynomial (%.2f KB)", bddKB, poly)
	}
}
