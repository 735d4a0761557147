// Package stats provides the measurement utilities behind the evaluation
// harness: the byte ledger every driver charges (Traffic), time-bucketed
// bandwidth recording (the "average bandwidth (MBps) over time" figures),
// latency quantiles (the query-completion figures) and table rendering.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Bandwidth accumulates bytes into fixed-width virtual-time buckets.
type Bandwidth struct {
	BucketNs int64 // bucket width in nanoseconds
	buckets  map[int64]int64
}

// NewBandwidth creates a recorder with the given bucket width in
// nanoseconds.
func NewBandwidth(bucketNs int64) *Bandwidth {
	return &Bandwidth{BucketNs: bucketNs, buckets: map[int64]int64{}}
}

// Record adds bytes at virtual time now (nanoseconds).
func (b *Bandwidth) Record(nowNs, bytes int64) {
	b.buckets[int64(nowNs)/b.BucketNs] += bytes
}

// Reset clears all buckets.
func (b *Bandwidth) Reset() { b.buckets = map[int64]int64{} }

// Point is one series sample: time (seconds) and rate (MB per second).
type Point struct {
	TimeSec float64
	MBps    float64
}

// Series returns the recorded bandwidth as a series of per-bucket rates in
// MBps, averaged over perNodes nodes, covering buckets [0, untilNs).
func (b *Bandwidth) Series(untilNs int64, perNodes int) []Point {
	if perNodes <= 0 {
		perNodes = 1
	}
	n := (untilNs + b.BucketNs - 1) / b.BucketNs
	out := make([]Point, 0, n)
	secPerBucket := float64(b.BucketNs) / 1e9
	for i := int64(0); i < n; i++ {
		mb := float64(b.buckets[i]) / 1e6
		out = append(out, Point{
			TimeSec: float64(i) * secPerBucket,
			MBps:    mb / secPerBucket / float64(perNodes),
		})
	}
	return out
}

// CDF collects scalar samples (e.g. query completion latencies in seconds)
// and answers quantile queries.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF creates an empty collector.
func NewCDF() *CDF { return &CDF{} }

// Add records one sample.
func (c *CDF) Add(x float64) { c.samples = append(c.samples, x); c.sorted = false }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1), or NaN when empty.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	idx := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.samples) {
		idx = len(c.samples) - 1
	}
	return c.samples[idx]
}

// Table renders rows of label/value pairs with aligned columns; the bench
// harness uses it to print each figure as a text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	dashes := make([]string, len(header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	writeRow(dashes)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
