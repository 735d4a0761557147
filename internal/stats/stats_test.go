package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBandwidthBuckets(t *testing.T) {
	b := NewBandwidth(1e9) // 1 s buckets
	b.Record(0, 100)
	b.Record(5e8, 100)
	b.Record(15e8, 300)
	pts := b.Series(2e9, 1)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	// Bucket 0: 200 B over 1 s = 0.0002 MBps.
	if math.Abs(pts[0].MBps-0.0002) > 1e-9 {
		t.Errorf("bucket 0 = %v", pts[0].MBps)
	}
	if math.Abs(pts[1].MBps-0.0003) > 1e-9 {
		t.Errorf("bucket 1 = %v", pts[1].MBps)
	}
	// Per-node averaging divides the rate.
	pts = b.Series(2e9, 2)
	if math.Abs(pts[0].MBps-0.0001) > 1e-9 {
		t.Errorf("per-node bucket 0 = %v", pts[0].MBps)
	}
	b.Reset()
	if pts = b.Series(2e9, 1); pts[0].MBps != 0 || pts[1].MBps != 0 {
		t.Errorf("after Reset: %+v", pts)
	}
}

func TestCDFQuantiles(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	cases := map[float64]float64{0.01: 1, 0.5: 50, 0.8: 80, 1.0: 100}
	for q, want := range cases {
		if got := c.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF()
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF should return NaN")
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(samples []float64) bool {
		if len(samples) == 0 {
			return true
		}
		c := NewCDF()
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return true
			}
			c.Add(s)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"A", "BB"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("no separator: %q", lines[1])
	}
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned rows %q vs %q", lines[2], lines[3])
	}
}
