package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.N() != 0 {
		t.Error("empty summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	prop := func(xs []float64) bool {
		var s Summary
		var sum float64
		count := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			s.Add(x)
			sum += x
			count++
		}
		if count == 0 {
			return s.N() == 0
		}
		naive := sum / float64(count)
		return math.Abs(s.Mean()-naive) < 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// count sums h's buckets: the number of observations it holds.
func count(h *Histogram) uint64 {
	var n uint64
	for _, c := range h.Buckets() {
		n += c
	}
	return n
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if n := count(&h); n != 1000 {
		t.Errorf("count = %d", n)
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Errorf("mean = %v", h.Mean())
	}
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %v, expected within the 512-ish bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	if got := h.Sum(); math.Abs(got-500500) > 1e-6 {
		t.Errorf("sum = %v, want 500500", got)
	}
}

func TestHistogramEdge(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.Add(0)
	h.Add(0.5)
	if h.Buckets()[0] != 2 {
		t.Error("sub-1 values must land in bucket 0")
	}
	if q := h.Quantile(0.5); q < 0 || q > 1 {
		t.Errorf("q = %v", q)
	}
	h.Add(math.MaxFloat64) // clamps to last bucket, must not panic
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {0.25, 0}, {0.999, 0}, {1, 0}, {1.5, 0},
		{2, 1}, {3.99, 1}, {4, 2}, {1024, 10},
		{math.Exp2(63), NumBuckets - 1},
		{math.MaxFloat64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketIndex(c.x); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Every representable value must fall inside its bucket's bounds.
	for _, c := range cases {
		lo, hi := BucketBounds(BucketIndex(c.x))
		if c.x < lo || c.x >= hi {
			t.Errorf("x=%v outside bucket bounds [%v, %v)", c.x, lo, hi)
		}
	}
	if lo, _ := BucketBounds(0); lo != 0 {
		t.Errorf("bucket 0 lo = %v, want 0", lo)
	}
	if _, hi := BucketBounds(NumBuckets - 1); !math.IsInf(hi, 1) {
		t.Errorf("last bucket hi = %v, want +Inf", hi)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// All mass in one bucket: every quantile is that bucket's midpoint.
	var single Histogram
	for i := 0; i < 100; i++ {
		single.Add(100) // bucket [64, 128)
	}
	want := (64.0 + 128.0) / 2
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != want {
			t.Errorf("single-bucket Quantile(%v) = %v, want %v", q, got, want)
		}
	}

	// Sub-1 values land in bucket 0, whose midpoint is 1.
	var tiny Histogram
	tiny.Add(0)
	tiny.Add(0.001)
	if got := tiny.Quantile(0.5); got != 1 {
		t.Errorf("bucket-0 midpoint = %v, want 1", got)
	}

	// Values at or above 2^63 clamp into the last bucket; quantiles must
	// stay finite (Quantile falls through to Max for the tail).
	var huge Histogram
	huge.Add(math.Exp2(70))
	if got := huge.Quantile(0.99); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("huge Quantile(0.99) = %v, want finite", got)
	}

	// q=0 with data: the first non-empty bucket wins (target 0, seen >= 0
	// once a bucket with mass is reached).
	var h Histogram
	h.Add(5) // bucket [4, 8)
	h.Add(1000)
	if got := h.Quantile(0); got != 6 {
		t.Errorf("Quantile(0) = %v, want 6", got)
	}
	// q=1 must not exceed the recorded maximum's bucket upper bound.
	if got := h.Quantile(1); got > 1024 {
		t.Errorf("Quantile(1) = %v, want <= 1024", got)
	}
}

func TestHistogramSumBuckets(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Add(float64(i))
	}
	if got := h.Sum(); math.Abs(got-55) > 1e-9 {
		t.Errorf("Sum = %v, want 55", got)
	}
	b := h.Buckets()
	if n := count(&h); n != 10 {
		t.Errorf("bucket counts sum to %d, want 10", n)
	}
	// 1 → bucket 0; 2,3 → bucket 1; 4..7 → bucket 2; 8,9,10 → bucket 3.
	if b[0] != 1 || b[1] != 2 || b[2] != 4 || b[3] != 3 {
		t.Errorf("buckets = %v", b[:4])
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "hit-rate"
	s.Add(0, 0.5)
	s.Add(1, 0.75)
	if len(s.Points) != 2 || s.Points[1].V != 0.75 {
		t.Errorf("points = %v", s.Points)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Fig X", Headers: []string{"pipeline", "hit%"}}
	tb.AddRow("OLS", 93.26)
	tb.AddRow("PSC", 61.0)
	tb.AddRow("big", 1234567.0)
	tb.AddRow("tiny", 0.001)
	out := tb.Render()
	for _, want := range []string{"Fig X", "pipeline", "OLS", "93.26", "1234567", "0.0010"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 { // title, header, separator, 4 rows
		t.Errorf("rendered %d lines", len(lines))
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != "50.0%" {
		t.Errorf("got %q", Ratio(1, 2))
	}
	if Ratio(1, 0) != "n/a" {
		t.Errorf("got %q", Ratio(1, 0))
	}
}
