// Package stats provides the small measurement toolkit shared by the
// simulator, the benchmark harness, and the example programs: streaming
// summaries, log-scaled latency histograms, time series, and aligned
// plain-text table rendering for experiment reports.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates the count and running mean of a stream of float64
// observations with O(1) memory (Welford's update).
type Summary struct {
	n    uint64
	mean float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
}

// N reports the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Mean reports the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// NumBuckets is the number of log2 histogram buckets shared by Histogram
// and the concurrent telemetry histograms built on the same layout.
const NumBuckets = 64

// BucketIndex maps a non-negative observation to its log2 bucket: values
// below 1 go to bucket 0, bucket i covers [2^i, 2^(i+1)), and the last
// bucket absorbs everything at or above 2^63.
func BucketIndex(x float64) int {
	if x < 1 {
		return 0
	}
	i := int(math.Log2(x))
	if i > NumBuckets-1 {
		i = NumBuckets - 1
	}
	return i
}

// BucketBounds reports the [lo, hi) value range bucket i covers. Bucket 0
// starts at 0 (it absorbs sub-1 values) and the last bucket is unbounded
// above, reported as hi = +Inf.
func BucketBounds(i int) (lo, hi float64) {
	lo = math.Exp2(float64(i))
	if i == 0 {
		lo = 0
	}
	hi = math.Exp2(float64(i + 1))
	if i >= NumBuckets-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// Histogram is a log2-bucketed histogram of non-negative values (e.g.
// latencies in nanoseconds). Bucket i covers [2^i, 2^(i+1)); values < 1 go
// to bucket 0.
type Histogram struct {
	buckets [NumBuckets]uint64
	sum     Summary
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.sum.Add(x)
	h.buckets[BucketIndex(x)]++
}

// Mean reports the mean observation.
func (h *Histogram) Mean() float64 { return h.sum.Mean() }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Mean() * float64(h.sum.N()) }

// Buckets returns a copy of the raw bucket counts (index i holds the count
// for BucketBounds(i)).
func (h *Histogram) Buckets() [NumBuckets]uint64 { return h.buckets }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets, using
// the arithmetic midpoint of the matching bucket.
func (h *Histogram) Quantile(q float64) float64 {
	return QuantileOf(h.buckets[:], h.sum.N(), q, BucketBounds)
}

// QuantileOf estimates the q-quantile (0 ≤ q ≤ 1) of a bucketed
// distribution with counts[i] observations in the value range bounds(i).
// It returns the arithmetic midpoint of the bucket containing the target
// rank, treating an unbounded top bucket (hi = +Inf) as one doubling
// beyond its lower bound. This is the single quantile implementation
// behind Histogram, the telemetry registry's concurrent histograms, and
// the log-linear latency histograms — they differ only in bucket layout.
func QuantileOf(counts []uint64, total uint64, q float64, bounds func(int) (lo, hi float64)) float64 {
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	mid := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo, hi := bounds(i)
		if math.IsInf(hi, 1) {
			hi = 2 * lo
		}
		mid = (lo + hi) / 2
		seen += float64(c)
		if seen >= target {
			return mid
		}
	}
	return mid
}

// Point is one (time, value) sample of a time series; T is virtual
// simulation time in seconds.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series (e.g. hit rate over simulated
// time for Fig. 18).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Table renders aligned plain-text tables for experiment reports.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render produces the aligned table as a string.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := ""
	for i, h := range t.Headers {
		line += pad(h, widths[i]) + "  "
	}
	out += line + "\n"
	sep := ""
	for _, w := range widths {
		for i := 0; i < w; i++ {
			sep += "-"
		}
		sep += "  "
	}
	out += sep + "\n"
	for _, row := range t.Rows {
		line = ""
		for i, c := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			line += pad(c, w) + "  "
		}
		out += line + "\n"
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

// Ratio formats a/b as a percentage string, guarding division by zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*a/b)
}
