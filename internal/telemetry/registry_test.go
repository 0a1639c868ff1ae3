package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"

	"gigaflow/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("packets_total", "Packets.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	c.Set(100)
	if c.Value() != 100 {
		t.Errorf("counter after Set = %d, want 100", c.Value())
	}
	// Re-registering the same family returns the same series.
	if r.Counter("packets_total", "Packets.") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "Queue depth.")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %v, want 3.5", g.Value())
	}
	g.Set(2)
	if g.Value() != 2 {
		t.Errorf("gauge after Set = %v, want 2", g.Value())
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("table_hits_total", "Hits.", "worker", "table")
	a := v.With("0", "1")
	b := v.With("0", "1")
	if a != b {
		t.Error("same label values must resolve to the same series")
	}
	other := v.With("0", "2")
	if a == other {
		t.Error("distinct label values must be distinct series")
	}
	a.Add(7)
	if b.Value() != 7 || other.Value() != 0 {
		t.Errorf("series isolation broken: %d %d", b.Value(), other.Value())
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Error("conflicting kind registration must panic")
		}
	}()
	r.Gauge("x", "h")
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("y", "h", "worker")
	defer func() {
		if recover() == nil {
			t.Error("wrong label value count must panic")
		}
	}()
	v.With("a", "b")
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_ns", "Latency.")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-5050) > 1e-9 {
		t.Errorf("sum = %v, want 5050", s.Sum)
	}
	if mean := s.Sum / float64(s.Count); math.Abs(mean-50.5) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
	quantile := func(q float64) float64 {
		return stats.QuantileOf(s.Buckets[:], s.Count, q, stats.BucketBounds)
	}
	p50 := quantile(0.5)
	if p50 < 32 || p50 > 96 {
		t.Errorf("p50 = %v, expected in the 64-bucket midpoint range", p50)
	}
	if q := quantile(0.99); q < p50 {
		t.Errorf("p99 %v < p50 %v", q, p50)
	}
}

func TestObserveHistogramFold(t *testing.T) {
	var src stats.Histogram
	for i := 1; i <= 50; i++ {
		src.Add(float64(i))
	}
	r := NewRegistry()
	h := r.Histogram("batch", "Batch results.")
	h.ObserveHistogram(&src)
	s := h.Snapshot()
	if s.Count != 50 {
		t.Errorf("count = %d, want 50", s.Count)
	}
	if math.Abs(s.Sum-src.Sum()) > 1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, src.Sum())
	}
	if s.Buckets != src.Buckets() {
		t.Error("bucket layouts diverge between stats and telemetry histograms")
	}
}

// TestConcurrentWriters hammers every metric type from many goroutines
// while scraping; run with -race.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := string(rune('a' + w))
			c := r.CounterVec("c_total", "h", "w").With(label)
			g := r.GaugeVec("g", "h", "w").With(label)
			h := r.HistogramVec("h_ns", "h", "w").With(label)
			shared := r.Counter("shared_total", "h")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i + 1))
				h.Observe(float64(i))
				shared.Inc()
			}
		}()
	}
	// Scrape concurrently with the writers.
	var scrapeWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var sb strings.Builder
			r.WritePrometheus(&sb)
		}()
	}
	wg.Wait()
	scrapeWG.Wait()

	if got := r.Counter("shared_total", "h").Value(); got != workers*iters {
		t.Errorf("shared counter = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		label := string(rune('a' + w))
		if got := r.CounterVec("c_total", "h", "w").With(label).Value(); got != iters {
			t.Errorf("c_total{w=%s} = %d, want %d", label, got, iters)
		}
		if got := r.GaugeVec("g", "h", "w").With(label).Value(); got != iters {
			t.Errorf("g{w=%s} = %v, want %d", label, got, iters)
		}
		if got := r.HistogramVec("h_ns", "h", "w").With(label).Snapshot().Count; got != iters {
			t.Errorf("h_ns{w=%s} count = %d, want %d", label, got, iters)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("gf_packets_total", "Total packets.").Add(42)
	r.GaugeVec("gf_occupancy", "Entries.", "worker", "table").With("0", "1").Set(7)
	h := r.Histogram("gf_latency_ns", "Latency.")
	h.Observe(3) // bucket [2,4) → le="4"
	h.Observe(100)
	h.Observe(math.Exp2(70)) // top bucket → only the +Inf line

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wants := []string{
		"# HELP gf_packets_total Total packets.",
		"# TYPE gf_packets_total counter",
		"gf_packets_total 42",
		"# TYPE gf_occupancy gauge",
		`gf_occupancy{worker="0",table="1"} 7`,
		"# TYPE gf_latency_ns histogram",
		`gf_latency_ns_bucket{le="4"} 1`,
		`gf_latency_ns_bucket{le="128"} 2`,
		`gf_latency_ns_bucket{le="+Inf"} 3`,
		"gf_latency_ns_count 3",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing and the +Inf line unique.
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Errorf("want exactly one +Inf bucket line:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "k").With(`a"b\c` + "\n").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if want := `esc_total{k="a\"b\\c\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaping broken, want %q in:\n%s", want, sb.String())
	}
}
