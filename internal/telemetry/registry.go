// Package telemetry is the repo's stdlib-only observability layer: a
// concurrent metrics registry (atomic counters, gauges, and log2-bucketed
// histograms with label support, exposed in the Prometheus text format)
// and the per-tier latency recorder with its flight ring.
//
// The layer is built for a hot packet path: counters and gauges are single
// atomic words, and histograms are arrays of atomic buckets sharing
// internal/stats.Histogram's log2 layout.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gigaflow/internal/stats"
)

// Kind distinguishes the metric families a Registry holds.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a log2-bucketed distribution.
	KindHistogram
)

// String names the kind as Prometheus spells it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// seriesSep joins label values into a series key; label values never
// contain it in practice (it is not valid UTF-8 text).
const seriesSep = "\xff"

// Family is one named metric with a fixed kind and label schema, holding
// one series per distinct combination of label values.
type Family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu     sync.RWMutex
	series map[string]any // *Counter | *Gauge | *Histogram
}

func (f *Family) key(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, seriesSep)
}

// with returns the series for the given label values, creating it lazily.
func (f *Family) with(values []string) any {
	k := f.key(values)
	f.mu.RLock()
	m, ok := f.series[k]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[k]; ok {
		return m
	}
	switch f.kind {
	case KindCounter:
		m = new(Counter)
	case KindGauge:
		m = new(Gauge)
	default:
		m = new(Histogram)
	}
	f.series[k] = m
	return m
}

// Registry is a concurrent collection of metric families. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*Family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*Family)}
}

// family registers (or re-fetches) a family; registering the same name
// with a different kind or label schema is a programming error and panics.
func (r *Registry) family(name, help string, kind Kind, labels []string) *Family {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.fams[name]; !ok {
			f = &Family{name: name, help: help, kind: kind,
				labels: append([]string(nil), labels...),
				series: make(map[string]any)}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic("telemetry: conflicting registration of " + name)
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic("telemetry: conflicting labels for " + name)
		}
	}
	return f
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a counter family with the given label
// keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels)}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labels)}
}

// Histogram registers (or returns) an unlabelled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramVec(name, help).With()
}

// HistogramVec registers (or returns) a histogram family with the given
// label keys.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, labels)}
}

// CounterVec resolves label values to Counter series.
type CounterVec struct{ f *Family }

// With returns the counter for the given label values, creating it lazily.
// Hot paths should resolve once and retain the *Counter.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).(*Counter) }

// GaugeVec resolves label values to Gauge series.
type GaugeVec struct{ f *Family }

// With returns the gauge for the given label values, creating it lazily.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).(*Gauge) }

// HistogramVec resolves label values to Histogram series.
type HistogramVec struct{ f *Family }

// With returns the histogram for the given label values, creating it
// lazily.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).(*Histogram) }

// Counter is a monotonically increasing integer count. All methods are
// safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//gf:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//gf:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set stores an absolute value. It exists for scrape-time mirroring of
// counters maintained elsewhere (cache Stats structs); the caller is
// responsible for monotonicity.
//
//gf:hotpath
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that may go up and down. All methods are safe
// for concurrent use and allocation-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//gf:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a concurrent log2-bucketed histogram sharing
// internal/stats.Histogram's bucket layout (bucket i covers
// [2^i, 2^(i+1)); values below 1 land in bucket 0). Observations are two
// atomic adds plus a CAS for the running sum.
type Histogram struct {
	buckets [stats.NumBuckets]atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one observation.
//
//gf:hotpath
func (h *Histogram) Observe(v float64) {
	h.buckets[stats.BucketIndex(v)].Add(1)
	h.addSum(v)
}

//gf:hotpath
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveHistogram folds an accumulated stats.Histogram into h, so batch
// results (simulator runs, benchmarks) export through the same registry.
func (h *Histogram) ObserveHistogram(src *stats.Histogram) {
	b := src.Buckets()
	for i, c := range b {
		if c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.addSum(src.Sum())
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Buckets [stats.NumBuckets]uint64
}

// Snapshot copies the current buckets and sum. Buckets are read
// individually, so a snapshot taken under concurrent writes may be off by
// in-flight observations; Count always equals the sum of Buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// --- Exposition -------------------------------------------------------

// snapshotFamilies returns the families sorted by name with their series
// keys sorted, for deterministic output.
func (r *Registry) snapshotFamilies() []*Family {
	r.mu.RLock()
	fams := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *Family) sortedSeries() ([]string, []any) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]any, len(keys))
	for i, k := range keys {
		ms[i] = f.series[k]
	}
	return keys, ms
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels formats {k="v",...}; extra appends pre-rendered pairs (the
// histogram le label).
func renderLabels(keys []string, seriesKey string, extra string) string {
	var values []string
	if seriesKey != "" || len(keys) > 0 {
		values = strings.Split(seriesKey, seriesSep)
	}
	var b strings.Builder
	for i, k := range keys {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String() + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		keys, ms := f.sortedSeries()
		for i, k := range keys {
			switch m := ms[i].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(f.labels, k, ""), m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, k, ""), formatValue(m.Value()))
			case *Histogram:
				s := m.Snapshot()
				var cum uint64
				for bi, c := range s.Buckets {
					if c == 0 {
						continue
					}
					cum += c
					_, hi := stats.BucketBounds(bi)
					if math.IsInf(hi, 1) {
						continue // the top bucket is the +Inf line below
					}
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						renderLabels(f.labels, k, fmt.Sprintf("le=%q", formatValue(hi))), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, k, `le="+Inf"`), s.Count)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(f.labels, k, ""), formatValue(s.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(f.labels, k, ""), s.Count)
			}
		}
	}
	return nil
}
