package service

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path"
	"strconv"
	"time"

	"gigaflow"
	"gigaflow/internal/telemetry"
)

// collectTimeout bounds how long a scrape waits for worker goroutines to
// snapshot their caches; a wedged worker yields a stale (but served)
// scrape rather than a hung one.
const collectTimeout = 2 * time.Second

// Registry returns the service's metrics registry. Counters and gauges
// mirroring worker-owned cache state are refreshed on every Collect, which
// each metrics scrape makes; registry reads are always safe.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Collect refreshes the registry from every shard's cache state, under
// each shard's owner lock (cache internals are single-threaded). The
// HTTP handlers call this before rendering; expose it for embedders that
// scrape the registry directly.
func (s *Service) Collect(ctx context.Context) error {
	err := s.eachShard(ctx, func(_ int, w *worker) { w.vs.CollectMetrics(s.reg, w.label) })
	if err != nil {
		return err
	}
	s.collectServiceMetrics()
	return nil
}

// collectServiceMetrics refreshes service-owned gauges readable from any
// goroutine: queue state, drop counters and uptime.
func (s *Service) collectServiceMetrics() {
	depth := s.reg.GaugeVec("gigaflow_queue_depth",
		"Packets waiting in the worker's input queue.", "worker")
	capacity := s.reg.GaugeVec("gigaflow_queue_capacity",
		"Worker input queue length limit.", "worker")
	drops := s.reg.CounterVec("gigaflow_queue_full_drops_total",
		"Nonblocking submissions dropped because the worker queue was full.", "worker")
	for _, w := range s.workers {
		depth.With(w.label).Set(float64(len(w.in)))
		capacity.With(w.label).Set(float64(cap(w.in)))
		drops.With(w.label).Set(w.drops.Load())
	}
	s.reg.Gauge("gigaflow_workers", "Forwarding workers.").Set(float64(len(s.workers)))
	if t := s.started.Load(); t > 0 {
		s.reg.Gauge("gigaflow_uptime_seconds", "Seconds since Start.").
			Set(time.Since(time.Unix(0, t)).Seconds())
	}
}

// workerTelemetry is one worker's slice of the cache introspection
// document.
type workerTelemetry struct {
	Worker     string `json:"worker"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_capacity"`
	Drops      uint64 `json:"queue_full_drops"`
	gigaflow.VSwitchTelemetry
}

// cacheTelemetry is the cache document: every shard's cache hierarchy,
// snapshotted under its owner lock (it lists no records, so no cap).
func (s *Service) cacheTelemetry(ctx context.Context, _ int) (any, error) {
	out := make([]workerTelemetry, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		out[i] = workerTelemetry{
			Worker:           w.label,
			QueueDepth:       len(w.in),
			QueueCap:         cap(w.in),
			Drops:            w.drops.Load(),
			VSwitchTelemetry: w.vs.Telemetry(),
		}
	})
	return struct {
		Workers []workerTelemetry `json:"workers"`
	}{out}, err
}

// workerLatency is one worker's slice of the latency document: the
// percentile ladder for every resolution tier.
type workerLatency struct {
	Worker string                               `json:"worker"`
	Tiers  map[string]telemetry.LatencySnapshot `json:"tiers"`
}

// latencyDoc is the latency document: per-worker and aggregate per-tier
// latency ladders.
type latencyDoc struct {
	Workers []workerLatency                      `json:"workers"`
	Total   map[string]telemetry.LatencySnapshot `json:"total"`
}

// latencyTelemetry snapshots every shard's latency histograms under its
// owner lock and merges them into an aggregate ladder.
func (s *Service) latencyTelemetry(ctx context.Context, _ int) (any, error) {
	hists := make([][telemetry.NumTiers]telemetry.LatencyHistogram, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
			hists[i][t] = *w.rec.Histogram(t)
		}
	})
	if err != nil {
		return nil, err
	}
	var doc latencyDoc
	var total [telemetry.NumTiers]telemetry.LatencyHistogram
	for i, w := range s.workers {
		wl := workerLatency{Worker: w.label, Tiers: make(map[string]telemetry.LatencySnapshot, telemetry.NumTiers)}
		for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
			wl.Tiers[t.String()] = hists[i][t].Snapshot()
			total[t].Merge(&hists[i][t])
		}
		doc.Workers = append(doc.Workers, wl)
	}
	doc.Total = make(map[string]telemetry.LatencySnapshot, telemetry.NumTiers)
	for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
		doc.Total[t.String()] = total[t].Snapshot()
	}
	return doc, nil
}

// workerFlight is one worker's slice of the flight-recorder document.
type workerFlight struct {
	Worker   string                   `json:"worker"`
	Seq      uint64                   `json:"seq"`
	RingSize int                      `json:"ring_size"`
	Batches  uint32                   `json:"batches"`
	Records  []telemetry.FlightRecord `json:"records"` // newest first
}

// flightDoc is the flight-recorder document.
type flightDoc struct {
	Workers []workerFlight `json:"workers"`
}

// flightTelemetry dumps up to n of the newest flight records — misses —
// per shard (n <= 0 means the whole ring), snapshotted under each shard's
// owner lock.
func (s *Service) flightTelemetry(ctx context.Context, n int) (any, error) {
	out := make([]workerFlight, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		out[i] = workerFlight{
			Worker:   w.label,
			Seq:      w.rec.Seq(),
			RingSize: w.rec.RingSize(),
			Batches:  w.rec.Batches(),
			Records:  w.rec.Recent(n),
		}
	})
	return flightDoc{Workers: out}, err
}

// endpoints is the introspection surface, one row per path:
// TelemetryHandler mounts each row and links it from its index page, and
// README's endpoint table is generated from it.
var endpoints = []struct {
	path, about string
	handler     func(s *Service) http.HandlerFunc
}{
	{"/metrics", "Prometheus text exposition (0.0.4)", func(s *Service) http.HandlerFunc { return s.serveMetrics }},
	{"/cache", "per-worker, per-LTM-table cache snapshot", func(s *Service) http.HandlerFunc { return serveJSON(0, s.cacheTelemetry) }},
	{"/latency", "per-worker and aggregate per-tier latency ladders (p50/p90/p99/p999/max)", func(s *Service) http.HandlerFunc { return serveJSON(0, s.latencyTelemetry) }},
	{"/debug/flight", "flight-recorder dump: the newest misses, one record each (?n= caps, default 256)", func(s *Service) http.HandlerFunc { return serveJSON(256, s.flightTelemetry) }},
	{"/debug/pprof/", "net/http/pprof profiles", func(*Service) http.HandlerFunc { return servePprof }},
	{"/debug/vars", "expvar", func(*Service) http.HandlerFunc { return expvar.Handler().ServeHTTP }},
}

// TelemetryHandler returns the introspection mux: every row of endpoints,
// and an index page linking them at /. The service owns no listener: the
// caller serves the mux on one of its own.
func (s *Service) TelemetryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><body><h1>gigaflow telemetry</h1><ul>\n")
		for _, e := range endpoints {
			fmt.Fprintf(w, "<li><a href=%q>%s</a>: %s</li>\n", e.path, e.path, e.about)
		}
		fmt.Fprint(w, "</ul></body></html>")
	})
	for _, e := range endpoints {
		mux.HandleFunc(e.path, e.handler(s))
	}
	return mux
}

// serveMetrics renders the registry after a collect. A failed collect
// (wedged queue, shutdown race) still serves the registry's last values:
// stale beats unavailable for a scrape.
func (s *Service) serveMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), collectTimeout)
	defer cancel()
	_ = s.Collect(ctx)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// pprofNamed are net/http/pprof's handlers that serve no runtime profile;
// its index serves every other name.
var pprofNamed = map[string]http.HandlerFunc{"cmdline": pprof.Cmdline, "profile": pprof.Profile, "symbol": pprof.Symbol, "trace": pprof.Trace}

func servePprof(w http.ResponseWriter, r *http.Request) {
	if h := pprofNamed[path.Base(r.URL.Path)]; h != nil {
		h(w, r)
		return
	}
	pprof.Index(w, r)
}

// serveJSON makes the handler of one JSON introspection endpoint: it
// reads ?n= (the record cap of the endpoints that list records: def when
// absent, 400 when not a number), takes the snapshot under collectTimeout,
// and writes it indented — or answers 503 when the shards cannot be
// reached (wedged queue, service not running).
func serveJSON(def int, snapshot func(ctx context.Context, n int) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := def
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if n, err = strconv.Atoi(q); err != nil {
				http.Error(w, fmt.Sprintf("n=%q: not a number", q), http.StatusBadRequest)
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), collectTimeout)
		defer cancel()
		doc, err := snapshot(ctx, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	}
}
