package service

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
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
// mirroring worker-owned cache state are refreshed on every /metrics,
// /cache, or Collect call; registry reads are always safe.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Collect refreshes the registry from every shard's cache state, under
// each shard's owner lock (cache internals are single-threaded). The
// HTTP handlers call this before rendering; expose it for embedders that
// scrape the registry directly.
func (s *Service) Collect(ctx context.Context) error {
	err := s.eachShard(ctx, func(_ int, w *worker) {
		w.vs.CollectMetrics(s.reg, w.label)
		w.collectUpcallMetrics(s.reg)
	})
	if err != nil {
		return err
	}
	s.collectServiceMetrics()
	return nil
}

// collectServiceMetrics refreshes service-owned gauges readable from any
// goroutine: queue state, drop counters, tracer and uptime stats.
func (s *Service) collectServiceMetrics() {
	depth := s.reg.GaugeVec("gigaflow_queue_depth",
		"Packets waiting in the worker's input queue.", "worker")
	capacity := s.reg.GaugeVec("gigaflow_queue_capacity",
		"Worker input queue length limit.", "worker")
	drops := s.reg.CounterVec("gigaflow_queue_full_drops_total",
		"Nonblocking submissions dropped because the worker queue was full.", "worker")
	skips := s.reg.CounterVec("gigaflow_expiry_skips_total",
		"Idle-expiry sweeps skipped because the worker queue was full.", "worker")
	for _, w := range s.workers {
		depth.With(w.label).Set(float64(len(w.in)))
		capacity.With(w.label).Set(float64(cap(w.in)))
		drops.With(w.label).Set(w.drops.Load())
		skips.With(w.label).Set(w.skips.Load())
	}
	if s.upq != nil {
		s.reg.Gauge("gigaflow_upcall_queue_depth",
			"Misses waiting in the shared upcall queue.").Set(float64(s.upq.Depth()))
		s.reg.Gauge("gigaflow_upcall_queue_capacity",
			"Upcall queue length limit.").Set(float64(s.upq.Cap()))
		s.reg.Counter("gigaflow_upcall_enqueued_total",
			"Misses accepted onto the upcall queue.").Set(s.upq.Enqueued())
		s.reg.Counter("gigaflow_upcall_queue_overflows_total",
			"Misses refused by a full upcall queue.").Set(s.upq.Overflows())
		s.reg.Counter("gigaflow_upcall_drained_total",
			"Misses drained by the upcall engine.").Set(s.eng.Drained())
		s.reg.Counter("gigaflow_upcall_batches_total",
			"Engine drain batches executed.").Set(s.eng.Batches())
	}
	s.reg.Gauge("gigaflow_workers", "Forwarding workers.").Set(float64(len(s.workers)))
	s.reg.Counter("gigaflow_traces_sampled_total",
		"Traversal traces recorded by the sampler.").Set(s.tracer.Sampled())
	if t := s.started.Load(); t > 0 {
		s.reg.Gauge("gigaflow_uptime_seconds", "Seconds since Start.").
			Set(time.Since(time.Unix(0, t)).Seconds())
	}
}

// workerTelemetry is one worker's slice of the /cache introspection
// document.
type workerTelemetry struct {
	Worker     string `json:"worker"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_capacity"`
	Drops      uint64 `json:"queue_full_drops"`
	gigaflow.VSwitchTelemetry
}

// cacheTelemetry is the /cache document: every shard's cache hierarchy,
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
		Backend string            `json:"backend"`
		Workers []workerTelemetry `json:"workers"`
	}{s.cfg.Backend.String(), out}, err
}

// workerLatency is one worker's slice of the /latency document: the
// percentile ladder for every resolution tier.
type workerLatency struct {
	Worker string                               `json:"worker"`
	Tiers  map[string]telemetry.LatencySnapshot `json:"tiers"`
}

// latencyDoc is the /latency response: per-worker and aggregate per-tier
// latency ladders. Enabled is false (and the rest empty) when the
// service was built with Config.Latency.Disable.
type latencyDoc struct {
	Enabled bool                                 `json:"enabled"`
	Workers []workerLatency                      `json:"workers,omitempty"`
	Total   map[string]telemetry.LatencySnapshot `json:"total,omitempty"`
}

// latencyTelemetry snapshots every shard's latency histograms under its
// owner lock and merges them into an aggregate ladder.
func (s *Service) latencyTelemetry(ctx context.Context, _ int) (any, error) {
	if s.cfg.Latency.Disable {
		return latencyDoc{}, nil
	}
	hists := make([][telemetry.NumTiers]telemetry.LatencyHistogram, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
			hists[i][t] = *w.rec.Histogram(t)
		}
	})
	if err != nil {
		return nil, err
	}
	doc := latencyDoc{Enabled: true}
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

// workerFlight is one worker's slice of the /debug/flight document.
type workerFlight struct {
	Worker   string                    `json:"worker"`
	Seq      uint64                    `json:"seq"`
	RingSize int                       `json:"ring_size"`
	Batches  uint32                    `json:"batches"`
	SpikeNs  int64                     `json:"spike_ns"`
	Spikes   uint64                    `json:"spikes"`
	Records  []telemetry.FlightRecord  `json:"records"` // newest first
	Captures []telemetry.FlightCapture `json:"captures,omitempty"`
}

// flightDoc is the /debug/flight response. Enabled is false (and Workers
// empty) when the service was built with Config.Latency.Disable.
type flightDoc struct {
	Enabled bool           `json:"enabled"`
	Workers []workerFlight `json:"workers,omitempty"`
}

// flightTelemetry dumps up to n recent flight records per shard (n <= 0
// means the whole ring), plus any retained spike captures, snapshotted
// under each shard's owner lock.
func (s *Service) flightTelemetry(ctx context.Context, n int) (any, error) {
	if s.cfg.Latency.Disable {
		return flightDoc{}, nil
	}
	out := make([]workerFlight, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		out[i] = workerFlight{
			Worker:   w.label,
			Seq:      w.rec.Seq(),
			RingSize: w.rec.RingSize(),
			Batches:  w.rec.Batches(),
			SpikeNs:  w.rec.SpikeThreshold(),
			Spikes:   w.rec.Spikes(),
			Records:  w.rec.Recent(n),
			Captures: w.rec.Captures(),
		}
	})
	return flightDoc{Enabled: true, Workers: out}, err
}

// TelemetryHandler returns the introspection mux:
//
//	/metrics      Prometheus text (?format=json for JSON)
//	/traces       recent sampled traversal traces (?n= caps the count)
//	/cache        per-worker, per-table cache occupancy and counters
//	/shards       per-shard packet/occupancy/conntrack-churn counters
//	/latency      per-worker and aggregate per-tier latency ladders
//	/debug/flight per-worker flight-recorder dump (?n= caps records)
//	/debug/pprof  net/http/pprof profiles
//	/debug/vars   expvar
func (s *Service) TelemetryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>gigaflow telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> (Prometheus; <a href="/metrics?format=json">json</a>)</li>
<li><a href="/traces">/traces</a></li>
<li><a href="/cache">/cache</a></li>
<li><a href="/shards">/shards</a></li>
<li><a href="/latency">/latency</a></li>
<li><a href="/debug/flight">/debug/flight</a></li>
<li><a href="/debug/pprof/">/debug/pprof/</a></li>
<li><a href="/debug/vars">/debug/vars</a></li>
</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), collectTimeout)
		defer cancel()
		// A failed collect (wedged queue, shutdown race) still serves the
		// registry's last values — stale beats unavailable for a scrape.
		_ = s.Collect(ctx)
		s.reg.Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/traces", serveJSON(0, func(_ context.Context, n int) (any, error) {
		return struct {
			SampleEvery int               `json:"sample_every"`
			Sampled     uint64            `json:"sampled_total"`
			Traces      []telemetry.Trace `json:"traces"`
		}{s.tracer.SampleEvery(), s.tracer.Sampled(), s.tracer.Recent(n)}, nil
	}))
	mux.HandleFunc("/cache", serveJSON(0, s.cacheTelemetry))
	mux.HandleFunc("/shards", serveJSON(0, func(ctx context.Context, _ int) (any, error) {
		shards, err := s.ShardStats(ctx)
		return struct {
			Workers   int         `json:"workers"`
			Conntrack bool        `json:"conntrack"`
			Shards    []ShardStat `json:"shards"`
		}{len(s.workers), s.cfg.Conntrack.Enable, shards}, err
	}))
	mux.HandleFunc("/latency", serveJSON(0, s.latencyTelemetry))
	mux.HandleFunc("/debug/flight", serveJSON(256, s.flightTelemetry))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
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

// telemetryServer owns the HTTP listener started from Config.TelemetryAddr.
type telemetryServer struct {
	ln  net.Listener
	srv *http.Server
	// served is closed when startTelemetry's goroutine exits; nil under
	// ServeTelemetry, where the goroutine is the caller's.
	served chan struct{}
}

func (t *telemetryServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx)
	if t.served != nil {
		<-t.served
	}
}

// startTelemetry begins serving the introspection endpoints on addr;
// called from Start when Config.TelemetryAddr is set. The server's
// goroutine is joined by Close and is not one of those term waits on:
// cancelling Start's ctx stops the workers, and control ops must then see
// term close whether or not telemetry is still being served.
func (s *Service) startTelemetry(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: telemetry listener: %w", err)
	}
	srv := &http.Server{Handler: s.TelemetryHandler()}
	served := make(chan struct{})
	s.tsrv = &telemetryServer{ln: ln, srv: srv, served: served}
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // ErrServerClosed on shutdown
	}()
	return nil
}

// TelemetryAddr reports the bound introspection address (useful with a
// ":0" Config.TelemetryAddr), or "" when telemetry is not being served.
func (s *Service) TelemetryAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tsrv == nil {
		return ""
	}
	return s.tsrv.ln.Addr().String()
}

// ServeTelemetry serves the introspection endpoints on a caller-provided
// listener, blocking until the listener fails or Close shuts the server
// down. It is the manual alternative to Config.TelemetryAddr for embedders
// that manage their own listeners.
func (s *Service) ServeTelemetry(ln net.Listener) error {
	srv := &http.Server{Handler: s.TelemetryHandler()}
	s.mu.Lock()
	if s.tsrv != nil {
		s.mu.Unlock()
		return fmt.Errorf("service: telemetry already serving on %s", s.tsrv.ln.Addr())
	}
	s.tsrv = &telemetryServer{ln: ln, srv: srv}
	s.mu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}
