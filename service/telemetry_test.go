package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gigaflow"
	"gigaflow/internal/telemetry"
)

func TestConfigValidation(t *testing.T) {
	p := buildPipeline()
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"zero value ok", Config{}, ""},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative maxidle", Config{MaxIdle: -time.Second}, "MaxIdle"},
		{"negative microflow", Config{MicroflowCapacity: -1}, "MicroflowCapacity"},
		{"gigaflow cache on megaflow backend",
			Config{MegaflowCapacity: 100, Cache: gigaflow.CacheConfig{NumTables: 4}},
			"MegaflowCapacity"},
		{"negative gigaflow shape",
			Config{Cache: gigaflow.CacheConfig{NumTables: -1}}, "cache shape"},
		// Every miss would fail to partition, so nothing would ever be cached.
		{"unknown scheme", Config{Cache: gigaflow.CacheConfig{Scheme: 99}}, "Cache.Scheme"},
		{"negative megaflow cap", Config{MegaflowCapacity: -1}, "MegaflowCapacity"},
		{"megaflow backend ok", Config{MegaflowCapacity: 1024}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(p, c.cfg)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				_ = s
				return
			}
			if err == nil {
				t.Fatalf("config %+v accepted, want error containing %q", c.cfg, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestMegaflowBackend(t *testing.T) {
	s, ctx := start(t, buildPipeline(), Config{Workers: 2, MegaflowCapacity: 1024}), context.Background()
	frame := frameOf(t, key(1, 80), 0)
	if _, err := s.SubmitFrame(ctx, 0, frame); err != nil {
		t.Fatal(err)
	}
	r, err := s.SubmitFrame(ctx, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("second identical packet should hit the megaflow cache")
	}
}

// startTelemetryService starts a service of cfg and serves its
// introspection endpoints over HTTP until the test ends; it returns the
// server's base URL.
func startTelemetryService(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	s := start(t, buildPipeline(), cfg)
	srv := httptest.NewServer(s.TelemetryHandler())
	t.Cleanup(srv.Close)
	return s, srv.URL
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers:           2,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
		MicroflowCapacity: 64,
	})
	submitN(t, s, 20, 4)

	out := httpGet(t, base+"/metrics")
	wants := []string{
		"# TYPE gigaflow_packets_total counter",
		`gigaflow_packets_total{worker="0"}`,
		`gigaflow_packets_total{worker="1"}`,
		"gigaflow_cache_hits_total",
		"gigaflow_cache_misses_total",
		"gigaflow_microflow_hits_total",
		`gigaflow_table_hits_total{worker="0",table="0"}`,
		`gigaflow_table_occupancy{worker="0",table="0"}`,
		"gigaflow_queue_depth",
		"gigaflow_queue_capacity",
		"gigaflow_workers 2",
		"gigaflow_uptime_seconds",
		"gigaflow_submit_latency_ns_count",
		"gigaflow_microflow_entries",
		`gigaflow_microflow_bypassed_total{worker="0"} 0`,
		`gigaflow_microflow_bypassing{worker="0"} 0`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}

	// The 20 submits must be fully accounted for across the two workers.
	var total uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "gigaflow_packets_total{") {
			var v uint64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err == nil {
				total += v
			}
		}
	}
	if total != 20 {
		t.Errorf("gigaflow_packets_total sums to %d, want 20", total)
	}

	rec := httptest.NewRecorder()
	s.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type %q", ct)
	}
}

func TestCacheEndpoint(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers: 2,
		Cache:   gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
	})
	submitN(t, s, 10, 10)

	out := httpGet(t, base+"/cache")
	var doc struct {
		Workers []struct {
			Worker   string `json:"worker"`
			Backend  string `json:"backend"`
			QueueCap int    `json:"queue_capacity"`
			Stats    struct {
				Packets uint64 `json:"packets"`
			} `json:"stats"`
			Gigaflow *struct {
				Len    int `json:"len"`
				Tables []struct {
					Index    int `json:"index"`
					Capacity int `json:"capacity"`
				} `json:"tables"`
			} `json:"gigaflow"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("cache JSON: %v\n%s", err, out)
	}
	if len(doc.Workers) != 2 {
		t.Fatalf("workers=%d", len(doc.Workers))
	}
	var packets uint64
	for _, w := range doc.Workers {
		packets += w.Stats.Packets
		if w.Backend != "gigaflow" {
			t.Errorf("worker %s backend=%q", w.Worker, w.Backend)
		}
		if w.Gigaflow == nil {
			t.Fatalf("worker %s missing gigaflow snapshot", w.Worker)
		}
		if len(w.Gigaflow.Tables) != 3 {
			t.Errorf("worker %s has %d tables, want 3", w.Worker, len(w.Gigaflow.Tables))
		}
		if w.QueueCap != 1024 {
			t.Errorf("worker %s queue cap = %d", w.Worker, w.QueueCap)
		}
	}
	if packets != 10 {
		t.Errorf("total packets = %d, want 10", packets)
	}
}

func TestDebugEndpointsServed(t *testing.T) {
	_, base := startTelemetryService(t, Config{})
	if out := httpGet(t, base+"/debug/vars"); !strings.Contains(out, "memstats") {
		t.Error("/debug/vars missing expvar memstats")
	}
	if out := httpGet(t, base+"/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}
	if out := httpGet(t, base+"/"); !strings.Contains(out, "/metrics") {
		t.Error("index page missing /metrics link")
	}
}

// TestJSONEndpoints is the shared handler's contract, one row per endpoint
// it serves: 200 with an indented JSON document of that endpoint's shape —
// and, where the endpoint lists records, a ?n= that is not a number is a
// 400, not "n = 0, the whole ring".
func TestJSONEndpoints(t *testing.T) {
	s, _ := startService(t, 2)
	submitN(t, s, 10, 4)
	h := s.TelemetryHandler()
	for _, tc := range []struct {
		path   string
		status int
		field  string // a top-level field of the endpoint's document
	}{
		{"/cache", http.StatusOK, "workers"},
		{"/latency", http.StatusOK, "total"},
		{"/debug/flight", http.StatusOK, "workers"},
		{"/debug/flight?n=abc", http.StatusBadRequest, ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("GET %s: %d, want %d", tc.path, rec.Code, tc.status)
			continue
		}
		if tc.status != http.StatusOK {
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", tc.path, ct)
		}
		body := rec.Body.String()
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Errorf("GET %s: not a JSON object: %v\n%s", tc.path, err, body)
		} else if _, ok := doc[tc.field]; !ok || !strings.HasPrefix(body, "{\n  \"") {
			t.Errorf("GET %s: want an indented document with a %q field:\n%s", tc.path, tc.field, body)
		}
	}
}

func TestLatencyEndpoint(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers:           2,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
		MicroflowCapacity: 64,
	})
	submitN(t, s, 20, 4)

	out := httpGet(t, base+"/latency")
	var doc struct {
		Workers []struct {
			Worker string `json:"worker"`
			Tiers  map[string]struct {
				Count uint64  `json:"count"`
				P50   float64 `json:"p50_ns"`
				P999  float64 `json:"p999_ns"`
				MaxNs int64   `json:"max_ns"`
			} `json:"tiers"`
		} `json:"workers"`
		Total map[string]struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50_ns"`
		} `json:"total"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("latency JSON: %v\n%s", err, out)
	}
	if len(doc.Workers) != 2 {
		t.Fatalf("got %d workers, want 2", len(doc.Workers))
	}
	for _, tier := range []string{"microflow", "gigaflow", "megaflow", "slowpath"} {
		if _, ok := doc.Total[tier]; !ok {
			t.Errorf("total ladder missing tier %q", tier)
		}
	}
	// Every submitted packet is attributed to exactly one tier.
	var total uint64
	for _, snap := range doc.Total {
		total += snap.Count
	}
	if total != 20 {
		t.Errorf("tier counts sum to %d, want 20", total)
	}
	if doc.Total["slowpath"].Count == 0 || doc.Total["slowpath"].P50 <= 0 {
		t.Errorf("slowpath ladder empty: %+v (first-seen flows must miss)", doc.Total["slowpath"])
	}
}

func TestFlightEndpoint(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers: 1,
		Cache:   gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
	})
	submitN(t, s, 10, 2)
	st, err := s.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	out := httpGet(t, base+"/debug/flight?n=6")
	var doc struct {
		Workers []struct {
			Worker   string `json:"worker"`
			Seq      uint64 `json:"seq"`
			RingSize int    `json:"ring_size"`
			Batches  uint32 `json:"batches"`
			Records  []struct {
				TS      int64  `json:"ts"`
				KeyHash uint64 `json:"key_hash"`
				LatNs   int32  `json:"lat_ns"`
				Tier    string `json:"tier"`
				Flags   uint8  `json:"flags"`
			} `json:"records"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("flight JSON: %v\n%s", err, out)
	}
	if len(doc.Workers) != 1 {
		t.Fatalf("workers=%d, want 1", len(doc.Workers))
	}
	// A hit leaves no record: the ring holds one record per miss.
	w := doc.Workers[0]
	if w.Seq != st.CacheMisses || st.CacheMisses == 0 || w.RingSize != telemetry.DefaultFlightRecords || w.Batches != 10 {
		t.Errorf("seq=%d ring=%d batches=%d, want %d misses/%d/10", w.Seq, w.RingSize, w.Batches, st.CacheMisses, telemetry.DefaultFlightRecords)
	}
	if len(w.Records) != int(min(6, st.CacheMisses)) {
		t.Fatalf("got %d records, want %d (n=6)", len(w.Records), min(6, st.CacheMisses))
	}
	for i, rec := range w.Records {
		if rec.Tier != "slowpath" || rec.Flags&telemetry.FlightMiss == 0 {
			t.Errorf("records[%d] = %+v, want a slow-path miss", i, rec)
		}
		if rec.TS <= 0 || rec.KeyHash == 0 {
			t.Errorf("records[%d] = %+v, want wall TS and nonzero key hash", i, rec)
		}
		if i > 0 && w.Records[i-1].TS < rec.TS {
			t.Errorf("records not newest-first at %d", i)
		}
	}
}

// TestConcurrentScrape hammers every telemetry endpoint while batches are
// in flight; the race detector checks the scrape paths never touch
// worker-owned state off the worker goroutines.
func TestConcurrentScrape(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers:           2,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
		MicroflowCapacity: 256,
	})
	ctx := context.Background()
	var web, tls [32][]byte // port 80 and 443 frames by host
	for h := range web {
		web[h], tls[h] = frameOf(t, key(uint64(h), 80), 0), frameOf(t, key(uint64(h), 443), 0)
	}
	stop := make(chan struct{})
	producerDone := make(chan struct{})
	go func() { // producer: singles and batches until the scrapers finish
		defer close(producerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.SubmitFrame(ctx, 0, web[i%32]); err != nil {
				return
			}
			frames := make([]Frame, 8)
			for j := range frames {
				frames[j] = Frame{Data: tls[(i+j)%32]}
			}
			if err := s.SubmitFrameBatch(ctx, frames, NewBatch(8)); err != nil {
				return
			}
		}
	}()
	var scrapers sync.WaitGroup
	for _, e := range endpoints {
		ep := e.path
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 20; i++ {
				body := httpGet(t, base+ep)
				if ep == "/metrics" || ep == "/debug/pprof/" {
					continue // not JSON
				}
				var v interface{}
				if err := json.Unmarshal([]byte(body), &v); err != nil {
					t.Errorf("%s not JSON while processing: %v", ep, err)
					return
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	<-producerDone
}
