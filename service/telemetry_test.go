package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gigaflow"
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
		{"negative queue", Config{QueueDepth: -5}, "QueueDepth"},
		{"negative maxidle", Config{Expiry: ExpiryConfig{MaxIdle: -time.Second}}, "MaxIdle"},
		{"expiry without maxidle", Config{Expiry: ExpiryConfig{Every: time.Second}}, "MaxIdle is 0"},
		{"negative microflow", Config{MicroflowCapacity: -1}, "MicroflowCapacity"},
		{"negative trace sample", Config{TraceSample: -1}, "TraceSample"},
		{"negative trace buffer", Config{TraceBuffer: -1}, "TraceBuffer"},
		{"megaflow cap on gigaflow backend", Config{MegaflowCapacity: 100}, "BackendGigaflow"},
		{"gigaflow cache on megaflow backend",
			Config{Backend: BackendMegaflow, Cache: gigaflow.CacheConfig{NumTables: 4}},
			"BackendMegaflow"},
		{"negative gigaflow shape",
			Config{Cache: gigaflow.CacheConfig{NumTables: -1}}, "cache shape"},
		{"negative megaflow cap",
			Config{Backend: BackendMegaflow, MegaflowCapacity: -1}, "MegaflowCapacity"},
		{"unknown backend", Config{Backend: Backend(99)}, "unknown Backend"},
		{"megaflow backend ok", Config{Backend: BackendMegaflow, MegaflowCapacity: 1024}, ""},
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
	s, ctx := start(t, buildPipeline(), Config{Workers: 2, Backend: BackendMegaflow, MegaflowCapacity: 1024}), context.Background()
	if _, err := s.Submit(ctx, key(1, 80)); err != nil {
		t.Fatal(err)
	}
	r, err := s.Submit(ctx, key(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("second identical packet should hit the megaflow cache")
	}
}

func startTelemetryService(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	cfg.TelemetryAddr = "127.0.0.1:0"
	s := start(t, buildPipeline(), cfg)
	addr := s.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty after Start")
	}
	return s, "http://" + addr
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
		"gigaflow_slowpath_traversals_total",
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

	// JSON exposition.
	jout := httpGet(t, base+"/metrics?format=json")
	var fams []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	if err := json.Unmarshal([]byte(jout), &fams); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	if !names["gigaflow_packets_total"] || !names["gigaflow_submit_latency_ns"] {
		t.Errorf("JSON families missing: %v", names)
	}
}

func TestTracesEndpoint(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers:     1,
		Cache:       gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
		TraceSample: 1, // trace every packet
		TraceBuffer: 16,
	})
	submitN(t, s, 5, 1)

	out := httpGet(t, base+"/traces?n=3")
	var doc struct {
		SampleEvery int `json:"sample_every"`
		Sampled     int `json:"sampled_total"`
		Traces      []struct {
			Key      string `json:"key"`
			CacheHit bool   `json:"cache_hit"`
			Stages   []struct {
				Name string `json:"name"`
				Hit  bool   `json:"hit"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("traces JSON: %v\n%s", err, out)
	}
	if doc.SampleEvery != 1 || doc.Sampled != 5 {
		t.Errorf("sample_every=%d sampled=%d, want 1 and 5", doc.SampleEvery, doc.Sampled)
	}
	if len(doc.Traces) != 3 {
		t.Fatalf("got %d traces, want 3 (n=3)", len(doc.Traces))
	}
	// Newest first: the last packets are cache hits with a gigaflow stage.
	newest := doc.Traces[0]
	if !newest.CacheHit || newest.Key == "" {
		t.Errorf("newest trace = %+v", newest)
	}
	found := false
	for _, st := range newest.Stages {
		if st.Name == "gigaflow" && st.Hit {
			found = true
		}
	}
	if !found {
		t.Errorf("no gigaflow hit stage in %+v", newest.Stages)
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
		Backend string `json:"backend"`
		Workers []struct {
			Worker   string `json:"worker"`
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
	if doc.Backend != "gigaflow" || len(doc.Workers) != 2 {
		t.Fatalf("backend=%q workers=%d", doc.Backend, len(doc.Workers))
	}
	var packets uint64
	for _, w := range doc.Workers {
		packets += w.Stats.Packets
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

func TestShardsEndpoint(t *testing.T) {
	s, base := startTelemetryService(t, Config{
		Workers: 2,
		Cache:   gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
	})
	submitN(t, s, 10, 10)

	out := httpGet(t, base+"/shards")
	var doc struct {
		Workers   int         `json:"workers"`
		Conntrack bool        `json:"conntrack"`
		Shards    []ShardStat `json:"shards"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("shards JSON: %v\n%s", err, out)
	}
	if doc.Workers != 2 || doc.Conntrack || len(doc.Shards) != 2 {
		t.Fatalf("workers=%d conntrack=%v shards=%d", doc.Workers, doc.Conntrack, len(doc.Shards))
	}
	var packets uint64
	for i, sh := range doc.Shards {
		if sh.Worker != i {
			t.Errorf("shard %d labeled worker %d", i, sh.Worker)
		}
		packets += sh.Packets
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
		{"/traces", http.StatusOK, "sampled_total"},
		{"/traces?n=abc", http.StatusBadRequest, ""},
		{"/cache", http.StatusOK, "backend"},
		{"/shards", http.StatusOK, "shards"},
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
		Enabled bool `json:"enabled"`
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
	if !doc.Enabled {
		t.Fatal("latency attribution reported disabled on a default config")
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
		Latency: LatencyConfig{FlightRecords: 64},
	})
	submitN(t, s, 10, 2)

	out := httpGet(t, base+"/debug/flight?n=6")
	var doc struct {
		Enabled bool `json:"enabled"`
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
	if !doc.Enabled || len(doc.Workers) != 1 {
		t.Fatalf("enabled=%v workers=%d, want true/1", doc.Enabled, len(doc.Workers))
	}
	w := doc.Workers[0]
	if w.Seq != 10 || w.RingSize != 64 || w.Batches != 10 {
		t.Errorf("seq=%d ring=%d batches=%d, want 10/64/10", w.Seq, w.RingSize, w.Batches)
	}
	if len(w.Records) != 6 {
		t.Fatalf("got %d records, want 6 (n=6)", len(w.Records))
	}
	valid := map[string]bool{"microflow": true, "gigaflow": true, "megaflow": true, "slowpath": true}
	for i, rec := range w.Records {
		if !valid[rec.Tier] {
			t.Errorf("records[%d].Tier = %q", i, rec.Tier)
		}
		if rec.TS <= 0 || rec.KeyHash == 0 {
			t.Errorf("records[%d] = %+v, want wall TS and nonzero key hash", i, rec)
		}
		if i > 0 && w.Records[i-1].TS < rec.TS {
			t.Errorf("records not newest-first at %d", i)
		}
	}
}

func TestLatencyDisabled(t *testing.T) {
	s, base := startTelemetryService(t, Config{Latency: LatencyConfig{Disable: true}})
	if _, err := s.Submit(context.Background(), key(1, 80)); err != nil {
		t.Fatal(err)
	}
	var lat struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/latency")), &lat); err != nil {
		t.Fatal(err)
	}
	if lat.Enabled {
		t.Error("/latency reports enabled under Latency.Disable")
	}
	var fl struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/flight")), &fl); err != nil {
		t.Fatal(err)
	}
	if fl.Enabled {
		t.Error("/debug/flight reports enabled under Latency.Disable")
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
		TraceSample:       8,
		Latency:           LatencyConfig{FlightRecords: 128},
	})
	ctx := context.Background()
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
			if _, err := s.Submit(ctx, key(uint64(i%32), 80)); err != nil {
				return
			}
			b := NewBatch(8)
			for j := 0; j < 8; j++ {
				b.Add(key(uint64((i+j)%32), 443))
			}
			if err := s.SubmitBatch(ctx, b); err != nil {
				return
			}
		}
	}()
	var scrapers sync.WaitGroup
	for _, ep := range []string{"/metrics", "/traces", "/cache", "/shards", "/latency", "/debug/flight?n=32"} {
		ep := ep
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 20; i++ {
				body := httpGet(t, base+ep)
				if strings.HasPrefix(ep, "/metrics") {
					continue
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

func TestServeTelemetryConflict(t *testing.T) {
	s, _ := startTelemetryService(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := s.ServeTelemetry(ln); err == nil {
		t.Error("ServeTelemetry must refuse a second server")
	}
}
