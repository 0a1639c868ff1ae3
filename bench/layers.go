package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gigaflow"
	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
	"gigaflow/service"
)

// tracedRounds is the number of timed rounds each section of the traced
// run measures; every section warms up first.
const tracedRounds = 5

// perLayer is the per-layer metric table, mirrored by BENCHMARK.json's
// per_layer list (a test holds the two equal). A metric that does not
// apply to a workload reads 0 there; README.md says which apply where and
// which end-to-end metric each should move.
var perLayer = []metricSpec{
	{Name: "service.submit_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "service.self_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "service.hop_us", Unit: "us", Better: "lower"},
	{Name: "service.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "service.queue_full", Unit: "count", Better: "lower"},
	{Name: "service.frame_errors", Unit: "count", Better: "lower"},
	{Name: "service.update_ms", Unit: "ms", Better: "lower"},
	{Name: "packet.rss_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "packet.decode_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "packet.natpatch_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "vswitch.batch_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "vswitch.mf_batch_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "vswitch.self_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "vswitch.closure", Unit: "ratio", Better: "higher"},
	{Name: "vswitch.allocs_per_pkt", Unit: "allocs/pkt", Better: "lower"},
	{Name: "microflow.lookup_ns", Unit: "ns/op", Better: "lower"},
	{Name: "microflow.insert_ns", Unit: "ns/op", Better: "lower"},
	{Name: "microflow.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "microflow.evictions", Unit: "count", Better: "lower"},
	{Name: "gigaflow.lookup_ns", Unit: "ns/op", Better: "lower"},
	{Name: "gigaflow.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gigaflow.tables_per_hit", Unit: "count", Better: "lower"},
	{Name: "gigaflow.insert_ns", Unit: "ns/op", Better: "lower"},
	{Name: "gigaflow.entries", Unit: "count", Better: "lower"},
	{Name: "gigaflow.entries_per_miss", Unit: "count", Better: "lower"},
	{Name: "gigaflow.evictions", Unit: "count", Better: "lower"},
	{Name: "gigaflow.revalidate_ms", Unit: "ms", Better: "lower"},
	{Name: "megaflow.lookup_ns", Unit: "ns/op", Better: "lower"},
	{Name: "megaflow.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "megaflow.entries", Unit: "count", Better: "lower"},
	{Name: "megaflow.masks", Unit: "count", Better: "lower"},
	{Name: "pipeline.traverse_ns", Unit: "ns/op", Better: "lower"},
	{Name: "pipeline.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.tables_per_traversal", Unit: "count", Better: "lower"},
	{Name: "tss.probes_per_lookup", Unit: "count", Better: "lower"},
	{Name: "conntrack.track_ns", Unit: "ns/op", Better: "lower"},
	{Name: "conntrack.created", Unit: "count", Better: "lower"},
	{Name: "conntrack.evicted", Unit: "count", Better: "lower"},
	{Name: "conntrack.live", Unit: "count", Better: "lower"},
	{Name: "conntrack.guard_fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "conntrack.invalidated", Unit: "count", Better: "lower"},
	{Name: "conntrack.bytes_per_conn", Unit: "B/conn", Better: "lower"},
	{Name: "upcall.park_complete_ns", Unit: "ns/op", Better: "lower"},
	{Name: "upcall.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "recorder.hit_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "recorder.slowpath_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.allocs_per_pkt", Unit: "allocs/pkt", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "gen.overhead_ns", Unit: "ns/pkt", Better: "lower"},
	{Name: "gen.speed", Unit: "ratio", Better: "higher"},
}

// layerMetrics collects the traced run's values; set refuses a name the
// table does not declare, so a typo cannot silently drop a metric.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, s := range perLayer {
		m[s.Name] = metric{0, s.Unit}
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	cur.Value = v
	m[name] = cur
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// section is one driver of the traced run. Every section has its own copy
// of the traffic source and its own datapath state, is warmed up once,
// and then takes its timed rounds in turn with the other sections, so all
// of them see the same stretch of the machine's background noise —
// service.self_ns and vswitch.closure subtract and divide across
// sections, and would otherwise mostly measure how the machine's speed
// wandered between them.
type section struct {
	name string
	d    driver
	run  *runner
	tr   *tracer
	// created reports the connections the driver's conntrack layer has
	// created (0 with conntrack off), for the source's end-of-run check.
	created func() uint64

	rounds  []roundStats
	mallocs uint64
	// Settled by finish:
	tot   kindTotals
	pkts  float64
	speed float64 // median machine speed over the section's rounds
}

// newSection clones the source, warms the driver up on it with tracing
// off, and readies a span recorder. ct is the driver's connection table,
// nil with conntrack off.
func (in *instance) newSection(name string, d driver, ct *conntrack.Table) (*section, error) {
	c := *in
	c.src = in.src.clone()
	s := &section{name: name, d: d, run: &runner{inst: &c, d: d}, created: func() uint64 {
		if ct == nil {
			return 0
		}
		return ct.Stats().Created
	}}
	if err := s.run.run(roundToBatch(c.warmPkts), nil); err != nil {
		return nil, fmt.Errorf("bench: %s warm-up: %w", name, err)
	}
	s.tr = newTracer(tracedRounds * c.w.sz.roundPkts / batchSize * 8)
	return s, nil
}

// round times one round with spans on.
func (s *section) round(meter *speedometer) error {
	var m0, m1 runtime.MemStats
	s.d.trace(s.tr)
	runtime.ReadMemStats(&m0)
	rs, err := s.run.timedRounds(1, meter)
	runtime.ReadMemStats(&m1)
	s.d.trace(nil)
	s.rounds = append(s.rounds, rs...)
	s.mallocs += m1.Mallocs - m0.Mallocs
	return err
}

// finish settles the section's totals and folds its packet counts and
// end-of-run invariants into out.
func (s *section) finish(out *outcome) {
	s.tot = s.tr.totals()
	s.pkts = float64(len(s.rounds) * s.run.inst.w.sz.roundPkts)
	s.speed = medianOf(s.rounds, func(r *roundStats) float64 { return r.speed })
	out.attempted += s.run.attempted
	out.failed += s.run.failed
	if note := s.run.inst.src.finish(s.created()); note != "" {
		out.notes = append(out.notes, s.name+": "+note)
	}
}

// Like the end-to-end timings, every per-layer time is scaled to the
// reference machine speed (see calibrate), by the section's own median
// speed. The span file keeps the raw times.

// perPkt is a span kind's total time per packet of the section.
func (s *section) perPkt(k spanKind) float64 {
	return ratio(float64(s.tot.total[k]), s.pkts) * s.speed
}

// perOp is a span kind's total time divided by an operation count.
func (s *section) perOp(k spanKind, ops uint64) float64 {
	return ratio(float64(s.tot.total[k]), float64(ops)) * s.speed
}

// medianMs is the median duration of a span kind, in milliseconds.
func (s *section) medianMs(k spanKind) float64 {
	var v []float64
	for i := range s.tr.spans {
		if sp := &s.tr.spans[i]; sp.kind == k {
			v = append(v, float64(sp.end-sp.start)/1e6)
		}
	}
	return median(v) * s.speed
}

// cacheDoc is the service's /cache introspection document, as far as the
// benchmark reads it.
type cacheDoc struct {
	Workers []struct {
		Drops uint64 `json:"queue_full_drops"`
		gigaflow.VSwitchTelemetry
	} `json:"workers"`
}

// latencyDoc is the service's /latency document.
type latencyDoc struct {
	Total map[string]telemetry.LatencySnapshot `json:"total"`
}

// introspect reads one of the service's introspection documents through
// its HTTP handler, in process: the program's own public counters, with
// no socket involved.
func introspect(svc *service.Service, path string, into any) error {
	rec := httptest.NewRecorder()
	svc.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		return fmt.Errorf("bench: GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		return fmt.Errorf("bench: GET %s: %w", path, err)
	}
	return nil
}

// runTraced is the traced run. It repeats the service run reading the
// program's public counters, replays the same sequence through the
// stage-isolating drivers, and writes every span to
// <outDir>/trace-<workload>.json.
func runTraced(ctx context.Context, w *workload, seed int64, env envRecord, outDir string) (*outcome, error) {
	out := &outcome{}
	m := newLayerMetrics()

	// The service itself, warmed up by setUp, and one section per replay
	// driver: a bare VSwitch on each backend, the shadow chain on each,
	// and — where the workload has misses to park and no conntrack (the
	// offload's parked slow path is stateless) — the park-mode protocol.
	b, err := setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	in := b.inst
	svc := &section{name: "service", d: b.drv, run: b.run,
		tr: newTracer(tracedRounds*w.sz.roundPkts/batchSize + 64)}
	sections := []*section{svc}
	add := func(name string, d driver, ct *conntrack.Table) (*section, error) {
		s, err := in.newSection(name, d, ct)
		sections = append(sections, s)
		return s, err
	}
	v, err := in.newVSwitch(false)
	if err != nil {
		return nil, err
	}
	vs, err := add("vswitch-gigaflow", &vsDriver{v: v, stages: true}, v.Conntrack())
	if err != nil {
		return nil, err
	}
	shd, err := in.newShadow(false)
	if err != nil {
		return nil, err
	}
	sh, err := add("shadow-gigaflow", shd, shd.ct)
	if err != nil {
		return nil, err
	}
	mv, err := in.newVSwitch(true)
	if err != nil {
		return nil, err
	}
	mvs, err := add("vswitch-megaflow", &vsDriver{v: mv}, mv.Conntrack())
	if err != nil {
		return nil, err
	}
	mshd, err := in.newShadow(true)
	if err != nil {
		return nil, err
	}
	msh, err := add("shadow-megaflow", mshd, mshd.ct)
	if err != nil {
		return nil, err
	}
	var park *section
	var pd *parkDriver
	if in.updateEvery > 0 {
		pv, err := in.newVSwitch(false)
		if err != nil {
			return nil, err
		}
		pd = &parkDriver{v: pv}
		if park, err = add("upcall-park", pd, nil); err != nil {
			return nil, err
		}
	}

	// Counter baselines, now that every section is warm.
	var c0, c1 cacheDoc
	if err := introspect(b.svc, "/cache", &c0); err != nil {
		return nil, err
	}
	before, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	n0, mn0, mf0 := shd.n, mshd.n, mv.Megaflow().Stats()
	var parked0, dedup0 uint64
	if pd != nil {
		parked0, dedup0 = pd.nParked, pd.nDedup
	}

	// The timed rounds, interleaved: one untraced service round (the
	// tracing-overhead baseline), then one traced round per section.
	meter := &speedometer{}
	var untraced []roundStats
	for r := 0; r < tracedRounds; r++ {
		rs, err := b.run.timedRounds(1, meter)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, rs...)
		for _, s := range sections {
			if err := s.round(meter); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", s.name, err)
			}
		}
	}

	after, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	if err := introspect(b.svc, "/cache", &c1); err != nil {
		return nil, err
	}
	var lat latencyDoc
	if err := introspect(b.svc, "/latency", &lat); err != nil {
		return nil, err
	}
	svcCreated, err := b.ctCreated()
	if err != nil {
		return nil, err
	}
	svc.created = func() uint64 { return svcCreated }
	for _, s := range sections {
		s.finish(out)
	}

	submitNs := svc.perPkt(spSubmit)
	m.set("service.submit_ns", submitNs)
	m.set("service.rtt_p99_us", medianOf(svc.rounds, func(r *roundStats) float64 { return r.p99Us * r.speed }))
	m.set("service.update_ms", svc.medianMs(spUpdate))
	m.set("trace.overhead_ratio", ratio(medianOf(svc.rounds, func(r *roundStats) float64 { return r.pktNs * r.speed }),
		medianOf(untraced, func(r *roundStats) float64 { return r.pktNs * r.speed })))
	m.set("gen.overhead_ns", medianOf(svc.rounds, func(r *roundStats) float64 { return (r.wallNs - r.pktNs) * r.speed }))
	m.set("gen.speed", svc.speed)

	// The program's own counters, over the service's ten timed rounds
	// (five untraced, five traced).
	s0, s1 := before.stats, after.stats
	dp := float64(s1.Packets - s0.Packets)
	m.set("microflow.hit_ratio", ratio(float64(s1.MicroflowHits-s0.MicroflowHits), dp))
	m.set("pipeline.miss_ratio", ratio(float64(s1.CacheMisses-s0.CacheMisses), dp))
	m.set("conntrack.guard_fail_ratio", ratio(float64(s1.CtGuardFails-s0.CtGuardFails), dp))
	m.set("conntrack.invalidated", float64(s1.CtInvalidated-s0.CtInvalidated))
	m.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	m.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	m.set("runtime.allocs_per_pkt", ratio(float64(svc.mallocs), svc.pkts))

	w0, w1 := c0.Workers[0], c1.Workers[0]
	m.set("service.queue_full", float64(w1.Drops))
	m.set("microflow.evictions", float64(w1.Microflow.EvictLRU-w0.Microflow.EvictLRU))
	g0, g1 := w0.Gigaflow, w1.Gigaflow
	m.set("gigaflow.hit_ratio", ratio(float64(g1.Hits-g0.Hits), float64(g1.Hits-g0.Hits+g1.Misses-g0.Misses)))
	m.set("gigaflow.entries", float64(g1.Len))
	m.set("gigaflow.entries_per_miss", ratio(float64(g1.EntriesCreated-g0.EntriesCreated),
		float64(g1.InsertedTraversals-g0.InsertedTraversals)))
	m.set("gigaflow.evictions", float64(g1.EvictLRU-g0.EvictLRU))
	if ct0, ct1 := w0.Conntrack, w1.Conntrack; ct1 != nil {
		m.set("conntrack.created", float64(ct1.Created-ct0.Created))
		m.set("conntrack.evicted", float64(ct1.EvictLRU-ct0.EvictLRU))
		m.set("conntrack.live", float64(ct1.Active))
	}
	var frameErrs uint64
	errVec := b.svc.Registry().CounterVec("gigaflow_frame_decode_errors_total",
		"Frames whose decode hit a defect, by reason (degraded keys are still forwarded).", "reason")
	for e := 1; e < wire.NumErrCodes; e++ {
		frameErrs += errVec.With(wire.ErrCode(e).String()).Value()
	}
	m.set("service.frame_errors", float64(frameErrs))
	// The recorder's histograms cover the service's whole life, warm-up
	// included; a quantile cannot be differenced.
	hit := lat.Total[telemetry.TierMicroflow.String()]
	if g := lat.Total[telemetry.TierGigaflow.String()]; g.Count > hit.Count {
		hit = g
	}
	m.set("recorder.hit_p50_ns", hit.P50)
	m.set("recorder.slowpath_p50_ns", lat.Total[telemetry.TierSlowpath.String()].P50)
	m.set("service.hop_us", b.hopUs())

	batchNs := vs.perPkt(spVSwitch)
	m.set("packet.rss_ns", vs.perPkt(spRSS))
	m.set("packet.decode_ns", vs.perPkt(spDecode))
	m.set("packet.natpatch_ns", vs.perPkt(spNatPatch))
	m.set("vswitch.batch_ns", batchNs)
	m.set("vswitch.allocs_per_pkt", ratio(float64(vs.mallocs), vs.pkts))
	m.set("service.self_ns", submitNs-vs.perPkt(spRSS)-vs.perPkt(spDecode)-batchNs)

	n := shd.n.minus(n0)
	var stages float64
	for _, k := range []spanKind{spUfLookup, spCtTrack, spMainLookup, spTraverse, spMainInsert, spUfInsert} {
		stages += sh.perPkt(k)
	}
	m.set("vswitch.closure", ratio(stages, batchNs))
	m.set("vswitch.self_ns", batchNs-stages)
	m.set("microflow.lookup_ns", sh.perOp(spUfLookup, n.packets))
	m.set("microflow.insert_ns", sh.perOp(spUfInsert, n.memos))
	m.set("conntrack.track_ns", sh.perOp(spCtTrack, n.tracks))
	m.set("gigaflow.lookup_ns", sh.perOp(spMainLookup, n.mainLookups))
	m.set("gigaflow.tables_per_hit", ratio(float64(n.pathLen), float64(n.mainHits)))
	m.set("gigaflow.insert_ns", sh.perOp(spMainInsert, n.misses))
	m.set("gigaflow.revalidate_ms", sh.medianMs(spRevalidate))
	m.set("pipeline.traverse_ns", sh.perOp(spTraverse, n.misses))
	m.set("pipeline.tables_per_traversal", ratio(float64(n.steps), float64(n.misses)))
	m.set("tss.probes_per_lookup", ratio(float64(n.probes), float64(n.steps)))

	mf1 := mv.Megaflow().Snapshot()
	m.set("vswitch.mf_batch_ns", mvs.perPkt(spVSwitch))
	m.set("megaflow.hit_ratio", ratio(float64(mf1.Hits-mf0.Hits), float64(mf1.Hits-mf0.Hits+mf1.Misses-mf0.Misses)))
	m.set("megaflow.entries", float64(mf1.Len))
	m.set("megaflow.masks", float64(mf1.Masks))
	m.set("megaflow.lookup_ns", msh.perOp(spMainLookup, mshd.n.minus(mn0).mainLookups))

	if park != nil {
		m.set("upcall.park_complete_ns", park.perOp(spParkComplete, pd.nParked-parked0))
		m.set("upcall.dedup_ratio", ratio(float64(pd.nDedup-dedup0), float64(pd.nParked-parked0)))
	}
	if in.cfg.Conntrack.Enable {
		m.set("conntrack.bytes_per_conn", ctBytesPerConn())
	}

	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeTraceFile(path, w.name, seed, env, sections); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	fmt.Fprintln(os.Stderr, "bench: spans written to", path)
	out.correct = out.failed == 0 && len(out.notes) == 0
	out.metrics = m
	return out, nil
}

func (a shadowCounts) minus(b shadowCounts) shadowCounts {
	return shadowCounts{
		packets: a.packets - b.packets, tracks: a.tracks - b.tracks,
		mainLookups: a.mainLookups - b.mainLookups, mainHits: a.mainHits - b.mainHits,
		pathLen: a.pathLen - b.pathLen, misses: a.misses - b.misses,
		steps: a.steps - b.steps, probes: a.probes - b.probes, memos: a.memos - b.memos,
	}
}

// hopUs measures the service's fixed per-submission cost: the median
// round trip of a one-frame batch of a warm flow, in microseconds. The
// frame is a UDP datagram outside every workload's address space; it is
// sent only after the run's counters and invariants have been read.
func (b *bed) hopUs() float64 {
	var k gigaflow.Key
	k = k.With(gigaflow.FieldEthSrc, 0x02ffff000001).With(gigaflow.FieldEthDst, 0x02ffff000002).
		With(gigaflow.FieldEthType, wire.EtherTypeIPv4).With(gigaflow.FieldIPProto, wire.IPProtoUDP).
		With(gigaflow.FieldIPSrc, 0x0aff0001).With(gigaflow.FieldIPDst, 0x0aff0002).
		With(gigaflow.FieldTpSrc, 9).With(gigaflow.FieldTpDst, 9)
	frames := []service.Frame{{Data: wire.Encode(k)}}
	batch := service.NewBatch(1)
	const n = 2000
	us := make([]float64, 0, n)
	for i := 0; i < n+100; i++ {
		t0 := time.Now()
		err := b.svc.SubmitFrameBatch(b.drv.ctx, frames, batch)
		dt := time.Since(t0)
		if err != nil || batch.Result(0).Err != nil {
			return 0
		}
		if i >= 100 { // the first calls install and memoise the flow
			us = append(us, float64(dt)/1e3)
		}
	}
	return median(us)
}

// ctBytesPerConn measures the live heap a tracked connection holds, table
// overhead included, by opening 8192 connections on a fresh table.
func ctBytesPerConn() float64 {
	const n = 8192
	h0 := liveHeap()
	t := conntrack.NewTable(0)
	var k flow.Key
	k = k.With(flow.FieldEthType, wire.EtherTypeIPv4).With(flow.FieldIPProto, wire.IPProtoTCP).
		With(flow.FieldIPDst, natVIP).With(flow.FieldTpDst, natVIPPort)
	for i := uint64(0); i < n; i++ {
		t.Track(k.With(flow.FieldIPSrc, 0x0a800000+i).With(flow.FieldTpSrc, 1024), wire.TCPSyn, 0)
	}
	h1 := liveHeap()
	runtime.KeepAlive(t)
	return (float64(h1) - float64(h0)) / n
}
