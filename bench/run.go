package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gigaflow"
	"gigaflow/service"
)

// driver is one way of pushing a batch through the datapath: the service
// (the benchmark proper), or one of the traced run's replay drivers.
type driver interface {
	// trace attaches the span recorder (nil = tracing off).
	trace(t *tracer)
	// process handles one batch, fills res, and returns the nanoseconds
	// spent inside the measured call.
	process(frames []service.Frame, res []result) int64
	// update applies a rule mutation and revalidates the caches.
	update(u *ruleUpdate) error
}

// runner pumps a source's batches through a driver: next → process →
// check, with the workload's rule updates interleaved at fixed packet
// counts. Everything outside process and update is generator work and is
// never inside a timed window.
type runner struct {
	inst   *instance
	d      driver
	frames [batchSize]service.Frame
	res    [batchSize]result

	sinceUpdate int
	updates     int // rule updates applied so far
	failed      int
	attempted   int
}

// run drives pkts packets (a multiple of batchSize), recording each
// batch's measured time into rtts when it is non-nil.
func (r *runner) run(pkts int, rtts []int64) error {
	src := r.inst.src
	for b := 0; b < pkts/batchSize; b++ {
		src.next(r.frames[:])
		dt := r.d.process(r.frames[:], r.res[:])
		if rtts != nil {
			rtts[b] = dt
		}
		r.failed += src.check(r.res[:])
		r.attempted += batchSize
		if r.inst.updateEvery == 0 {
			continue
		}
		if r.sinceUpdate += batchSize; r.sinceUpdate >= r.inst.updateEvery {
			r.sinceUpdate = 0
			u := &r.inst.updates[r.updates%len(r.inst.updates)]
			r.updates++
			if err := r.d.update(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// svcDriver is the load model: blocking SubmitFrameBatch calls from one
// goroutine, timed with two clock reads around each call.
type svcDriver struct {
	ctx   context.Context
	svc   *service.Service
	batch *service.Batch
	tr    *tracer // nil with tracing off
}

func (d *svcDriver) trace(t *tracer) { d.tr = t }

func (d *svcDriver) process(frames []service.Frame, res []result) int64 {
	t0 := time.Now()
	root := d.tr.open(spSubmit, t0)
	err := d.svc.SubmitFrameBatch(d.ctx, frames, d.batch)
	t1 := time.Now()
	d.tr.close(root, t1)
	dt := int64(t1.Sub(t0))
	for i := range res {
		r := d.batch.Result(i)
		res[i] = result{r.Verdict, r.Final, r.Err}
		if err != nil {
			res[i].err = err
		}
	}
	return dt
}

func (d *svcDriver) update(u *ruleUpdate) error {
	t0 := time.Now()
	err := d.svc.UpdateRules(d.ctx, u.apply)
	d.tr.stage(spUpdate, noParent, t0)
	return err
}

// bed is a set-up service ready to be measured: workload built, service
// started, caches warm.
type bed struct {
	inst     *instance
	svc      *service.Service
	drv      *svcDriver
	run      *runner
	setupS   float64 // set-up time, scaled to the reference machine speed
	heapBase uint64  // live heap just before service.New
}

// liveHeap forces a collection and returns the bytes of live heap
// objects. Called only outside timed windows.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp builds the workload, starts a service on it and warms it up. The
// set-up clock covers ruleset build, frame generation, the oracle,
// service.New/Start and the warm-up; it pauses for the forced collection
// that takes the heap baseline.
func setUp(ctx context.Context, w *workload, seed int64) (*bed, error) {
	calBefore := calibrate(w.sz.calReads)
	t0 := time.Now()
	inst, err := w.build(w, seed)
	if err != nil {
		return nil, err
	}
	buildNs := time.Since(t0)
	heapBase := liveHeap()

	t1 := time.Now()
	svc, err := service.New(inst.pipe, inst.cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.name, err)
	}
	if err := svc.Start(ctx); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.name, err)
	}
	drv := &svcDriver{ctx: ctx, svc: svc, batch: service.NewBatch(batchSize)}
	b := &bed{inst: inst, svc: svc, drv: drv, run: &runner{inst: inst, d: drv}, heapBase: heapBase}
	if err := b.run.run(roundToBatch(inst.warmPkts), nil); err != nil {
		b.close()
		return nil, err
	}
	b.setupS = (buildNs + time.Since(t1)).Seconds()
	b.setupS *= speedOf(calBefore, calibrate(w.sz.calReads))
	return b, nil
}

func (b *bed) close() {
	// Close only fails on a service that never started or is already
	// closed; neither leaves anything running.
	_ = b.svc.Close()
}

// roundStats are one timed round's figures, as measured.
type roundStats struct {
	pktNs  float64 // Σ time inside the measured call ÷ packets
	p50Us  float64 // median per-batch round trip
	p99Us  float64 // 99th-percentile per-batch round trip
	wallNs float64 // wall time of the whole round ÷ packets
	// speed is how fast the machine was around this round: see speedOf.
	speed float64
}

// counters is the snapshot taken on both sides of the timed rounds.
type counters struct {
	stats gigaflow.VSwitchStats
	mem   runtime.MemStats
}

func (b *bed) snapshot() (counters, error) {
	var c counters
	var err error
	if c.stats, err = b.svc.Stats(b.drv.ctx); err != nil {
		return c, err
	}
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// timedRounds runs n rounds of the workload's fixed packet count and
// returns each round's figures.
func (r *runner) timedRounds(n int, meter *speedometer) ([]roundStats, error) {
	pkts := r.inst.w.sz.roundPkts
	rtts := make([]int64, pkts/batchSize)
	out := make([]roundStats, n)
	reads := r.inst.w.sz.calReads
	if meter.last == 0 {
		meter.last = calibrate(reads)
	}
	for i := range out {
		t0 := time.Now()
		if err := r.run(pkts, rtts); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		var sum int64
		for _, v := range rtts {
			sum += v
		}
		slices.Sort(rtts)
		out[i] = roundStats{
			pktNs:  float64(sum) / float64(pkts),
			p50Us:  float64(percentile(rtts, 0.50)) / 1e3,
			p99Us:  float64(percentile(rtts, 0.99)) / 1e3,
			wallNs: float64(wall) / float64(pkts),
		}
		calAfter := calibrate(reads)
		out[i].speed = speedOf(meter.last, calAfter)
		meter.last = calAfter
	}
	return out, nil
}

// medianOf is the median across rounds of one per-round figure: the
// reporting rule for every timing metric.
func medianOf(rs []roundStats, f func(*roundStats) float64) float64 {
	v := make([]float64, len(rs))
	for i := range rs {
		v[i] = f(&rs[i])
	}
	return median(v)
}

// ctCreated sums the connections the service's conntrack layer has
// created since it started.
func (b *bed) ctCreated() (uint64, error) {
	shards, err := b.svc.ShardStats(b.drv.ctx)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range shards {
		n += s.CtCreated
	}
	return n, nil
}

// outcome is a finished run: what the last stdout line reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string // invariant violations, for stderr
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times a run sets the workload up. Each set-up
// is also measured — the timed rounds are split between them — so a run's
// figures average over three independent heap layouts and a longer
// stretch of this machine's background noise than one bed would see.
const setupRepeats = 3

// runEndToEnd is the untraced benchmark run: set up, time the rounds,
// report every end-to-end metric.
func runEndToEnd(ctx context.Context, w *workload, seed int64, seconds int) (*outcome, error) {
	out := &outcome{metrics: map[string]metric{}}
	total := w.roundsFor(seconds)
	var rounds []roundStats
	var setupS, heapMB []float64
	var pkts, hits uint64
	for i := 0; i < setupRepeats; i++ {
		b, err := setUp(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		rs, before, after, err := b.measure((total + setupRepeats - 1 - i) / setupRepeats)
		if err == nil {
			heap := liveHeap()
			heapMB = append(heapMB, (float64(heap)-float64(b.heapBase))/(1<<20))
			err = b.finish(out)
		}
		b.close()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rs...)
		setupS = append(setupS, b.setupS)
		pkts += after.stats.Packets - before.stats.Packets
		hits += after.stats.MicroflowHits + after.stats.CacheHits -
			before.stats.MicroflowHits - before.stats.CacheHits
	}
	out.correct = out.failed == 0 && len(out.notes) == 0
	out.metrics["setup_s"] = metric{median(setupS), "s"}
	out.metrics["pkt_ns"] = metric{medianOf(rounds, func(r *roundStats) float64 { return r.pktNs * r.speed }), "ns/pkt"}
	out.metrics["rtt_p50_us"] = metric{medianOf(rounds, func(r *roundStats) float64 { return r.p50Us * r.speed }), "us"}
	out.metrics["hit_ratio"] = metric{float64(hits) / float64(pkts), "ratio"}
	out.metrics["heap_mb"] = metric{median(heapMB), "MiB"}
	return out, nil
}

// measure times n rounds between two counter snapshots.
func (b *bed) measure(n int) (rs []roundStats, before, after counters, err error) {
	if before, err = b.snapshot(); err != nil {
		return
	}
	if rs, err = b.run.timedRounds(n, &speedometer{}); err != nil {
		return
	}
	after, err = b.snapshot()
	return
}

// finish folds the bed's packet counts into out and runs the source's
// end-of-run invariants.
func (b *bed) finish(out *outcome) error {
	out.attempted += b.run.attempted
	out.failed += b.run.failed
	created, err := b.ctCreated()
	if err != nil {
		return err
	}
	if note := b.inst.src.finish(created); note != "" {
		out.notes = append(out.notes, note)
	}
	return nil
}
