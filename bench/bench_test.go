package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gigaflow"
	"gigaflow/service"
)

// testShrink scales every workload down for the tests: same structure,
// 1/64 of the chains, flows, cache sizes and packets.
const testShrink = 64

// refDriver answers every packet with the never-cached Reference walk:
// the oracle as a driver, so the sources can be exercised — and nat-conn's
// invariants checked — without any cache in the way.
type refDriver struct {
	pipe *gigaflow.Pipeline
	ref  *gigaflow.Reference
	decoded
}

func newRefDriver(t *testing.T, in *instance) *refDriver {
	t.Helper()
	p, err := clonePipeline(in.pipe)
	if err != nil {
		t.Fatal(err)
	}
	return &refDriver{pipe: p, ref: gigaflow.NewReference(p, in.cfg.Conntrack.Enable, in.cfg.Conntrack.MaxConns)}
}

func (d *refDriver) trace(*tracer) {}

func (d *refDriver) process(frames []service.Frame, res []result) int64 {
	d.decode(frames)
	for i := range frames {
		r, err := d.ref.ProcessMeta(d.keys[i], d.flags[i], 0)
		res[i] = result{r.Verdict, r.Final, err}
	}
	return 0
}

func (d *refDriver) update(u *ruleUpdate) error { return u.apply(d.pipe) }

// hashingSource folds every frame a source emits into a hash.
type hashingSource struct {
	source
	h hash.Hash
}

func (s *hashingSource) next(frames []service.Frame) {
	s.source.next(frames)
	var port [2]byte
	for _, f := range frames {
		binary.BigEndian.PutUint16(port[:], f.InPort)
		s.h.Write(port[:])
		s.h.Write(f.Data)
	}
}

// frameHash builds workload w at the given seed, drives pkts packets of
// it through the Reference, and returns the hash of the frame sequence.
func frameHash(t *testing.T, w *workload, seed int64, pkts int) string {
	t.Helper()
	in, err := w.build(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	hs := &hashingSource{source: in.src, h: sha256.New()}
	in.src = hs
	d := newRefDriver(t, in)
	run := &runner{inst: in, d: d}
	if err := run.run(pkts, nil); err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 {
		t.Errorf("%s seed %d: %d of %d packets fail against the Reference walk", w.name, seed, run.failed, run.attempted)
	}
	var created uint64
	if ct := d.ref.Conntrack(); ct != nil {
		created = ct.Stats().Created
	}
	if note := hs.finish(created); note != "" {
		t.Errorf("%s seed %d: %s", w.name, seed, note)
	}
	return hex.EncodeToString(hs.h.Sum(nil))
}

func TestSameSeedSameFrames(t *testing.T) {
	for _, w := range workloads {
		w := w.shrunk(testShrink)
		pkts := 3 * w.sz.roundPkts
		a, b, c := frameHash(t, w, 1, pkts), frameHash(t, w, 1, pkts), frameHash(t, w, 2, pkts)
		if a != b {
			t.Errorf("%s: same seed gave different frame sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same frame sequence", w.name)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []int64{50, 10, 40, 30, 20, 60, 70, 80, 90, 100}
	slices.Sort(v)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.01, 10}, {0, 10}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

// TestMedianOfRounds pins the reporting rule: each timing metric is
// computed per round and the run reports the median across rounds, so one
// disturbed round cannot move the figure.
func TestMedianOfRounds(t *testing.T) {
	rs := []roundStats{{pktNs: 500}, {pktNs: 510}, {pktNs: 4000}, {pktNs: 505}, {pktNs: 495}}
	if got := medianOf(rs, func(r *roundStats) float64 { return r.pktNs }); got != 505 {
		t.Errorf("median of rounds = %v, want 505", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(8)
	at := func(ns int64) time.Time { return tr.base.Add(time.Duration(ns)) }
	root := tr.open(spReplay, at(0))
	tr.spans = append(tr.spans,
		span{spRSS, root, 0, 0, 100},
		span{spDecode, root, 0, 100, 350},
		span{spVSwitch, root, 0, 400, 900})
	tr.close(root, at(1000))
	root2 := tr.open(spReplay, at(2000))
	tr.spans = append(tr.spans, span{spVSwitch, root2, 1, 2000, 2600})
	tr.close(root2, at(2700))

	kt := tr.totals()
	if got := kt.total[spReplay]; got != 1700 {
		t.Errorf("replay total = %d, want 1700", got)
	}
	// 1000-(100+250+500) + 700-600
	if got := kt.self[spReplay]; got != 250 {
		t.Errorf("replay self = %d, want 250", got)
	}
	if got, want := kt.self[spVSwitch], kt.total[spVSwitch]; got != want || got != 1100 {
		t.Errorf("leaf self = %d, total = %d, want both 1100", got, want)
	}
	if tr.spans[root2].batch != 1 {
		t.Errorf("second root's batch id = %d, want 1", tr.spans[root2].batch)
	}
	var nilTr *tracer
	if nilTr.open(spReplay, at(0)) != noParent {
		t.Error("nil tracer handed out a span")
	}
	nilTr.stage(spRSS, noParent, at(0))
	nilTr.close(noParent, at(0))
}

func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s := spec.Workloads[i]; s.Name != w.name || s.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q/%q, the code %q/%q", i, s.Name, s.Why, w.name, w.why)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i] != m {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the code %+v", i, spec.PerLayer[i], m)
		}
	}
	if spec.Command[len(spec.Command)-1] != "bench/run.sh" || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("command %v / paths %v do not name this directory", spec.Command, spec.Paths)
	}
}

// TestSmoke runs every workload end to end and traced at test scale,
// validates both documents the way the program does before printing them
// (the output_malformed failure this guards against), and asserts the
// facts that make the four workloads separate the layers.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outDir := t.TempDir()
	got := map[string]map[string]metric{}
	for _, w := range workloads {
		name := w.name
		w := w.shrunk(testShrink)
		e2e, err := runEndToEnd(ctx, w, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := record{Workload: name, Seed: 1, Seconds: 1, Correct: e2e.correct,
			Attempted: e2e.attempted, Failed: e2e.failed, Metrics: e2e.metrics}
		for _, e := range spec.validate(&rec) {
			t.Errorf("end-to-end document: %s", e)
		}
		if !e2e.correct || e2e.failed != 0 {
			t.Errorf("%s: end-to-end run failed %d of %d: %v", name, e2e.failed, e2e.attempted, e2e.notes)
		}

		tr, err := runTraced(ctx, w, 1, currentEnv(), outDir)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		rec = record{Workload: name, Seed: 1, Seconds: 1, Trace: 1, Correct: tr.correct,
			Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.metrics}
		for _, e := range spec.validate(&rec) {
			t.Errorf("per-layer document: %s", e)
		}
		if !tr.correct || tr.failed != 0 {
			t.Errorf("%s: traced run failed %d of %d: %v", name, tr.failed, tr.attempted, tr.notes)
		}
		if st, err := os.Stat(filepath.Join(outDir, "trace-"+name+".json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file written: %v", name, err)
		}
		got[name] = tr.metrics
	}

	val := func(workload, metric string) float64 { return got[workload][metric].Value }
	check := func(workload, metric string, ok func(float64) bool, want string) {
		t.Helper()
		if v := val(workload, metric); !ok(v) || math.IsNaN(v) {
			t.Errorf("%s: %s = %v, want %s", workload, metric, v, want)
		}
	}
	check("warm-exact", "microflow.hit_ratio", func(v float64) bool { return v >= 0.99 }, ">= 0.99")
	check("warm-exact", "pipeline.miss_ratio", func(v float64) bool { return v == 0 }, "0")
	check("warm-ltm", "microflow.hit_ratio", func(v float64) bool { return v <= 0.05 }, "<= 0.05")
	check("warm-ltm", "gigaflow.hit_ratio", func(v float64) bool { return v >= 0.95 }, ">= 0.95")
	// At full scale cold-churn's miss ratio sits in [0.05, 0.20] (≈0.10,
	// see results/README.md); the shrunk ruleset shares fewer sub-traversals
	// per flow, so the test-scale band is wider.
	check("cold-churn", "pipeline.miss_ratio", func(v float64) bool { return v >= 0.05 && v <= 0.40 }, "in [0.05, 0.40]")
	check("cold-churn", "gigaflow.evictions", func(v float64) bool { return v > 0 }, "> 0")
	check("cold-churn", "service.update_ms", func(v float64) bool { return v > 0 }, "> 0")
	check("cold-churn", "upcall.park_complete_ns", func(v float64) bool { return v > 0 }, "> 0")
	check("nat-conn", "conntrack.created", func(v float64) bool { return v > 0 }, "> 0")
	check("nat-conn", "conntrack.evicted", func(v float64) bool { return v > 0 }, "> 0")
	check("nat-conn", "conntrack.track_ns", func(v float64) bool { return v > 0 }, "> 0")
	for _, w := range []string{"warm-exact", "warm-ltm", "cold-churn"} {
		for _, m := range perLayer {
			if len(m.Name) > 10 && m.Name[:10] == "conntrack." {
				check(w, m.Name, func(v float64) bool { return v == 0 }, "0 outside nat-conn")
			}
		}
	}
	for w := range got {
		check(w, "service.submit_ns", func(v float64) bool { return v > 0 }, "> 0")
		check(w, "vswitch.batch_ns", func(v float64) bool { return v > 0 }, "> 0")
		check(w, "vswitch.closure", func(v float64) bool { return v > 0 }, "> 0")
		check(w, "service.frame_errors", func(v float64) bool { return v == 0 }, "0")
	}
}

func TestCheckAndCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(file string, pktNs float64, drop string) string {
		path := filepath.Join(dir, file)
		for _, w := range spec.Workloads {
			for i := 0; i < 4; i++ {
				r := record{Workload: w.Name, Seed: int64(i), Seconds: 1, Correct: true, Attempted: 64, Metrics: map[string]metric{}}
				for _, m := range spec.EndToEnd {
					if m.Name != drop {
						r.Metrics[m.Name] = metric{1 + 0.001*float64(i), m.Unit}
					}
				}
				if drop != "pkt_ns" {
					r.Metrics["pkt_ns"] = metric{pktNs + float64(i), "ns/pkt"}
				}
				if err := appendRecord(path, &r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("a.jsonl", 1000, "")
	same := write("b.jsonl", 1010, "")
	slow := write("c.jsonl", 2000, "")
	broken := write("d.jsonl", 1000, "hit_ratio")
	if rc := checkFile(spec, base, io.Discard, io.Discard); rc != 0 {
		t.Errorf("check of a complete result set = %d, want 0", rc)
	}
	if rc := checkFile(spec, broken, io.Discard, io.Discard); rc != 1 {
		t.Errorf("check of a result set missing hit_ratio = %d, want 1", rc)
	}
	if rc := compareFiles(spec, base, same, io.Discard, io.Discard); rc != 0 {
		t.Errorf("compare within bounds = %d, want 0", rc)
	}
	if rc := compareFiles(spec, base, slow, io.Discard, io.Discard); rc != 1 {
		t.Errorf("compare with pkt_ns doubled = %d, want 1", rc)
	}
	if rc := compareFiles(spec, slow, base, io.Discard, io.Discard); rc != 0 {
		t.Errorf("compare with pkt_ns halved = %d, want 0 (an improvement)", rc)
	}
}
