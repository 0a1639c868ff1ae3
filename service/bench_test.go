package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// benchService builds a warmed 1-worker service over the test pipeline:
// every flow the benchmark submits is already resident in the microflow
// cache, so the measurement isolates submission overhead (channel
// crossings, result plumbing, per-packet vs per-batch bookkeeping)
// rather than slowpath traversal cost.
func benchService(b testing.TB, flows int, noLatency bool) (*Service, []gigaflow.Key) {
	b.Helper()
	s, err := New(buildPipeline(), Config{
		Workers:           1,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 4 * flows,
		Latency:           LatencyConfig{Disable: noLatency},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	keys := make([]gigaflow.Key, flows)
	for i := range keys {
		keys[i] = key(uint64(i), 80)
		if _, err := s.Submit(ctx, keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

func benchSubmit(b *testing.B) {
	s, keys := benchService(b, 64, false)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSubmitBatch(b *testing.B) { benchSubmitBatchCfg(b, false) }

// benchSubmitBatchCfg is the batched benchmark body parametrized on
// latency attribution, so the overhead gate can difference the
// instrumented datapath against a Latency.Disable baseline.
func benchSubmitBatchCfg(b *testing.B, noLatency bool) {
	s, keys := benchService(b, 64, noLatency)
	ctx := context.Background()
	batch := NewBatch(DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		batch.Reset()
		for n := 0; n < DefaultBatchSize && sent < b.N; n++ {
			batch.Add(keys[sent%len(keys)])
			sent++
		}
		if err := s.SubmitBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmit measures the per-packet blocking submission path: one
// channel round-trip and one result per packet.
func BenchmarkSubmit(b *testing.B) { benchSubmit(b) }

// BenchmarkSubmitBatch measures the batched blocking path at the default
// batch size: the channel round-trip, stats update, and latency sample
// are amortized over DefaultBatchSize packets.
func BenchmarkSubmitBatch(b *testing.B) { benchSubmitBatch(b) }

// BenchmarkSubmitFrameBatch measures the wire path the repository's
// benchmark drives: blocking 64-frame SubmitFrameBatch over flows that
// are all resident in the microflow tier. At one worker the submitter
// runs the whole batch in place; at two, one share crosses a worker
// queue and the other runs in place. One op is one frame.
func BenchmarkSubmitFrameBatch(b *testing.B) {
	const flows = 64
	frames := make([]Frame, flows)
	for i := range frames {
		frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := New(perFlowPipeline(flows), Config{
				Workers:           workers,
				Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
				MicroflowCapacity: 8 * flows,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := s.Start(ctx); err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			batch := NewBatch(flows)
			if err := s.SubmitFrameBatch(ctx, frames, batch); err != nil { // warm
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; sent += flows {
				if err := s.SubmitFrameBatch(ctx, frames, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBatchThroughputGate is the regression gate behind `make bench-gate`:
// batched submission must stay at least 2x faster per packet than
// per-packet submission on the same warmed service. What a batch
// amortises is no longer a channel round trip — an idle shard's
// submitter runs its own packets either way — but the fixed cost of one
// submission (two clock reads, the submit-latency histogram, grouping,
// one owner-lock acquisition, the VSwitch and cache-tier counter
// flushes): about 400 ns against about 70 ns of per-packet work, which
// measured 4.4x at 32 packets when the floor was re-derived (PR 15).
// Skipped unless GF_BENCH_GATE=1 — wall-clock benchmarks have no place
// in the default unit-test run.
func TestBatchThroughputGate(t *testing.T) {
	if os.Getenv("GF_BENCH_GATE") != "1" {
		t.Skip("set GF_BENCH_GATE=1 to run the batch throughput gate")
	}
	single := testing.Benchmark(benchSubmit)
	batched := testing.Benchmark(benchSubmitBatch)
	sNs := float64(single.NsPerOp())
	bNs := float64(batched.NsPerOp())
	speedup := sNs / bNs
	t.Logf("Submit: %.0f ns/pkt, SubmitBatch/%d: %.0f ns/pkt, speedup %.2fx",
		sNs, DefaultBatchSize, bNs, speedup)
	fmt.Printf("bench-gate: Submit %.0f ns/pkt, SubmitBatch/%d %.0f ns/pkt, speedup %.2fx (floor 2.00x)\n",
		sNs, DefaultBatchSize, bNs, speedup)
	if speedup < 2 {
		t.Fatalf("batched submission is only %.2fx per-packet submission (floor 2x): %0.f vs %.0f ns/pkt",
			speedup, bNs, sNs)
	}
}

// instrumentBudgetNs is what an always-on instrument (latency
// attribution, connection tracking of stateless traffic) may add to a
// batched microflow hit, per packet. The two gates below used to allow
// 5% of that path when it cost about 250 ns/pkt — 12.5 ns — and PR 15
// took the queue hop out of the denominator (now about 75 ns/pkt)
// without touching what the instruments do; a ratio of the new
// denominator would fail unchanged work, so the allowance is restated
// in the unit the cost is paid in, slightly tighter than before. It
// still trips on what the gates exist to catch: a per-packet clock read
// costs 25 ns or more on this class of machine and an allocation 20.
const instrumentBudgetNs = 12.0

// benchServiceCt builds a warmed 1-worker service over the test
// pipeline with or without connection tracking, submitting full
// 5-tuple TCP keys so the tracked side actually runs the conntrack
// machinery (Track on the miss, the ctServe epoch/transition guard and
// LRU touch on every hit) rather than short-circuiting as untracked.
// The pipeline itself is stateless — no ct_state matches, no NAT — so
// the pair isolates the per-packet cost of tracking itself.
func benchServiceCt(b testing.TB, flows int, ct bool) (*Service, []gigaflow.Key) {
	b.Helper()
	cfg := Config{
		Workers:           1,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 4 * flows,
		Latency:           LatencyConfig{Disable: true},
	}
	if ct {
		cfg.Conntrack = ConntrackConfig{Enable: true, MaxConns: 4 * flows}
	}
	s, err := New(buildPipeline(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	keys := make([]gigaflow.Key, flows)
	for i := range keys {
		keys[i] = key(uint64(i), 80).
			With(gigaflow.FieldIPProto, 6).
			With(gigaflow.FieldIPSrc, 0x0a010000|uint64(i)).
			With(gigaflow.FieldTpSrc, 1024+uint64(i))
		if _, err := s.Submit(ctx, keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

// TestConntrackOverheadGate is the stateless-traffic conntrack floor
// behind `make bench-gate`: a conntrack-enabled service pushing plain
// TCP flows through a stateless pipeline must stay within
// instrumentBudgetNs per packet of the identical service with tracking
// disabled, at 0 allocs/op — the
// per-hit cost of the ctServe guard (one epoch compare, one
// MayTransition check, one LRU touch) must stay noise-level for users
// who never write a stateful rule. Same interleaved-slice measurement
// as TestLatencyOverheadGate; see there for why sequential benchmark
// blocks cannot resolve a few-percent delta on a shared box. Skipped
// unless GF_BENCH_GATE=1.
func TestConntrackOverheadGate(t *testing.T) {
	if os.Getenv("GF_BENCH_GATE") != "1" {
		t.Skip("set GF_BENCH_GATE=1 to run the conntrack overhead gate")
	}
	const (
		warmSlices = 32
		slices     = 256
		perSlice   = 256
		reps       = 3
	)
	base, keys := benchServiceCt(t, 64, false)
	ct, ctKeys := benchServiceCt(t, 64, true)
	baseBatch := NewBatch(DefaultBatchSize)
	ctBatch := NewBatch(DefaultBatchSize)

	allocs := testing.AllocsPerRun(64, func() {
		_ = submitSlice(t, ct, ctKeys, ctBatch, 4)
	})
	if allocs != 0 {
		t.Fatalf("conntrack batched submit allocates %.1f allocs per slice, want 0", allocs)
	}

	pkts := float64(slices * perSlice * DefaultBatchSize)
	best := math.MaxFloat64
	var bestBase, bestCt float64
	for rep := 0; rep < reps; rep++ {
		var baseTime, ctTime time.Duration
		for s := 0; s < warmSlices+slices; s++ {
			var db, dc time.Duration
			if s%2 == 0 {
				db = submitSlice(t, base, keys, baseBatch, perSlice)
				dc = submitSlice(t, ct, ctKeys, ctBatch, perSlice)
			} else {
				dc = submitSlice(t, ct, ctKeys, ctBatch, perSlice)
				db = submitSlice(t, base, keys, baseBatch, perSlice)
			}
			if s >= warmSlices {
				baseTime += db
				ctTime += dc
			}
		}
		bNs, cNs := float64(baseTime)/pkts, float64(ctTime)/pkts
		ratio := cNs / bNs
		t.Logf("rep %d: stateless %.1f ns/pkt, conntrack %.1f ns/pkt (%+.1f%%)",
			rep, bNs, cNs, (ratio-1)*100)
		if ratio < best {
			best, bestBase, bestCt = ratio, bNs, cNs
		}
	}
	// The tracked side must actually have tracked: every warm hit runs
	// the guard.
	st, err := ct.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CtFastpath == 0 {
		t.Fatal("conntrack side never hit the ctServe fast path — gate measured nothing")
	}
	fmt.Printf("bench-gate: conntrack %.1f -> %.1f ns/pkt (%+.1f ns, %+.1f%%; ceiling +%.0f ns), 0 allocs/op\n",
		bestBase, bestCt, bestCt-bestBase, (best-1)*100, instrumentBudgetNs)
	if bestCt-bestBase > instrumentBudgetNs {
		t.Fatalf("conntrack costs %.1f ns/pkt on stateless traffic (ceiling %.0f): %.1f vs %.1f ns/pkt",
			bestCt-bestBase, instrumentBudgetNs, bestCt, bestBase)
	}
}

// submitSlice pushes n full batches through the service and returns the
// wall time spent, the gate's unit of measurement.
func submitSlice(t *testing.T, s *Service, keys []gigaflow.Key, batch *Batch, n int) time.Duration {
	t.Helper()
	ctx := context.Background()
	start := time.Now()
	for i, sent := 0, 0; i < n; i++ {
		batch.Reset()
		for j := 0; j < DefaultBatchSize; j++ {
			batch.Add(keys[sent%len(keys)])
			sent++
		}
		if err := s.SubmitBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

// TestLatencyOverheadGate is the attribution overhead floor behind
// `make bench-gate`: with latency attribution on (the default), the
// batched datapath must stay within instrumentBudgetNs per packet of the
// same path built with Config.Latency.Disable, at 0 allocs/op.
// Shared-box drift (frequency
// scaling, noisy neighbors) swings this path by ±15% on second
// timescales — far more than the few-ns true overhead — so two
// sequential `testing.Benchmark` blocks cannot resolve it. Instead the
// gate interleaves the two services in millisecond slices, alternating
// which goes first, and compares the summed times: both sides sample
// the same machine regimes, and the drift divides out of the ratio.
// Three repetitions, best ratio — a systematic regression (an
// allocation, a per-packet clock read) inflates every repetition.
// Skipped unless GF_BENCH_GATE=1.
func TestLatencyOverheadGate(t *testing.T) {
	if os.Getenv("GF_BENCH_GATE") != "1" {
		t.Skip("set GF_BENCH_GATE=1 to run the latency overhead gate")
	}
	const (
		warmSlices = 32  // untimed: page in both services, settle the regime
		slices     = 256 // timed slices per side per repetition
		perSlice   = 256 // batches per slice: ~1ms, finer than drift timescales
		reps       = 3
	)
	base, keys := benchService(t, 64, true)
	inst, _ := benchService(t, 64, false)
	baseBatch := NewBatch(DefaultBatchSize)
	instBatch := NewBatch(DefaultBatchSize)

	allocs := testing.AllocsPerRun(64, func() {
		_ = submitSlice(t, inst, keys, instBatch, 4)
	})
	if allocs != 0 {
		t.Fatalf("instrumented batched submit allocates %.1f allocs per slice, want 0", allocs)
	}

	pkts := float64(slices * perSlice * DefaultBatchSize)
	best := math.MaxFloat64
	var bestBase, bestInst float64
	for rep := 0; rep < reps; rep++ {
		var baseTime, instTime time.Duration
		for s := 0; s < warmSlices+slices; s++ {
			var db, di time.Duration
			if s%2 == 0 {
				db = submitSlice(t, base, keys, baseBatch, perSlice)
				di = submitSlice(t, inst, keys, instBatch, perSlice)
			} else {
				di = submitSlice(t, inst, keys, instBatch, perSlice)
				db = submitSlice(t, base, keys, baseBatch, perSlice)
			}
			if s >= warmSlices {
				baseTime += db
				instTime += di
			}
		}
		bNs, iNs := float64(baseTime)/pkts, float64(instTime)/pkts
		ratio := iNs / bNs
		t.Logf("rep %d: baseline %.1f ns/pkt, instrumented %.1f ns/pkt (%+.1f%%)",
			rep, bNs, iNs, (ratio-1)*100)
		if ratio < best {
			best, bestBase, bestInst = ratio, bNs, iNs
		}
	}
	fmt.Printf("bench-gate: latency attribution %.1f -> %.1f ns/pkt (%+.1f ns, %+.1f%%; ceiling +%.0f ns), 0 allocs/op\n",
		bestBase, bestInst, bestInst-bestBase, (best-1)*100, instrumentBudgetNs)
	if bestInst-bestBase > instrumentBudgetNs {
		t.Fatalf("latency attribution costs %.1f ns/pkt over the Latency.Disable baseline (ceiling %.0f): %.1f vs %.1f ns/pkt",
			bestInst-bestBase, instrumentBudgetNs, bestInst, bestBase)
	}
}
