package gigaflow

import (
	"testing"

	"gigaflow/internal/telemetry"
)

// --- VSwitch hot-path benchmarks -------------------------------------
//
// These guard the telemetry integration: the cache-hit path must stay
// allocation-free and within noise of its pre-telemetry cost, both with
// tracing disabled (the default) and with a tracer attached but sampling
// off.

func BenchmarkVSwitchCacheHit(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})
	k := demoKey(1, 80)
	if _, err := vs.Process(k, 0); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Process(k, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVSwitchProcessBatch measures the batched hot path on warm
// cache hits (ns/op is per 32-packet batch). Like Process, which runs the
// same loop over a batch of one, it must stay at 0 allocs/op.
func BenchmarkVSwitchProcessBatch(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})
	const batch = 32
	keys := make([]Key, batch)
	for i := range keys {
		keys[i] = demoKey(uint64(i%8), 80)
	}
	out := make([]ProcessResult, batch)
	errs := make([]error, batch)
	vs.ProcessBatchMeta(keys, nil, out, errs, 0) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.ProcessBatchMeta(keys, nil, out, errs, int64(i))
	}
}

func BenchmarkVSwitchMicroflowHit(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithMicroflow(128))
	k := demoKey(1, 80)
	if _, err := vs.Process(k, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Process(k, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProcessBatchRec is the batched warm hot path with an optional
// latency recorder attached: the parametrized body behind the pair
// below. ns/op is per 32-packet batch.
func benchProcessBatchRec(b *testing.B, rec *telemetry.LatencyRecorder) {
	opts := []VSwitchOption{WithMicroflow(256)}
	if rec != nil {
		opts = append(opts, WithLatencyRecorder(rec))
	}
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64}, opts...)
	const batch = 32
	keys := make([]Key, batch)
	for i := range keys {
		keys[i] = demoKey(uint64(i%8), 80)
	}
	out := make([]ProcessResult, batch)
	errs := make([]error, batch)
	vs.ProcessBatchMeta(keys, nil, out, errs, 0) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.ProcessBatchMeta(keys, nil, out, errs, int64(i))
	}
}

// BenchmarkVSwitchProcessBatchRecorded runs one batch loop of microflow
// hits without and with latency attribution: the difference between the
// two is the whole per-packet price of the flight recorder and tier
// histograms.
func BenchmarkVSwitchProcessBatchRecorded(b *testing.B) {
	b.Run("recorder=off", func(b *testing.B) { benchProcessBatchRec(b, nil) })
	b.Run("recorder=on", func(b *testing.B) {
		benchProcessBatchRec(b, telemetry.NewLatencyRecorder(0, 0))
	})
}

// BenchmarkVSwitchCacheHitTraced attaches a tracer with sampling disabled:
// the only added cost on the hit path must be one atomic load.
func BenchmarkVSwitchCacheHitTraced(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithTracer(NewTracer(0, 64)))
	k := demoKey(1, 80)
	if _, err := vs.Process(k, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Process(k, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
