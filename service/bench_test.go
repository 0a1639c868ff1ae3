package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
)

// benchService builds a warmed 1-worker service over the test pipeline:
// every flow the benchmark submits is already resident in the microflow
// cache, so the measurement isolates submission overhead (channel
// crossings, result plumbing, per-packet vs per-batch bookkeeping)
// rather than slowpath traversal cost.
func benchService(b *testing.B, flows int) (*Service, []gigaflow.Key) {
	b.Helper()
	s, ctx := start(b, buildPipeline(), Config{
		Workers:           1,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 4 * flows,
	}), context.Background()
	keys := make([]gigaflow.Key, flows)
	for i := range keys {
		keys[i] = key(uint64(i), 80)
		if _, err := s.Submit(ctx, keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

// BenchmarkSubmit measures the per-packet blocking submission path: one
// channel round-trip and one result per packet.
func BenchmarkSubmit(b *testing.B) {
	s, keys := benchService(b, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitBatch measures the batched blocking path at gfreplay's
// default batch size: the channel round-trip, stats update, and latency
// sample are amortized over 32 packets.
func BenchmarkSubmitBatch(b *testing.B) {
	const size = 32
	s, keys := benchService(b, 64)
	ctx := context.Background()
	batch := NewBatch(size)
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		batch.Reset()
		for n := 0; n < size && sent < b.N; n++ {
			batch.Add(keys[sent%len(keys)])
			sent++
		}
		if err := s.SubmitBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}

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
			s, ctx := start(b, perFlowPipeline(flows), Config{
				Workers:           workers,
				Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
				MicroflowCapacity: 8 * flows,
			}), context.Background()
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

// BenchmarkNewRetainedHeap reports the live heap a service.New holds on
// the paper-scale PSC ruleset at 1, 2 and 4 workers: HeapAlloc after a
// forced GC with the service alive, minus the same just before New, as
// the benchmark's heap_mb measures it. The pipeline is the part that could
// grow with the shard count; the cache budgets are totals, split across
// workers.
func BenchmarkNewRetainedHeap(b *testing.B) {
	pw, err := pipebench.Generate(pipebench.PaperConfig(pipelines.PSC, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprint("workers=", workers), func(b *testing.B) {
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				s, err := New(pw.Pipeline, Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&ms)
				runtime.KeepAlive(s)
				b.ReportMetric(float64(ms.HeapAlloc-before)/(1<<20), "MiB")
			}
		})
	}
}
