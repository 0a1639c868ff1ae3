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

// BenchmarkSubmitFrame measures the per-packet blocking submission path
// over a warmed 1-worker service: every flow is already resident in the
// microflow cache, so the measurement isolates submission overhead (the
// pooled batch of one, decode, result plumbing) rather than slowpath
// traversal cost. One op is one frame.
func BenchmarkSubmitFrame(b *testing.B) {
	const flows = 64
	s, ctx := start(b, buildPipeline(), Config{
		Workers:           1,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 4 * flows,
	}), context.Background()
	frames := make([][]byte, flows)
	for i := range frames {
		frames[i] = frameOf(b, key(uint64(i), 80), 0)
		if _, err := s.SubmitFrame(ctx, 0, frames[i]); err != nil { // warm
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SubmitFrame(ctx, 0, frames[i%flows]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitFrameBatch measures the wire path the repository's
// benchmark drives: blocking 64-frame SubmitFrameBatch over flows that
// are all resident in the microflow tier. At one worker the submitter
// runs the whole batch in place; at two or four, every share but the last
// crosses a worker queue and the last runs in place. One op is one frame.
func BenchmarkSubmitFrameBatch(b *testing.B) {
	const flows = 64
	frames := make([]Frame, flows)
	for i := range frames {
		frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
	}
	for _, workers := range []int{1, 2, 4} {
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
