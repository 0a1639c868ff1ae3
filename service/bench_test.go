package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
// benchmark drives: blocking 64-frame SubmitFrameBatch calls. At one
// worker the submitter runs the whole batch in place; at two or four,
// every share but the last crosses a worker queue and the last runs in
// place. One op is one frame.
//
// Two cases bound the work a share carries. In hit, 64 flows are all
// resident in the microflow tier. In miss, 4 096 flows of a per-flow
// pipeline cycle through a main cache of 64 entries a table with no
// microflow tier, so every frame walks the pipeline and installs.
// misses/frame reports the share of frames that missed.
//
// capacity measures the box the shard counts run on: the same fixed
// arithmetic — chains of dependent multiply-adds, capacityChain per op —
// timed on one goroutine and then split evenly over GOMAXPROCS
// goroutines. capacity_x is the first wall time over the second: the
// speedup a perfectly parallel load gets here, beside which the two- and
// four-worker figures read.
func BenchmarkSubmitFrameBatch(b *testing.B) {
	b.Run("capacity", benchCapacity)
	const batchLen = 64
	for _, tc := range []struct {
		name  string
		flows int
		cfg   Config
	}{
		{"hit", batchLen, Config{
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
			MicroflowCapacity: 8 * batchLen,
		}},
		{"miss", 4096, Config{Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 64}}},
	} {
		frames := make([]Frame, tc.flows)
		for i := range frames {
			frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
		}
		p := perFlowPipeline(tc.flows)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				cfg := tc.cfg
				cfg.Workers = workers
				s, ctx := start(b, p, cfg), context.Background()
				batch := NewBatch(batchLen)
				next := func(sent int) []Frame {
					at := sent % tc.flows
					return frames[at : at+batchLen]
				}
				if err := s.SubmitFrameBatch(ctx, next(0), batch); err != nil { // warm
					b.Fatal(err)
				}
				before, err := s.Stats(ctx)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				sent := 0
				for ; sent < b.N; sent += batchLen {
					if err := s.SubmitFrameBatch(ctx, next(sent+batchLen), batch); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after, err := s.Stats(ctx)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(after.Sub(before).CacheMisses)/float64(sent), "misses/frame")
			})
		}
	}
}

// capacityChain is the multiply-adds in one op of
// BenchmarkSubmitFrameBatch/capacity.
const capacityChain = 4096

// capacitySink keeps the capacity arithmetic from being optimised away.
var capacitySink uint64

// madd runs a chain of n dependent multiply-adds.
func madd(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*0x9e3779b97f4a7c15 + 1
	}
	return x
}

func benchCapacity(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	work := b.N * capacityChain
	sums := make([]uint64, procs)
	b.ResetTimer()
	t0 := time.Now()
	capacitySink += madd(work)
	serial := time.Since(t0)
	t0 = time.Now()
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = madd(work / procs)
		}()
	}
	wg.Wait()
	parallel := time.Since(t0)
	b.StopTimer()
	for _, x := range sums {
		capacitySink += x
	}
	b.ReportMetric(float64(serial)/float64(parallel), "capacity_x")
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
