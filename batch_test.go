package gigaflow

import (
	"runtime"
	"testing"

	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
)

// Both main caches are drop-ins behind the datapath's one interface.
var (
	_ backend = (*gfcache.Cache)(nil)
	_ backend = (*megaflow.Cache)(nil)
)

// mallocs counts the heap allocations f makes, whole: testing.AllocsPerRun
// divides its count by its runs in integer arithmetic, so up to runs-1
// allocations spread over a tape would read 0 there.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestProcessBatchThrashZeroAlloc: a working set eight times the
// Microflow tier, every packet served by the main cache — the paper's
// operating point — must run allocation-free on both backends, on both
// sides of the tier's thrash policy: while the tier is active every packet
// is memoized over its least recently used entry, whose storage the new
// entry reuses, and while it bypasses every packet's memo is declined.
// The single-packet entry points are held to the same: main-cache hit and
// microflow hit, inline and park. A tier large enough to keep a miniature
// is held to it too, from its step aside on: through two bypass periods
// and two windows in the miniature, which allocate nothing either.
func TestProcessBatchThrashZeroAlloc(t *testing.T) {
	const ufCap = 16
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			newSwitch := func(ufCap int) *VSwitch {
				opts := []VSwitchOption{WithMicroflow(ufCap)}
				if backend == "megaflow" {
					opts = append(opts, WithMegaflowBackend(128))
				}
				return NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64}, opts...)
			}
			vs := newSwitch(ufCap)
			keys := make([]Key, 8*ufCap)
			for i := range keys {
				keys[i] = demoKey(uint64(i), 80)
			}
			out := make([]ProcessResult, len(keys))
			errs := make([]error, len(keys))
			vs.ProcessBatchMeta(keys, nil, out, errs, 0) // install, fill the tier
			before := vs.Stats()
			ufBefore := vs.Microflow().Snapshot().Stats

			// 101 batches of 128: the tier's 4 096-packet window closes in
			// the 32nd batch of the tape without a hit, the 8 192 packets
			// after it are declined, and the last 768 are memoized again.
			const runs = 101
			if n := mallocs(func() {
				for range runs {
					vs.ProcessBatchMeta(keys, nil, out, errs, 1)
				}
			}); n != 0 {
				t.Errorf("%d batches of %d keys on a %d-entry tier make %d allocations, want 0",
					runs, len(keys), ufCap, n)
			}
			pkts := uint64(runs * len(keys))
			after := vs.Stats()
			if after.CacheHits-before.CacheHits != pkts || after.MicroflowHits != before.MicroflowHits {
				t.Errorf("not every packet was a main-cache hit: before %+v, after %+v", before, after)
			}
			uf := vs.Microflow().Snapshot()
			evicted, bypassed := uf.EvictLRU-ufBefore.EvictLRU, uf.Bypassed-ufBefore.Bypassed
			if evicted+bypassed != pkts || bypassed != 2*4096 {
				t.Errorf("%d evictions and %d declined memos over %d packets, want %d and %d",
					evicted, bypassed, pkts, pkts-2*4096, 2*4096)
			}
			// The legs below need their memos kept.
			if uf.Bypassing {
				t.Fatal("the tier is still bypassing")
			}

			// A single packet is a batch of one through the same loop: it
			// must not pay an allocation for the wrapping, inline or parked.
			if n := mallocs(func() {
				for range runs {
					for _, k := range keys {
						if r, err := vs.Process(k, 2); err != nil || !r.CacheHit || r.MicroflowHit {
							t.Fatalf("Process: %+v, %v", r, err)
						}
						if r, parked, err := vs.ProcessPark(k, 2); err != nil || parked || !r.MicroflowHit {
							t.Fatalf("ProcessPark: %+v, parked %v, %v", r, parked, err)
						}
					}
				}
			}); n != 0 {
				t.Errorf("Process + ProcessPark over %d keys, %d times, make %d allocations, want 0", len(keys), runs, n)
			}

			// The miniature: round robin over two capacities of flows, at a
			// distance neither the tier nor its miniature can hit.
			const bigCap = 4096 + 64 // a tier keeps a miniature above 4 096 entries
			vs = newSwitch(bigCap)
			keys = make([]Key, 2*bigCap) // 65 batches of 128
			for i := range keys {
				keys[i] = demoKey(uint64(i%128), 80).With(FieldIPSrc, uint64(i))
			}
			next := 0
			batch := func() {
				vs.ProcessBatchMeta(keys[next:next+128], nil, out, errs, 1)
				next = (next + 128) % len(keys)
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			for vs.Microflow().Snapshot().Shed == 0 {
				batch() // install, then the first window and the step aside
			}
			before, ufBefore = vs.Stats(), vs.Microflow().Snapshot().Stats
			windows, batches := 0, 0
			if n := mallocs(func() {
				for windows < 2 {
					was := vs.Microflow().Snapshot().Bypassing
					batch()
					batches++
					if !was && vs.Microflow().Snapshot().Bypassing {
						windows++ // a window in the miniature closed, thrashing
					}
				}
			}); n != 0 {
				t.Errorf("%d batches through two windows in the miniature make %d allocations, want 0", batches, n)
			}
			pkts = uint64(128 * batches)
			after, uf = vs.Stats(), vs.Microflow().Snapshot()
			evicted, bypassed = uf.EvictLRU-ufBefore.EvictLRU, uf.Bypassed-ufBefore.Bypassed
			if after.CacheHits-before.CacheHits != pkts || after.MicroflowHits != 0 ||
				evicted+bypassed+uint64(uf.Len) != pkts || uf.Len > bigCap/64 || uf.Shed != bigCap {
				t.Errorf("over %d packets: %d main-cache hits, %d microflow hits, %d evictions, %d declined, %d held, %d shed; want %d, 0, %d in all, at most %d held, %d shed",
					pkts, after.CacheHits-before.CacheHits, after.MicroflowHits, evicted, bypassed, uf.Len, uf.Shed,
					pkts, pkts, bigCap/64, bigCap)
			}
		})
	}
}
