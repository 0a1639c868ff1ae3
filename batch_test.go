package gigaflow

import (
	"testing"

	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
)

// Both main caches are drop-ins behind the datapath's one interface.
var (
	_ backend = (*gfcache.Cache)(nil)
	_ backend = (*megaflow.Cache)(nil)
)

// TestProcessBatchThrashZeroAlloc: a working set eight times the
// Microflow tier, every packet served by the main cache — the paper's
// operating point — must run allocation-free on both backends, on both
// sides of the tier's thrash policy: while the tier is active every packet
// is memoized over its least recently used entry, whose storage the new
// entry reuses, and while it bypasses every packet's memo is declined.
// The single-packet entry points are held to the same: main-cache hit and
// microflow hit, inline and park.
func TestProcessBatchThrashZeroAlloc(t *testing.T) {
	const ufCap = 16
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{WithMicroflow(ufCap)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(128))
			}
			vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64}, opts...)
			keys := make([]Key, 8*ufCap)
			for i := range keys {
				keys[i] = demoKey(uint64(i), 80)
			}
			out := make([]ProcessResult, len(keys))
			errs := make([]error, len(keys))
			vs.ProcessBatchMeta(keys, nil, out, errs, 0) // install, fill the tier
			before := vs.Stats()
			ufBefore := vs.Microflow().Stats()

			// 101 batches of 128 after the first: the tier's 4 096-packet
			// window closes in the 32nd batch of the tape without a hit,
			// the 8 192 packets after it are declined, and the last 768
			// are memoized again.
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, func() {
				vs.ProcessBatchMeta(keys, nil, out, errs, 1)
			}); allocs != 0 {
				t.Errorf("ProcessBatchMeta over %d keys on a %d-entry tier allocates %.1f/batch, want 0",
					len(keys), ufCap, allocs)
			}
			// AllocsPerRun calls the function once more, to warm up.
			pkts := uint64((runs + 1) * len(keys))
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
			if allocs := testing.AllocsPerRun(runs, func() {
				for _, k := range keys {
					if r, err := vs.ProcessMeta(k, 0, 2); err != nil || !r.CacheHit || r.MicroflowHit {
						t.Fatalf("ProcessMeta: %+v, %v", r, err)
					}
					if r, parked, err := vs.ProcessPark(k, 2); err != nil || parked || !r.MicroflowHit {
						t.Fatalf("ProcessPark: %+v, parked %v, %v", r, parked, err)
					}
				}
			}); allocs != 0 {
				t.Errorf("ProcessMeta + ProcessPark over %d keys allocate %.1f, want 0", len(keys), allocs)
			}
		})
	}
}
