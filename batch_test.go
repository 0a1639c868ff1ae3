package gigaflow

import "testing"

// TestProcessBatchMatchesSequential drives the same key sequence through
// Process one packet at a time and through ProcessBatch in mixed-size
// chunks, on both backends with a Microflow tier: results, errors, and
// every counter (VSwitch, main cache, microflow) must be identical —
// batching amortizes bookkeeping, it must never change behaviour.
func TestProcessBatchMatchesSequential(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			cfg := CacheConfig{NumTables: 3, TableCapacity: 64}
			opts := []VSwitchOption{WithMicroflow(32)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(128))
			}
			seqVS := NewVSwitch(buildDemoPipeline(), cfg, opts...)
			batVS := NewVSwitch(buildDemoPipeline(), cfg, opts...)

			// Mixed traffic: revisited flows (microflow hits), fresh flows
			// of cached megaflows (main-cache hits), and cold flows
			// (slowpath). Small microflow capacity forces LRU churn too.
			ports := []uint64{80, 22}
			var keys []Key
			for i := 0; i < 300; i++ {
				keys = append(keys, demoKey(uint64(i*7%41), ports[i%2]))
			}

			seqRes := make([]ProcessResult, len(keys))
			for i, k := range keys {
				r, err := seqVS.Process(k, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				seqRes[i] = r
			}

			out := make([]ProcessResult, len(keys))
			errs := make([]error, len(keys))
			batVS.ProcessBatch(nil, nil, nil, 0) // empty batch: no-op
			chunks := []int{1, 7, 32, 3, 64, 5, 2, 100}
			for lo, c := 0, 0; lo < len(keys); c++ {
				n := chunks[c%len(chunks)]
				if lo+n > len(keys) {
					n = len(keys) - lo
				}
				// A chunk shares one virtual timestamp; LRU order within
				// it is still submission order, so behaviour matches.
				batVS.ProcessBatch(keys[lo:lo+n], out[lo:lo+n], errs[lo:lo+n], int64(lo))
				lo += n
			}

			for i := range keys {
				if errs[i] != nil {
					t.Fatalf("packet %d: batch error %v", i, errs[i])
				}
				if out[i] != seqRes[i] {
					t.Fatalf("packet %d: batch %+v != sequential %+v", i, out[i], seqRes[i])
				}
			}
			if bs, ss := batVS.Stats(), seqVS.Stats(); bs != ss {
				t.Errorf("VSwitchStats diverge: batch %+v, sequential %+v", bs, ss)
			}
			if bs, ss := batVS.Microflow().Stats(), seqVS.Microflow().Stats(); bs != ss {
				t.Errorf("microflow stats diverge: batch %+v, sequential %+v", bs, ss)
			}
			if backend == "gigaflow" {
				if bs, ss := batVS.Cache().Stats(), seqVS.Cache().Stats(); bs != ss {
					t.Errorf("gigaflow stats diverge: batch %+v, sequential %+v", bs, ss)
				}
			} else {
				if bs, ss := batVS.Megaflow().Stats(), seqVS.Megaflow().Stats(); bs != ss {
					t.Errorf("megaflow stats diverge: batch %+v, sequential %+v", bs, ss)
				}
			}
		})
	}
}

// TestProcessBatchVisibility pins the ordering contract directly: a miss
// early in a batch installs rules and memoizes, and a later packet of the
// same flow in the *same* batch must hit.
func TestProcessBatchVisibility(t *testing.T) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithMicroflow(32))
	k := demoKey(1, 80)
	keys := []Key{k, k, k}
	out := make([]ProcessResult, 3)
	errs := make([]error, 3)
	vs.ProcessBatch(keys, out, errs, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	if out[0].CacheHit {
		t.Error("first packet of a cold cache cannot hit")
	}
	if !out[1].CacheHit || !out[2].CacheHit {
		t.Error("later packets must see the first packet's install")
	}
	if !out[2].MicroflowHit {
		t.Error("third packet must hit the memoized exact-match entry")
	}
	st := vs.Stats()
	if st.Packets != 3 || st.CacheMisses != 1 || st.Slowpath != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestProcessBatchThrashZeroAlloc: a working set eight times the
// Microflow tier, every packet served by the main cache and memoized over
// the tier's least recently used entry — the paper's operating point —
// must run allocation-free on both backends. Memoizing into a full tier
// reuses the evicted entry's storage.
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
			vs.ProcessBatch(keys, out, errs, 0) // install, fill the tier
			before := vs.Stats()
			evicted := vs.Microflow().Stats().EvictLRU

			const runs = 20
			if allocs := testing.AllocsPerRun(runs, func() {
				vs.ProcessBatch(keys, out, errs, 1)
			}); allocs != 0 {
				t.Errorf("ProcessBatch over %d keys on a %d-entry tier allocates %.1f/batch, want 0",
					len(keys), ufCap, allocs)
			}
			// AllocsPerRun calls the function once more, to warm up.
			pkts := uint64((runs + 1) * len(keys))
			after := vs.Stats()
			if after.CacheHits-before.CacheHits != pkts || after.MicroflowHits != before.MicroflowHits {
				t.Errorf("not every packet was a main-cache hit: before %+v, after %+v", before, after)
			}
			if got := vs.Microflow().Stats().EvictLRU - evicted; got != pkts {
				t.Errorf("%d evictions over %d memoized packets", got, pkts)
			}
		})
	}
}
