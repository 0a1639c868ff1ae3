package gigaflow

import "testing"

// TestParkWarmPathZeroAlloc pins the park-mode warm path at zero
// allocations per operation: once a flow is cached, ProcessPark and
// ProcessBatchPark must be allocation-free exactly like Process — the
// offload machinery only ever spends memory on actual misses.
func TestParkWarmPathZeroAlloc(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{WithMicroflow(32)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(128))
			}
			v := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64}, opts...)
			k := demoKey(1, 80)
			if _, _, err := v.ProcessPark(k, 0); err != nil {
				t.Fatal(err)
			}
			tr, err := v.Pipeline().Process(k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.CompleteMiss(k, tr, 0, 0, 0); err != nil {
				t.Fatal(err)
			}

			if allocs := testing.AllocsPerRun(1000, func() {
				if _, parked, _ := v.ProcessPark(k, 1); parked {
					t.Fatal("warm flow parked")
				}
			}); allocs != 0 {
				t.Fatalf("ProcessPark warm path allocates %.1f/op, want 0", allocs)
			}

			keys := []Key{k, k, k, k}
			out := make([]ProcessResult, len(keys))
			errs := make([]error, len(keys))
			parked := make([]bool, len(keys))
			if allocs := testing.AllocsPerRun(1000, func() {
				v.ProcessBatchPark(keys, out, errs, parked, 2)
			}); allocs != 0 {
				t.Fatalf("ProcessBatchPark warm path allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
