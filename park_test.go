package gigaflow

import "testing"

// TestParkCompleteMatchesInline drives the same key sequence through
// inline Process and through the park-mode protocol (ProcessPark, then
// CompleteMiss on the engine-traversed result — or ProcessMissInline for
// the overflow-fallback packets), on both backends with a Microflow
// tier. Results and every counter must be identical: parking defers the
// slow path, it must never change what is counted or returned.
func TestParkCompleteMatchesInline(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			cfg := CacheConfig{NumTables: 3, TableCapacity: 64}
			opts := []VSwitchOption{WithMicroflow(32)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(128))
			}
			inVS := NewVSwitch(buildDemoPipeline(), cfg, opts...)
			pkVS := NewVSwitch(buildDemoPipeline(), cfg, opts...)

			// Ahead of the mixed traffic, thrashPrefix: a parked packet is
			// probed twice and memoized once; the bypass counts requests,
			// so both switches enter and leave it on the same packet.
			ports := []uint64{80, 22}
			keys := thrashPrefix()
			for i := 0; i < 300; i++ {
				keys = append(keys, demoKey(uint64(i*7%41), ports[i%2]))
			}

			for i, k := range keys {
				now := int64(i)
				want, err := inVS.Process(k, now)
				if err != nil {
					t.Fatal(err)
				}

				got, parked, err := pkVS.ProcessPark(k, now)
				if err != nil {
					t.Fatal(err)
				}
				if parked {
					if i%3 == 0 {
						// Overflow fallback: finish the skipped punt inline.
						got, err = pkVS.ProcessMissInline(k, now)
					} else {
						// Engine path: traverse off to the side, complete.
						tr, terr := pkVS.Pipeline().Process(k)
						if terr != nil {
							t.Fatal(terr)
						}
						got, err = pkVS.CompleteMiss(k, tr, now, 100, 50)
					}
					if err != nil {
						t.Fatal(err)
					}
				} else if !got.CacheHit {
					t.Fatalf("packet %d: not parked yet not a hit: %+v", i, got)
				}
				if got != want {
					t.Fatalf("packet %d: park %+v != inline %+v", i, got, want)
				}
			}

			if ps, is := pkVS.Stats(), inVS.Stats(); ps != is {
				t.Errorf("VSwitchStats diverge: park %+v, inline %+v", ps, is)
			}
			if ps, is := pkVS.Microflow().Stats(), inVS.Microflow().Stats(); ps != is || is.Bypassed != 2*4096 {
				t.Errorf("microflow stats diverge, or miss the bypass: park %+v, inline %+v", ps, is)
			}
			if backend == "gigaflow" {
				if ps, is := pkVS.Cache().Stats(), inVS.Cache().Stats(); ps != is {
					t.Errorf("gigaflow stats diverge: park %+v, inline %+v", ps, is)
				}
			} else {
				if ps, is := pkVS.Megaflow().Stats(), inVS.Megaflow().Stats(); ps != is {
					t.Errorf("megaflow stats diverge: park %+v, inline %+v", ps, is)
				}
			}
		})
	}
}

// TestProcessBatchParkFollowers pins the dedup-and-replay protocol for
// same-flow packets split across the park boundary: a batch holding
// several packets of the same cold flow parks all of them; one traversal
// completes the initiator and the followers are replayed through
// Process, and the end state must match inline ProcessBatch — where the
// first packet's miss installs and memoizes before later packets of the
// flow are looked up.
func TestProcessBatchParkFollowers(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			cfg := CacheConfig{NumTables: 3, TableCapacity: 64}
			opts := []VSwitchOption{WithMicroflow(256)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(128))
			}
			inVS := NewVSwitch(buildDemoPipeline(), cfg, opts...)
			pkVS := NewVSwitch(buildDemoPipeline(), cfg, opts...)

			// 3 cold flows interleaved: every flow appears 3× in the batch.
			var keys []Key
			for rep := 0; rep < 3; rep++ {
				for f := uint64(0); f < 3; f++ {
					keys = append(keys, demoKey(f, 80))
				}
			}

			want := make([]ProcessResult, len(keys))
			werrs := make([]error, len(keys))
			inVS.ProcessBatch(keys, want, werrs, 0)

			got := make([]ProcessResult, len(keys))
			gerrs := make([]error, len(keys))
			parked := make([]bool, len(keys))
			pkVS.ProcessBatchPark(keys, got, gerrs, parked, 0)

			if st := pkVS.Stats(); st.Packets != 0 {
				t.Fatalf("parked-only batch counted %d packets", st.Packets)
			}

			// Dedup parked packets per flow in first-seen order, then run the
			// upcall protocol: one CompleteMiss per flow, followers replayed.
			groups := map[Key][]int{}
			var order []Key
			for i, p := range parked {
				if !p {
					t.Fatalf("packet %d of a cold batch not parked", i)
				}
				if _, seen := groups[keys[i]]; !seen {
					order = append(order, keys[i])
				}
				groups[keys[i]] = append(groups[keys[i]], i)
			}
			if len(order) != 3 {
				t.Fatalf("expected 3 pending flows, got %d", len(order))
			}
			for _, k := range order {
				idxs := groups[k]
				tr, err := pkVS.Pipeline().Process(k)
				if err != nil {
					t.Fatal(err)
				}
				// Second-chance lookup: an earlier flow's completion may have
				// installed a wildcard entry that covers this flow (inline,
				// this packet would have hit it). Only a still-missing flow
				// consumes its traversal.
				r, stillParked, err := pkVS.ProcessPark(k, 0)
				if err != nil {
					t.Fatal(err)
				}
				if stillParked {
					r, err = pkVS.CompleteMiss(k, tr, 0, 100, 50)
					if err != nil {
						t.Fatal(err)
					}
				}
				got[idxs[0]] = r
				for _, i := range idxs[1:] {
					got[i], gerrs[i] = pkVS.Process(keys[i], 0)
				}
			}

			for i := range keys {
				if werrs[i] != nil || gerrs[i] != nil {
					t.Fatalf("packet %d: errs inline=%v park=%v", i, werrs[i], gerrs[i])
				}
				if got[i] != want[i] {
					t.Fatalf("packet %d: park %+v != inline %+v", i, got[i], want[i])
				}
			}
			// VSwitchStats must match exactly. Tier-internal lookup/miss
			// counters are probe-effort counters and legitimately differ:
			// a follower probes the caches twice (once parking, once on
			// replay) where the inline batch probed once.
			if ps, is := pkVS.Stats(), inVS.Stats(); ps != is {
				t.Errorf("VSwitchStats diverge: park %+v, inline %+v", ps, is)
			}
			if ph, ih := pkVS.Microflow().Stats().Hits, inVS.Microflow().Stats().Hits; ph != ih {
				t.Errorf("microflow hits diverge: park %d, inline %d", ph, ih)
			}
		})
	}
}

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
