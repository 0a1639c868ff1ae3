package gigaflow

import (
	"fmt"
	"testing"

	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/telemetry"
)

// Both main caches are drop-ins behind the datapath's one interface.
var (
	_ backend = (*gfcache.Cache)(nil)
	_ backend = (*megaflow.Cache)(nil)
)

// replayOutcome is everything one replay of a tape leaves behind that
// another replay of the same tape must reproduce.
type replayOutcome struct {
	results []ProcessResult
	stats   VSwitchStats
	main    any // the backend's Stats
	uf      any // microflow Stats, nil without the tier
	ct      any // conntrack Stats, nil without tracking
	seq     uint64
	hist    [telemetry.NumTiers]uint64
	flight  []telemetry.FlightRecord // newest first; identity fields only
}

// thrashPrefix is three observation windows of a 32-entry Microflow tier
// (4 096 packets each, the policy's floor) round robin over four
// capacities of flows: the first closes without a hit and the tier
// bypasses for the other two (DESIGN.md §10.3).
func thrashPrefix() []Key {
	keys := make([]Key, 3*4096)
	for i := range keys {
		keys[i] = demoKey(uint64(i%64), []uint64{80, 22}[i/64%2])
	}
	return keys
}

// TestProcessBatchMatchesSequential drives the same tape through the
// switch one packet at a time (ProcessMeta) and in mixed-size batches
// (ProcessBatchMeta), each with the tracer off and with every packet
// traced, across backend × microflow tier × conntrack (the stateful tape,
// TCP flags and idle sweeps included) × latency recorder. Per-packet
// results, errors, and every counter — VSwitch, main cache, microflow,
// conntrack — must be identical on all four replays: batching amortizes
// bookkeeping and tracing observes, neither may change behaviour. So must
// what the recorder logs: the same number of flight records, carrying the
// same tier, flow id and outcome flags packet for packet whether or not
// the sampler picked them, and the same per-tier histogram counts (traced
// packets are kept out of the histograms by design, so the every-packet
// replays must leave them empty).
func TestProcessBatchMatchesSequential(t *testing.T) {
	// Mixed stateless traffic: flows revisited at once (microflow hits),
	// fresh flows of cached megaflows (main-cache hits), and cold flows
	// (slowpath). More flows than the microflow tier holds, visited in a
	// cycle, force LRU churn too. Ahead of them, thrashPrefix: every
	// replay crosses into the tier's bypass and out of it in mid-batch,
	// and the mixed traffic arrives at a tier that has just come back.
	var demoTape []ctEvent
	for _, k := range thrashPrefix() {
		demoTape = append(demoTape, ctEvent{k: k, now: int64(len(demoTape))})
	}
	for i, ports := 0, []uint64{80, 22}; i < 300; i++ {
		demoTape = append(demoTape, ctEvent{k: demoKey(uint64(i/2*7%41), ports[i/2%2]), now: int64(len(demoTape))})
	}
	const maxIdle = 500_000
	ctTape := statefulTape(t, 24, 3000, maxIdle)
	sizes := []int{1, 7, 32, 3, 64, 5, 2, 100}

	run := func(t *testing.T, backend string, uf int, ct, recorded bool) {
		tape, pipe := demoTape, buildDemoPipeline
		if ct {
			tape, pipe = ctTape, statefulPipeline
		}
		replay := func(batched, traced bool) replayOutcome {
			opts := []VSwitchOption{WithMaxIdle(maxIdle)}
			if uf > 0 {
				opts = append(opts, WithMicroflow(uf))
			}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(128))
			}
			if ct {
				opts = append(opts, WithConntrack(0), WithConntrackMaxIdle(maxIdle))
			}
			if traced {
				opts = append(opts, WithTracer(telemetry.NewTracer(1, 16)))
			}
			if recorded {
				opts = append(opts, WithLatencyRecorder(telemetry.NewLatencyRecorder(len(tape), 0)))
			}
			vs := NewVSwitch(pipe(), CacheConfig{NumTables: 4, TableCapacity: 64}, opts...)
			keys := make([]Key, len(tape))
			flags := make([]uint8, len(tape))
			for i, ev := range tape {
				keys[i], flags[i] = ev.k, ev.flags
			}
			out := make([]ProcessResult, len(tape))
			errs := make([]error, len(tape))
			vs.ProcessBatchMeta(nil, nil, nil, nil, 0) // empty batch: no-op
			eachBatch(tape, sizes, func(lo, hi int, now int64, sweep bool) {
				if sweep {
					vs.ExpireIdle(now)
				}
				if batched {
					vs.ProcessBatchMeta(keys[lo:hi], flags[lo:hi], out[lo:hi], errs[lo:hi], now)
					return
				}
				for i := lo; i < hi; i++ {
					out[i], errs[i] = vs.ProcessMeta(keys[i], flags[i], now)
				}
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
			}
			o := replayOutcome{results: out, stats: vs.Stats()}
			if c := vs.Cache(); c != nil {
				o.main = c.Stats()
			} else {
				o.main = vs.Megaflow().Stats()
			}
			if vs.Microflow() != nil {
				o.uf = vs.Microflow().Stats()
			}
			if ct {
				o.ct = vs.Conntrack().Stats()
			}
			if rec := vs.Recorder(); rec != nil {
				o.seq = rec.Seq()
				for tier := range o.hist {
					o.hist[tier] = rec.Histogram(telemetry.Tier(tier)).Count()
				}
				// A record's identity: which tier resolved which
				// flow and how. When it was stamped, and whether
				// exactly or as a run estimate, is the replay's own.
				for _, r := range rec.Recent(0) {
					o.flight = append(o.flight, telemetry.FlightRecord{Tier: r.Tier, KeyHash: r.KeyHash,
						Flags: r.Flags &^ (telemetry.FlightTraced | telemetry.FlightEstimated)})
				}
			}
			return o
		}

		want := replay(false, false)
		if want.stats.MicroflowHits == 0 && uf > 0 || want.stats.CacheHits == 0 || want.stats.CacheMisses == 0 {
			t.Fatalf("tape does not reach every tier: %+v", want.stats)
		}
		if uf > 0 && !ct && want.uf.(microflow.Stats).Bypassed != 2*4096 {
			t.Fatalf("tape does not take the microflow tier through a bypass period: %+v", want.uf)
		}
		if recorded && want.seq != uint64(len(tape)) {
			t.Fatalf("%d flight records for %d packets", want.seq, len(tape))
		}
		for _, mode := range []struct{ batched, traced bool }{{true, false}, {false, true}, {true, true}} {
			got := replay(mode.batched, mode.traced)
			label := fmt.Sprintf("batched=%v traced=%v", mode.batched, mode.traced)
			for i := range want.results {
				if got.results[i] != want.results[i] {
					t.Fatalf("%s: packet %d: %+v != sequential %+v", label, i, got.results[i], want.results[i])
				}
			}
			if got.stats != want.stats {
				t.Errorf("%s: VSwitchStats diverge: %+v, sequential %+v", label, got.stats, want.stats)
			}
			if got.main != want.main {
				t.Errorf("%s: %s stats diverge: %+v, sequential %+v", label, backend, got.main, want.main)
			}
			if got.uf != want.uf {
				t.Errorf("%s: microflow stats diverge: %+v, sequential %+v", label, got.uf, want.uf)
			}
			if got.ct != want.ct {
				t.Errorf("%s: conntrack stats diverge: %+v, sequential %+v", label, got.ct, want.ct)
			}
			if got.seq != want.seq {
				t.Errorf("%s: %d flight records, sequential %d", label, got.seq, want.seq)
			}
			wantHist := want.hist
			if mode.traced {
				wantHist = [telemetry.NumTiers]uint64{}
			}
			if got.hist != wantHist {
				t.Errorf("%s: per-tier histogram counts %v, want %v", label, got.hist, wantHist)
			}
			for i := range want.flight {
				if got.flight[i] != want.flight[i] {
					t.Fatalf("%s: flight record %d from newest: %+v, sequential %+v", label, i, got.flight[i], want.flight[i])
				}
			}
		}
	}
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			for _, uf := range []int{0, 32} {
				for _, ct := range []bool{false, true} {
					for _, recorded := range []bool{false, true} {
						t.Run(fmt.Sprintf("uf=%d/ct=%v/rec=%v", uf, ct, recorded), func(t *testing.T) {
							run(t, backend, uf, ct, recorded)
						})
					}
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
			vs.ProcessBatch(keys, out, errs, 0) // install, fill the tier
			before := vs.Stats()
			ufBefore := vs.Microflow().Stats()

			// 101 batches of 128 after the first: the tier's 4 096-packet
			// window closes in the 32nd batch of the tape without a hit,
			// the 8 192 packets after it are declined, and the last 768
			// are memoized again.
			const runs = 100
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
