package gigaflow

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

// missWorld is the PSC ruleset and a low-locality flow set many times the
// size of the caches TestMissPathAllocBudget runs them through, built once.
var missWorld struct {
	once sync.Once
	err  error
	pw   *pipebench.Workload
	keys []Key
}

func missWorldSetup() {
	spec, _ := pipelines.ByName("PSC")
	cfg := pipebench.PaperConfig(spec, 1)
	cfg.NumChains = 6000
	missWorld.pw, missWorld.err = pipebench.Generate(cfg)
	if missWorld.err != nil {
		return
	}
	for _, f := range missWorld.pw.Flows(traffic.Config{Seed: 1, NumFlows: 6144}, traffic.LowLocality) {
		missWorld.keys = append(missWorld.keys, f.Key)
	}
}

// TestMissPathAllocBudget holds the inline slow path to its allocation
// contract in the steady state — PSC ruleset, every cache tier full, every
// install evicting: a miss allocates at most three objects per cache entry
// it creates (the entry, its commit, and for Megaflow its classifier node);
// a hit allocates nothing, the overflow fallback's lookup of a flow an
// earlier packet installed included. Packets go through ProcessBatchMeta
// one at a time so each one's allocations can be read off the runtime's
// malloc counter. The walk, the partition and the probes run on scratch the
// switch and the cache own; before they did, a miss here cost 30–45
// allocations whatever it installed.
//
// The one thing beyond its entries a miss may pay for is classifier
// growth: an entry whose mask no resident entry shares starts a TSS tuple
// (the tuple, its table and slot array, a map cell, a slot in the probe
// order), and a tuple that fills doubles its table. Rare masks come and go
// under eviction, so a steady state keeps a trickle of these; the test
// lets at most one miss in a hundred exceed the per-entry budget, by no
// more than a tuple's worth, and holds the total to the budget regardless.
//
// The malloc counter is the process's, not the goroutine's — Go has no
// other — so whatever else allocates while a packet is being read lands
// on that packet: a goroutine an earlier test left behind, and the
// runtime's own work around a collection (the unique package's map
// cleanup, the scavenger re-arming its timer, a mark worker starting),
// which can still be finishing a cycle the warm-up started after the
// collector is turned off. A Megaflow miss spends exactly its three
// objects, so that leg's total has no room for one foreign object. The
// product is deterministic, so every packet is read twice, on two
// switches driven identically, and the lesser reading is the packet's: a
// foreign allocation would have to land on both. The fallback's lookup is
// read as the least of five for the same reason, and hits are still held
// only to one allocating hit in a hundred (a hit path that allocates does
// so on every one).
func TestMissPathAllocBudget(t *testing.T) {
	missWorld.once.Do(missWorldSetup)
	if missWorld.err != nil {
		t.Fatal(missWorld.err)
	}
	keys := missWorld.keys
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{WithMicroflow(256)}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(1024))
			}
			created := func(vs *VSwitch) uint64 {
				if c := vs.Cache(); c != nil {
					return c.Stats().EntriesCreated
				}
				return vs.Megaflow().Stats().Inserts
			}
			out := make([]ProcessResult, 64)
			errs := make([]error, 64)
			now := int64(0)
			warm := func() *VSwitch {
				vs := NewVSwitch(missWorld.pw.Pipeline, CacheConfig{NumTables: 4, TableCapacity: 256}, opts...)
				now = 0
				for pass := 0; pass < 2; pass++ { // fill every tier, grow every scratch
					for i := 0; i+64 <= len(keys); i += 64 {
						now++
						vs.ProcessBatchMeta(keys[i:i+64], nil, out, errs, now)
					}
				}
				return vs
			}
			vs, twin := warm(), warm() // the switch under test and its identically-driven twin

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var m0, m1 runtime.MemStats
			// read runs one packet through one switch and reports the
			// objects the process allocated meanwhile, the entries the
			// packet created and whether it missed.
			read := func(vs *VSwitch, k []Key) (allocs, made uint64, miss bool) {
				s0, c0 := vs.Stats(), created(vs)
				runtime.ReadMemStats(&m0)
				vs.ProcessBatchMeta(k, nil, out, errs, now)
				runtime.ReadMemStats(&m1)
				if errs[0] != nil {
					t.Fatal(errs[0])
				}
				return m1.Mallocs - m0.Mallocs, created(vs) - c0, vs.Stats().CacheMisses != s0.CacheMisses
			}
			const tupleWorth = 8
			var misses, shared, grew, entries, allocs, worst, hits, dirtyHits, foreign uint64
			for i := range keys {
				now++
				n, made, miss := read(vs, keys[i:i+1])
				n2, made2, miss2 := read(twin, keys[i:i+1])
				if made2 != made || miss2 != miss {
					t.Fatalf("packet %d: the two switches diverged: %d entries, miss %v; twin %d entries, miss %v",
						i, made, miss, made2, miss2)
				}
				if n != n2 {
					foreign++
					n = min(n, n2)
				}
				if !miss {
					hits++
					if n != 0 {
						dirtyHits++
					}
					continue
				}
				misses++
				entries += made
				allocs += n
				if made == 0 {
					shared++
				}
				if n > worst {
					worst = n
				}
				if n > 3*made {
					grew++
				}
				if n > 3*made+tupleWorth {
					t.Errorf("packet %d: a miss creating %d entries allocated %d objects, budget %d", i, made, n, 3*made)
				}
			}
			if misses < uint64(len(keys))/4 || entries == 0 {
				t.Fatalf("not a miss-heavy steady state: %d misses, %d entries over %d packets", misses, entries, len(keys))
			}
			t.Logf("%d misses (%d all-shared, %d growing a classifier) created %d entries with %d allocations, worst miss %d; %d packets read differently on the two switches",
				misses, shared, grew, entries, allocs, worst, foreign)
			if dirtyHits*100 > hits {
				t.Errorf("%d of %d hits allocated", dirtyHits, hits)
			}
			if allocs > 3*entries || grew*100 > misses {
				t.Errorf("%d misses creating %d entries allocated %d objects (budget %d), %d of them over their own budget (allowed %d)",
					misses, entries, allocs, 3*entries, grew, misses/100)
			}

			// The upcall overflow fallback on a flow an earlier packet of its
			// batch installed: Process, the flow's microflow memo dropped so
			// the main cache answers, finds it resident — a hit that creates
			// and allocates nothing.
			k := keys[len(keys)-1]
			c0, least := created(vs), ^uint64(0)
			for try := 0; try < 5; try++ {
				vs.Microflow().Remove(k)
				s0 := vs.Stats()
				runtime.ReadMemStats(&m0)
				_, err := vs.Process(k, now)
				runtime.ReadMemStats(&m1)
				if err != nil || created(vs) != c0 || vs.Stats().CacheHits != s0.CacheHits+1 {
					t.Fatalf("resident flow: err %v, %d entries created, %+v", err, created(vs)-c0, vs.Stats().Sub(s0))
				}
				if n := m1.Mallocs - m0.Mallocs; n < least {
					least = n
				}
			}
			if least != 0 {
				t.Errorf("the fallback's lookup of a resident flow allocated %d objects, want 0", least)
			}
		})
	}
}
