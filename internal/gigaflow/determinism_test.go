package gigaflow

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSameSeedRunsAreIdentical is the replay-determinism regression test
// behind gflint's detrand check: all cache randomness flows from
// Config.Seed, so two runs of the same workload with the same seed must
// produce bit-for-bit identical statistics and table occupancy.
// SchemeRandom exercises the rng hardest (every insert draws segment
// boundaries), and the tiny table capacity forces LRU evictions so the
// final state depends on the full history, not just the rule set.
func TestSameSeedRunsAreIdentical(t *testing.T) {
	run := func(seed int64) Snapshot {
		p := buildChainPipeline()
		c := New(p, Config{NumTables: 3, TableCapacity: 2, Scheme: SchemeRandom, Seed: seed})
		wl := rand.New(rand.NewSource(7)) // workload generator, fixed across runs
		now := int64(0)
		for i := 0; i < 500; i++ {
			now++
			k := chainKey(
				uint64(1+wl.Intn(2)),
				uint64(wl.Intn(2))<<16|uint64(wl.Intn(100)),
				uint64(1000+1000*wl.Intn(2)),
			)
			if res := lookup(c, k, now); !res.Hit {
				if _, err := c.Insert(p.MustProcess(k), now); err != nil {
					t.Fatalf("insert: %v", err)
				}
			}
		}
		return c.Snapshot()
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed runs diverged:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
	if a.Hits == 0 || a.Misses == 0 {
		t.Errorf("workload too easy to be a regression test: %+v", a.Stats)
	}
}
