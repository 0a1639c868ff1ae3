package megaflow

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// diffPipeline builds a 3-table pipeline with overlapping prefixes and a
// default path so every key terminates: the cached megaflows carry
// diverse masks (many TSS tuples) over the flowtable substrate.
func diffPipeline() *pipeline.Pipeline {
	p := pipeline.New("mf-diff")
	p.AddTable(0, "l3", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(1, "proto", flow.NewFieldSet(flow.FieldIPProto))
	p.AddTable(2, "acl", flow.NewFieldSet(flow.FieldTpDst))
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=10.0.0.0/24"), 30,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0x0b)}, 1)
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=10.0.0.0/16"), 20,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0x0c)}, 1)
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=10.0.0.0/8"), 10, nil, 1)
	p.MustAddRule(1, flow.MustParseMatch("ip_proto=6"), 10, nil, 2)
	p.MustAddRule(1, flow.MustParseMatch("ip_proto=17"), 10, []flow.Action{flow.Output(9)}, pipeline.NoTable)
	p.MustAddRule(2, flow.MustParseMatch("tp_dst=80"), 20, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	p.MustAddRule(2, flow.MustParseMatch("tp_dst=443"), 10, []flow.Action{flow.Output(2)}, pipeline.NoTable)
	return p
}

func diffKey(rng *rand.Rand) flow.Key {
	return flow.Key{}.
		With(flow.FieldIPDst, 0x0a000000|uint64(rng.Intn(4))<<16|uint64(rng.Intn(4))<<8|uint64(rng.Intn(8))).
		With(flow.FieldIPProto, []uint64{6, 6, 17}[rng.Intn(3)]).
		With(flow.FieldTpDst, []uint64{80, 443, 8080}[rng.Intn(3)])
}

// scanMatch is the semantic reference for the megaflow backend: a linear
// scan over the cache's resident entries. Entries are pairwise disjoint,
// so a key matches at most one; the scan is independent of the classifier
// substrate (tuple staging, flowtable probing) entirely.
func scanMatch(t *testing.T, entries []*Entry, k flow.Key) *Entry {
	t.Helper()
	var found *Entry
	for _, e := range entries {
		if e.Match.MatchesKey(&k) {
			if found != nil {
				t.Fatalf("disjointness violated: key %s matches %v and %v", k, found.Match, e.Match)
			}
			found = e
		}
	}
	return found
}

// TestDifferentialAgainstLinearScan drives the megaflow backend through a
// randomized lookup/insert/expire workload and checks every observable
// against linear-scan predictions made from the entry set BEFORE each
// operation: hit/miss outcomes, the matched entry identity, the mask
// census, and every Stats counter, bit for bit.
func TestDifferentialAgainstLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := diffPipeline()
		c := New(48)
		var shadow Stats
		var now int64
		for step := 0; step < 4000; step++ {
			now++
			resident := entries(c)
			switch op := rng.Intn(30); {
			case op < 24: // lookup; install the traversal on a miss
				k := diffKey(rng)
				want := scanMatch(t, resident, k)
				e, ok := lookup(c, k, now)
				if ok != (want != nil) || e != want {
					t.Fatalf("seed %d step %d: Lookup(%s) = (%v,%v), linear scan %v",
						seed, step, k, e, ok, want)
				}
				if ok {
					shadow.Hits++
				} else {
					shadow.Misses++
					tr := p.MustProcess(k)
					if len(resident) >= c.capacity {
						shadow.EvictLRU++
					}
					if ent := c.Insert(tr, now); ent == nil {
						t.Fatalf("seed %d step %d: insert rejected with eviction enabled", seed, step)
					}
					shadow.Inserts++
					// The fresh entry must win an immediate re-scan.
					if got := scanMatch(t, entries(c), k); got == nil {
						t.Fatalf("seed %d step %d: inserted megaflow does not cover %s", seed, step, k)
					}
				}
			case op < 29: // re-insert the megaflow of a covered key: Replaced path
				if len(resident) == 0 {
					continue
				}
				parent := resident[rng.Intn(len(resident))].Parent
				tr := p.MustProcess(parent)
				shadow.Replaced++
				shadow.Inserts++
				if ent := c.Insert(tr, now); ent == nil {
					t.Fatalf("seed %d step %d: replacement insert failed", seed, step)
				}
			default: // expire a random idle horizon
				maxIdle := int64(rng.Intn(300))
				want := 0
				for _, e := range resident {
					if now-e.LastHit > maxIdle {
						want++
					}
				}
				if n := c.ExpireIdle(now, maxIdle); n != want {
					t.Fatalf("seed %d step %d: ExpireIdle=%d, linear scan %d", seed, step, n, want)
				}
				shadow.Expired += uint64(want)
			}
			if st := c.Stats(); st != shadow {
				t.Fatalf("seed %d step %d: stats %+v, shadow %+v", seed, step, st, shadow)
			}
			masks := map[flow.Mask]bool{}
			for _, e := range entries(c) {
				masks[e.Match.Mask] = true
			}
			if c.NumMasks() != len(masks) {
				t.Fatalf("seed %d step %d: NumMasks=%d, census %d", seed, step, c.NumMasks(), len(masks))
			}
		}
	}
}
