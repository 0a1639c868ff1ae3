package gigaflow

import (
	"math/rand"
	"sort"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// refTableLookup is the semantic reference for one LTM table probe,
// re-derived from the entry census instead of the classifier's internal
// structures: group the tag's entries into tuples by mask, stage them by
// (max priority desc, mask asc), and walk with the same early exit. It
// must reproduce the winner AND the tuple probe count bit for bit.
func refTableLookup(entries []*Entry, tag int, k flow.Key) (*Entry, int) {
	type tuple struct {
		mask    flow.Mask
		maxPrio int
		entries []*Entry
	}
	byMask := map[flow.Mask]*tuple{}
	var tuples []*tuple
	for _, e := range entries {
		if e.Tag != tag {
			continue
		}
		tp := byMask[e.Match.Mask]
		if tp == nil {
			tp = &tuple{mask: e.Match.Mask, maxPrio: e.Priority}
			byMask[e.Match.Mask] = tp
			tuples = append(tuples, tp)
		} else if e.Priority > tp.maxPrio {
			tp.maxPrio = e.Priority
		}
		tp.entries = append(tp.entries, e)
	}
	sort.Slice(tuples, func(i, j int) bool {
		if tuples[i].maxPrio != tuples[j].maxPrio {
			return tuples[i].maxPrio > tuples[j].maxPrio
		}
		for f := flow.FieldID(0); f < flow.NumFields; f++ {
			if a, b := tuples[i].mask.Get(f), tuples[j].mask.Get(f); a != b {
				return a < b
			}
		}
		return false
	})
	var best *Entry
	probes := 0
	for _, tp := range tuples {
		if best != nil && best.Priority >= tp.maxPrio {
			break
		}
		probes++
		var cand *Entry
		for _, e := range tp.entries {
			if e.Match.MatchesKey(&k) && (cand == nil || e.Priority > cand.Priority) {
				cand = e
			}
		}
		if cand != nil && (best == nil || cand.Priority > best.Priority) {
			best = cand
		}
	}
	return best, probes
}

// refResult mirrors gigaflow.Result with reference-computed probe totals.
type refResult struct {
	hit          bool
	verdict      flow.Verdict
	final        flow.Key
	path         []*Entry
	tupleProbes  uint64
	tablesProbed uint64
}

// refWalk replays the K-table feed-forward walk against per-table entry
// censuses taken before the lookup.
func refWalk(c *Cache, p *pipeline.Pipeline, k flow.Key) refResult {
	var r refResult
	tag := p.Start
	cur := k
	for i := 0; i < c.NumTables(); i++ {
		r.tablesProbed++
		e, probes := refTableLookup(c.Entries(i), tag, cur)
		r.tupleProbes += uint64(probes)
		if e == nil {
			continue
		}
		r.path = append(r.path, e)
		a := e.Action()
		cur, _ = flow.Apply(cur, a.Commit.Actions())
		if a.Terminal {
			r.hit = true
			r.verdict = a.Verdict
			r.final = cur
			return r
		}
		tag = e.NextTag
	}
	return r
}

// diffChainPipeline is a 3-stage pipeline with enough rules per stage that
// partitioned traversals populate every LTM table with multiple tuples.
func diffChainPipeline() *pipeline.Pipeline {
	p := pipeline.New("gf-diff")
	p.AddTable(0, "l2", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(1, "l3", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(2, "l4", flow.NewFieldSet(flow.FieldTpSrc))
	p.MustAddRule(0, flow.MustParseMatch("eth_dst=00:00:00:00:00:01"), 10, nil, 1)
	p.MustAddRule(0, flow.MustParseMatch("eth_dst=00:00:00:00:00:02"), 10, nil, 1)
	p.MustAddRule(1, flow.MustParseMatch("ip_dst=10.0.0.0/24"), 30, nil, 2)
	p.MustAddRule(1, flow.MustParseMatch("ip_dst=10.0.0.0/16"), 20,
		[]flow.Action{flow.SetField(flow.FieldEthSrc, 0x2a)}, 2)
	p.MustAddRule(1, flow.MustParseMatch("ip_dst=10.0.0.0/8"), 10, []flow.Action{flow.Output(7)}, pipeline.NoTable)
	p.MustAddRule(2, flow.MustParseMatch("tp_src=1000"), 10, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	p.MustAddRule(2, flow.MustParseMatch("tp_src=2000"), 10, []flow.Action{flow.Output(2)}, pipeline.NoTable)
	return p
}

func diffChainKey(rng *rand.Rand) flow.Key {
	return flow.Key{}.
		With(flow.FieldEthDst, uint64(1+rng.Intn(3))). // mac 3: drop at l2
		With(flow.FieldIPDst, 0x0a000000|uint64(rng.Intn(3))<<16|uint64(rng.Intn(3))<<8|uint64(rng.Intn(6))).
		With(flow.FieldTpSrc, []uint64{1000, 2000, 3000}[rng.Intn(3)])
}

// TestDifferentialAgainstReferenceWalk drives the Gigaflow backend through
// a randomized lookup/insert workload for K=2 (mixed-span priorities) and
// K=3 (tie-heavy unit priorities) and checks every lookup Result — hit,
// verdict, final key, matched path pointers — and every Stats counter
// against the reference walk. Capacities are sized so nothing is evicted:
// the reference models the live entry set exactly.
func TestDifferentialAgainstReferenceWalk(t *testing.T) {
	for _, numTables := range []int{2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := diffChainPipeline()
			c := New(p, Config{NumTables: numTables, TableCapacity: 1024})
			var shadow Stats
			var now int64
			for step := 0; step < 3000; step++ {
				now++
				k := diffChainKey(rng)
				want := refWalk(c, p, k)
				res := lookup(c, k, now)
				if res.Hit != want.hit {
					t.Fatalf("K=%d seed %d step %d: Lookup(%s).Hit=%v, reference %v",
						numTables, seed, step, k, res.Hit, want.hit)
				}
				if res.Hit && (res.Verdict != want.verdict || res.Final != want.final) {
					t.Fatalf("K=%d seed %d step %d: result (%v,%s), reference (%v,%s)",
						numTables, seed, step, res.Verdict, res.Final, want.verdict, want.final)
				}
				if len(res.Path) != len(want.path) {
					t.Fatalf("K=%d seed %d step %d: path len %d, reference %d",
						numTables, seed, step, len(res.Path), len(want.path))
				}
				for i := range res.Path {
					if res.Path[i] != want.path[i] {
						t.Fatalf("K=%d seed %d step %d: path[%d] = %v, reference %v",
							numTables, seed, step, i, res.Path[i], want.path[i])
					}
				}
				shadow.TablesProbed += want.tablesProbed
				shadow.TupleProbes += want.tupleProbes
				if want.hit {
					shadow.Hits++
				} else {
					shadow.Misses++
					if len(want.path) > 0 {
						shadow.Stalls++
					}
					if tr, err := p.Process(k); err == nil {
						entries, err := c.Insert(tr, now)
						if err != nil {
							t.Fatalf("K=%d seed %d step %d: insert: %v", numTables, seed, step, err)
						}
						shadow.InsertedTraversals++
						for _, e := range entries {
							if e.Created == now && e.Installs == 1 {
								shadow.EntriesCreated++
							} else {
								shadow.SharedReuse++
							}
						}
					}
				}
				if st := c.Stats(); st != shadow {
					t.Fatalf("K=%d seed %d step %d: stats %+v, shadow %+v",
						numTables, seed, step, st, shadow)
				}
			}
			if shadow.Hits == 0 || shadow.SharedReuse == 0 || shadow.Stalls == 0 {
				t.Fatalf("K=%d seed %d: workload too tame: %+v", numTables, seed, shadow)
			}
		}
	}
}
