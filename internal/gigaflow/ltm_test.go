package gigaflow

import (
	"math/rand"
	"reflect"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// buildChainPipeline constructs the canonical 3-stage pipeline used across
// these tests, with fully disjoint per-table field sets:
//
//	t0 (L2):  eth_dst exact          -> t1
//	t1 (L3):  ip_dst /24 prefixes    -> t2
//	t2 (L4):  tp_src exact           -> output
func buildChainPipeline() *pipeline.Pipeline {
	p := pipeline.New("chain")
	p.AddTable(0, "l2", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(1, "l3", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(2, "l4", flow.NewFieldSet(flow.FieldTpSrc))
	p.MustAddRule(0, flow.MustParseMatch("eth_dst=00:00:00:00:00:01"), 10, nil, 1)
	p.MustAddRule(0, flow.MustParseMatch("eth_dst=00:00:00:00:00:02"), 10, nil, 1)
	p.MustAddRule(1, flow.MustParseMatch("ip_dst=10.0.0.0/24"), 10, nil, 2)
	p.MustAddRule(1, flow.MustParseMatch("ip_dst=10.1.0.0/24"), 10, nil, 2)
	p.MustAddRule(2, flow.MustParseMatch("tp_src=1000"), 10, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	p.MustAddRule(2, flow.MustParseMatch("tp_src=2000"), 10, []flow.Action{flow.Output(2)}, pipeline.NoTable)
	return p
}

// lookup runs one counted lookup as a batch of one and reports it with
// its matched path.
func lookup(c *Cache, k flow.Key, now int64) Result {
	b := c.BatchLookup()
	defer b.Flush()
	return b.Lookup(k, now)
}

// tableIndex reports which LTM table holds e, or -1 for an entry not
// currently installed — never installed, or since evicted, expired,
// revoked or replaced.
func tableIndex(e *Entry) int {
	if e.table == nil {
		return -1
	}
	return e.table.idx
}

func chainKey(mac, ipLow, sport uint64) flow.Key {
	return flow.Key{}.
		With(flow.FieldEthDst, mac).
		With(flow.FieldIPDst, 0x0a000000|ipLow).
		With(flow.FieldTpSrc, sport)
}

func TestInsertAndExactHit(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	k := chainKey(1, 5, 1000)
	tr := p.MustProcess(k)
	entries, err := c.Insert(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("installed %d entries, want 3 (disjoint singletons)", len(entries))
	}
	res := lookup(c, k, 1)
	if !res.Hit {
		t.Fatal("expected hit")
	}
	if res.Verdict != tr.Verdict {
		t.Errorf("verdict %v, want %v", res.Verdict, tr.Verdict)
	}
	if res.Final != tr.FinalKey() {
		t.Errorf("final %s, want %s", res.Final, tr.FinalKey())
	}
	if len(res.Path) != 3 {
		t.Errorf("path length %d", len(res.Path))
	}
	st := c.Stats()
	if st.Hits != 1 || st.InsertedTraversals != 1 || st.EntriesCreated != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWildcardHitWithinMegaflow(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	// Different host in the same /24: every sub-traversal is shared.
	res := lookup(c, chainKey(1, 77, 1000), 1)
	if !res.Hit || res.Verdict.Port != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCrossProductPurplePath(t *testing.T) {
	// The Fig. 5c property: flows A and B install sub-traversals; a NEW
	// flow combining A's L3 segment with B's L4 segment hits the cache
	// without ever visiting the slowpath.
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	a := chainKey(1, 5, 1000)         // mac 1, 10.0.0/24, out 1
	b := chainKey(2, 0x10000+5, 2000) // mac 2, 10.1.0/24, out 2
	c.Insert(p.MustProcess(a), 0)
	c.Insert(p.MustProcess(b), 0)

	purple := chainKey(1, 0x10000+99, 2000) // A's MAC, B's /24, B's port
	res := lookup(c, purple, 1)
	if !res.Hit {
		t.Fatal("cross-product flow must hit")
	}
	if res.Verdict.Port != 2 {
		t.Errorf("verdict = %v", res.Verdict)
	}
	// And it must agree exactly with the slowpath.
	tr := p.MustProcess(purple)
	if res.Verdict != tr.Verdict || res.Final != tr.FinalKey() {
		t.Errorf("cache %v/%s, slowpath %v/%s", res.Verdict, res.Final, tr.Verdict, tr.FinalKey())
	}
	// All four MAC × subnet × port combinations consistent with the rules
	// are now covered by only 6 entries (vs 4 megaflow entries for 4 flows,
	// growing multiplicatively).
	if c.Len() != 6 {
		t.Errorf("entries = %d, want 6", c.Len())
	}
	if got := c.Coverage(); got != 8 {
		t.Errorf("coverage = %d, want 2*2*2 = 8", got)
	}
}

func TestSharedSubTraversalReuse(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	before := c.Len()
	// Same MAC and same /24, different port: shares 2 of 3 sub-traversals.
	c.Insert(p.MustProcess(chainKey(1, 6, 2000)), 0)
	if c.Len() != before+1 {
		t.Fatalf("len went %d -> %d, want +1", before, c.Len())
	}
	st := c.Stats()
	if st.SharedReuse != 2 {
		t.Errorf("SharedReuse = %d, want 2", st.SharedReuse)
	}
	// The shared entries' install counters reflect both parents (Fig. 11).
	shared := 0
	for _, e := range c.AllEntries() {
		if e.Installs == 2 {
			shared++
		}
	}
	if shared != 2 {
		t.Errorf("entries with Installs=2: %d, want 2", shared)
	}
}

func TestLTMPicksLongestSpan(t *testing.T) {
	// Two overlapping entries in GF0 with ρ=3 (terminal) and ρ=2: LTM must
	// choose ρ=3 and finish in one table.
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	a := chainKey(1, 5, 1000)
	tr := p.MustProcess(a)
	if _, err := c.insertPartition(tr, Partition{{0, 2}, {2, 3}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	tr2 := p.MustProcess(chainKey(1, 6, 1000))
	if _, err := c.insertPartition(tr2, Partition{{0, 3}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	res := lookup(c, chainKey(1, 7, 1000), 1)
	if !res.Hit || res.Verdict.Port != 1 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Path) != 1 || res.Path[0].Priority != 3 {
		t.Fatalf("LTM chose path %v, want single ρ=3 entry", res.Path)
	}
}

func TestTagSkipAcrossTables(t *testing.T) {
	// A matches a ρ=2 entry in GF0 ending with tag 2; GF1 holds no tag-2
	// entry that matches, but GF2 does (installed by a 3-segment flow).
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})

	a := p.MustProcess(chainKey(1, 5, 1000))
	if _, err := c.insertPartition(a, Partition{{0, 1}, {1, 2}, {2, 3}}, 0, 0); err != nil {
		t.Fatal(err) // A's tp_src=1000 segment lands in GF2 with tag 2
	}
	b := p.MustProcess(chainKey(1, 6, 2000))
	if _, err := c.insertPartition(b, Partition{{0, 2}, {2, 3}}, 0, 0); err != nil {
		t.Fatal(err) // B's [L2,L3] segment (ρ=2) in GF0, tp_src=2000 in GF1
	}

	// X matches B's ρ=2 GF0 entry (beats A's ρ=1), then misses B's GF1
	// entry (tp_src differs), and must skip to A's GF2 entry via the tag.
	x := chainKey(1, 9, 1000)
	res := lookup(c, x, 1)
	if !res.Hit || res.Verdict.Port != 1 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Path) != 2 {
		t.Fatalf("path = %v, want GF0 + GF2", res.Path)
	}
	if res.Path[0].Priority != 2 || res.Path[1].Tag != 2 {
		t.Errorf("unexpected path entries: %v", res.Path)
	}
	// Consistency with slowpath.
	tr := p.MustProcess(x)
	if res.Verdict != tr.Verdict || res.Final != tr.FinalKey() {
		t.Error("tag-skip hit diverges from slowpath")
	}
}

func TestStallIsAMiss(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	b := p.MustProcess(chainKey(1, 6, 2000))
	if _, err := c.insertPartition(b, Partition{{0, 2}, {2, 3}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Matches B's GF0 segment but nothing completes the chain.
	res := lookup(c, chainKey(1, 9, 1000), 1)
	if res.Hit {
		t.Fatal("stalled chain must be a miss")
	}
	if len(res.Path) != 1 {
		t.Errorf("path = %v", res.Path)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Stalls != 1 {
		t.Errorf("stats = %+v", st)
	}

	// The stall continues at pipeline table 2, in GF1, two steps in: the
	// suffix walked from there and installed there completes the chain.
	x := chainKey(1, 9, 1000)
	var final flow.Key
	if _, hit := c.Find(&x, 2, &final); hit {
		t.Fatal("stalled chain must be a miss")
	}
	next, table, span := c.Stall()
	if next != 2 || table != 1 || span != 2 || final != x {
		t.Fatalf("Stall() = %d, %d, %d with key %s; want 2, 1, 2 with %s", next, table, span, final, x)
	}
	var suffix pipeline.Traversal
	if err := p.ProcessPartialInto(&suffix, next, &final, p.MaxSteps-span); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Install(&suffix, table, 3); !ok {
		t.Fatal("the suffix did not go in")
	}
	res = lookup(c, x, 4)
	if full := p.MustProcess(x); !res.Hit || len(res.Path) != 2 || tableIndex(res.Path[1]) != 1 ||
		res.Verdict != full.Verdict || res.Final != full.FinalKey() {
		t.Fatalf("after the suffix install: %+v; the walk says %v, %s", res, full.Verdict, full.FinalKey())
	}
	if _, _, span := c.Stall(); span != 0 {
		t.Errorf("a hit reports a stall spanning %d tables", span)
	}

	// Adaptive mode places no suffix.
	c = New(p, Config{NumTables: 3, TableCapacity: 16, Adaptive: true})
	if _, err := c.insertPartition(b, Partition{{0, 2}, {2, 3}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if lookup(c, x, 1).Hit {
		t.Fatal("stalled chain must be a miss")
	}
	if _, _, span := c.Stall(); span != 0 {
		t.Errorf("adaptive mode reports a stall spanning %d tables", span)
	}
}

func TestMissLeavesNoTrace(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	res := lookup(c, chainKey(1, 5, 1000), 0)
	if res.Hit || len(res.Path) != 0 {
		t.Fatalf("res = %+v", res)
	}
	if c.Stats().Misses != 1 || c.Stats().Stalls != 0 {
		t.Errorf("stats = %+v", c.Stats())
	}
	if _, _, span := c.Stall(); span != 0 {
		t.Errorf("a miss that matched nothing reports a stall spanning %d tables", span)
	}
}

func TestLRUEviction(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 1})
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	// New traversal with different entries everywhere: evicts all three.
	c.Insert(p.MustProcess(chainKey(2, 0x10000+5, 2000)), 1)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Stats().EvictLRU != 3 {
		t.Errorf("EvictLRU = %d", c.Stats().EvictLRU)
	}
	if res := lookup(c, chainKey(1, 5, 1000), 2); res.Hit {
		t.Error("evicted flow still hits")
	}
	if res := lookup(c, chainKey(2, 0x10000+5, 2000), 2); !res.Hit {
		t.Error("new flow should hit")
	}
}

func TestExpireIdleSelective(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	c.Insert(p.MustProcess(chainKey(1, 6, 2000)), 0) // shares GF0+GF1
	// Keep the first flow's chain warm.
	lookup(c, chainKey(1, 5, 1000), 100)
	// Only the tp_src=2000 sub-traversal is stale: selective eviction.
	n := c.ExpireIdle(150, 100)
	if n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if res := lookup(c, chainKey(1, 5, 1000), 151); !res.Hit {
		t.Error("warm chain must survive")
	}
	if res := lookup(c, chainKey(1, 6, 2000), 151); res.Hit {
		t.Error("stale sub-traversal should be gone")
	}
}

func TestRevalidationSelective(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	c.Insert(p.MustProcess(chainKey(1, 6, 2000)), 0)
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}

	// Clean revalidation: version fast-path, no work.
	ev, work := c.Revalidate()
	if ev != 0 || work != 0 {
		t.Fatalf("clean reval: ev=%d work=%d", ev, work)
	}

	// Change the tp_src=2000 rule's action: only that sub-traversal dies.
	var target *pipeline.Rule
	for _, r := range p.Table(2).Rules() {
		if r.Match.Key.Get(flow.FieldTpSrc) == 2000 {
			target = r
		}
	}
	p.DeleteRule(target)
	p.MustAddRule(2, flow.MustParseMatch("tp_src=2000"), 10, []flow.Action{flow.Output(9)}, pipeline.NoTable)

	ev, work = c.Revalidate()
	if ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if work == 0 {
		t.Error("revalidation must do work after a version bump")
	}
	if res := lookup(c, chainKey(1, 5, 1000), 0); !res.Hit || res.Verdict.Port != 1 {
		t.Error("unaffected chain must survive")
	}
	if res := lookup(c, chainKey(1, 6, 2000), 0); res.Hit {
		t.Error("stale chain must not hit")
	}
	// Reinsert after slowpath reprocessing: new verdict visible.
	c.Insert(p.MustProcess(chainKey(1, 6, 2000)), 1)
	if res := lookup(c, chainKey(1, 6, 2000), 0); !res.Hit || res.Verdict.Port != 9 {
		t.Errorf("res = %+v", res)
	}
}

func TestRevalidationCheaperThanFullReplay(t *testing.T) {
	// Gigaflow revalidates per sub-traversal: total work for one traversal
	// split into 3 singletons is the same 3 lookups, but shared segments
	// are validated once. Insert two flows sharing 2 segments: megaflow
	// would replay 3+3 = 6 table lookups; gigaflow replays 4 (the §6.3.6
	// 2× claim at scale).
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	c.Insert(p.MustProcess(chainKey(1, 6, 2000)), 0)
	// Force re-stamping by bumping the version with an unrelated rule.
	p.MustAddRule(0, flow.MustParseMatch("eth_dst=00:00:00:00:00:42"), 10, nil, 1)
	_, work := c.Revalidate()
	if work != 4 {
		t.Errorf("revalidation work = %d, want 4 (one per cached entry)", work)
	}
}

func TestCoverageGrowsMultiplicatively(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 64})
	// 2 MACs × 2 subnets × 2 ports = 8 distinct traversal paths, but only
	// insert 4 flows covering each rule at least once.
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	c.Insert(p.MustProcess(chainKey(2, 5, 1000)), 0)
	c.Insert(p.MustProcess(chainKey(1, 0x10000+5, 2000)), 0)
	c.Insert(p.MustProcess(chainKey(1, 5, 2000)), 0)
	if got := c.Coverage(); got != 8 {
		t.Errorf("coverage = %d, want 8", got)
	}
	if c.Len() != 6 {
		t.Errorf("entries = %d, want 6", c.Len())
	}
	// Every covered combination must actually hit.
	hits := 0
	for _, mac := range []uint64{1, 2} {
		for _, ip := range []uint64{7, 0x10000 + 7} {
			for _, port := range []uint64{1000, 2000} {
				if res := lookup(c, chainKey(mac, ip, port), 0); res.Hit {
					hits++
				}
			}
		}
	}
	if hits != 8 {
		t.Errorf("realised coverage = %d of 8", hits)
	}
}

func TestCoverageEmptyAndMegaflowEquivalent(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 1, TableCapacity: 64})
	if c.Coverage() != 0 {
		t.Error("empty cache coverage must be 0")
	}
	// K=1 behaves like Megaflow: coverage == entry count.
	c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	c.Insert(p.MustProcess(chainKey(2, 0x10000+5, 2000)), 0)
	if got := c.Coverage(); got != 2 {
		t.Errorf("K=1 coverage = %d, want 2", got)
	}
}

func TestHitSoundnessRandomized(t *testing.T) {
	// THE correctness property: any cache hit — including cross-product
	// chains never seen by the slowpath — must agree exactly with the
	// pipeline on verdict and final key.
	rng := rand.New(rand.NewSource(5))
	p := buildRandomPipeline(rng)
	for _, scheme := range []Scheme{SchemeDisjoint, SchemeRandom} {
		c := New(p, Config{NumTables: 4, TableCapacity: 4096, Scheme: scheme, Seed: 9})
		for i := 0; i < 1500; i++ {
			k := randomChainKey(rng)
			if res := lookup(c, k, int64(i)); res.Hit {
				tr := p.MustProcess(k)
				if res.Verdict != tr.Verdict || res.Final != tr.FinalKey() {
					t.Fatalf("scheme %v: hit diverges for %s: cache %v/%s slow %v/%s",
						scheme, k, res.Verdict, res.Final, tr.Verdict, tr.FinalKey())
				}
			} else {
				tr := p.MustProcess(k)
				c.Insert(tr, int64(i))
			}
		}
		if c.Stats().Hits == 0 {
			t.Fatalf("scheme %v: degenerate test, no hits", scheme)
		}
	}
}

// buildRandomPipeline creates a 5-table pipeline with rewrites and varied
// field sets for the soundness fuzz test.
func buildRandomPipeline(rng *rand.Rand) *pipeline.Pipeline {
	p := pipeline.New("fuzz")
	p.AddTable(0, "port", flow.NewFieldSet(flow.FieldInPort))
	p.AddTable(1, "l2", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(2, "l3", flow.NewFieldSet(flow.FieldEthType, flow.FieldIPDst))
	p.AddTable(3, "l3src", flow.NewFieldSet(flow.FieldIPSrc))
	p.AddTable(4, "acl", flow.NewFieldSet(flow.FieldIPProto, flow.FieldTpDst))
	for v := 0; v < 4; v++ {
		p.MustAddRule(0, flow.MatchAll().WithField(flow.FieldInPort, uint64(v)), 10, nil, 1)
		var acts []flow.Action
		if v%2 == 0 {
			acts = append(acts, flow.SetField(flow.FieldEthSrc, uint64(0xee00+v)))
		}
		p.MustAddRule(1, flow.MatchAll().WithField(flow.FieldEthDst, uint64(v)), 10, acts, 2)
		m := flow.MatchAll().WithField(flow.FieldEthType, 0x0800).
			WithMaskedField(flow.FieldIPDst, uint64(v)<<24, flow.PrefixMask(flow.FieldIPDst, 8))
		p.MustAddRule(2, m, 10, []flow.Action{flow.SetField(flow.FieldEthDst, uint64(0xdd00+v))}, 3)
		ms := flow.MatchAll().WithMaskedField(flow.FieldIPSrc, uint64(v)<<24, flow.PrefixMask(flow.FieldIPSrc, 8))
		p.MustAddRule(3, ms, 10, nil, 4)
		p.MustAddRule(4, flow.MatchAll().WithField(flow.FieldIPProto, 6).WithField(flow.FieldTpDst, uint64(80+v)), 10,
			[]flow.Action{flow.Output(uint16(v))}, pipeline.NoTable)
	}
	p.SetMiss(4, pipeline.NoTable, flow.Drop())
	return p
}

func randomChainKey(rng *rand.Rand) flow.Key {
	return flow.Key{}.
		With(flow.FieldInPort, uint64(rng.Intn(4))).
		With(flow.FieldEthDst, uint64(rng.Intn(4))).
		With(flow.FieldEthType, 0x0800).
		With(flow.FieldIPDst, uint64(rng.Intn(4))<<24|uint64(rng.Intn(8))).
		With(flow.FieldIPSrc, uint64(rng.Intn(4))<<24).
		With(flow.FieldIPProto, 6).
		With(flow.FieldTpDst, uint64(80+rng.Intn(5)))
}

func TestBadConfigPanics(t *testing.T) {
	p := buildChainPipeline()
	defer func() {
		if recover() == nil {
			t.Error("bad config must panic")
		}
	}()
	New(p, Config{NumTables: 0, TableCapacity: 8})
}

func TestEntryString(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 16})
	entries, _ := c.Insert(p.MustProcess(chainKey(1, 5, 1000)), 0)
	for _, e := range entries {
		if e.String() == "" {
			t.Error("empty entry string")
		}
	}
	if c.tables[0].count != 1 || c.Capacity() != 48 || c.NumTables() != 3 {
		t.Error("accessors wrong")
	}
	if len(c.Entries(0)) != 1 {
		t.Error("Entries(0) wrong")
	}
	if c.cfg.TableCapacity != 16 {
		t.Error("Config() wrong")
	}
}

// chainPipelineWithIDs is buildChainPipeline with the three tables
// registered under arbitrary IDs.
func chainPipelineWithIDs(l2, l3, l4 int) *pipeline.Pipeline {
	p := pipeline.New("chain")
	p.AddTable(l2, "l2", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(l3, "l3", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(l4, "l4", flow.NewFieldSet(flow.FieldTpSrc))
	p.MustAddRule(l2, flow.MustParseMatch("eth_dst=00:00:00:00:00:01"), 10, nil, l3)
	p.MustAddRule(l2, flow.MustParseMatch("eth_dst=00:00:00:00:00:02"), 10, nil, l3)
	p.MustAddRule(l3, flow.MustParseMatch("ip_dst=10.0.0.0/24"), 10, nil, l4)
	p.MustAddRule(l3, flow.MustParseMatch("ip_dst=10.1.0.0/24"), 10, nil, l4)
	p.MustAddRule(l4, flow.MustParseMatch("tp_src=1000"), 10, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	p.MustAddRule(l4, flow.MustParseMatch("tp_src=2000"), 10, []flow.Action{flow.Output(2)}, pipeline.NoTable)
	return p
}

// Table IDs are arbitrary ints (AddTable and ofp.Load accept any), so the
// cache must behave the same whatever they are: a negative, a huge and a
// beyond-32-bit ID give exactly the results, counters and occupancy of
// 0/1/2, through install, hit, miss, expiry and revalidation — and in no
// more memory (a tag-indexed slice would need 50M slots here).
func TestArbitraryTableIDs(t *testing.T) {
	type outcome struct {
		results  []Result
		stats    Stats
		tables   []TableSnapshot
		coverage uint64
		expired  int
		revoked  int
	}
	run := func(l2, l3, l4 int) outcome {
		p := chainPipelineWithIDs(l2, l3, l4)
		c := New(p, Config{NumTables: 3, TableCapacity: 4})
		var o outcome
		now := int64(0)
		for _, mac := range []uint64{1, 2, 3} {
			for _, ip := range []uint64{5, 0x10005} {
				for _, sport := range []uint64{1000, 2000} {
					now++
					k := chainKey(mac, ip, sport)
					r := lookup(c, k, now)
					if tr := p.MustProcess(k); !r.Hit && tr.Verdict.Terminal() {
						if _, err := c.Insert(tr, now); err != nil {
							t.Fatalf("ids %d/%d/%d: insert: %v", l2, l3, l4, err)
						}
					}
					r.Path = nil // entry pointers differ between runs
					o.results = append(o.results, r)
				}
			}
		}
		o.coverage = c.Coverage()
		o.expired = c.ExpireIdle(now, 6)
		p.MustAddRule(l3, flow.MustParseMatch("ip_dst=10.0.0.0/25"), 20, nil, l4)
		o.revoked, _ = c.Revalidate()
		o.stats = c.Stats()
		for i := 0; i < c.NumTables(); i++ {
			o.tables = append(o.tables, c.TableSnapshot(i))
			if n := len(c.tables[i].bySlot); n > 3 {
				t.Errorf("ids %d/%d/%d: table %d holds %d classifier slots for 3 tags", l2, l3, l4, i, n)
			}
		}
		return o
	}
	want := run(0, 1, 2)
	if want.stats.Hits == 0 || want.expired == 0 || want.revoked == 0 {
		t.Fatalf("baseline exercises too little: %+v expired %d revoked %d", want.stats, want.expired, want.revoked)
	}
	for _, ids := range [][3]int{{-5, 50_000_000, 1 << 40}, {7, -1 << 40, 3}} {
		got := run(ids[0], ids[1], ids[2])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ids %v:\n got %+v\nwant %+v", ids, got, want)
		}
	}
}

// A holder of an entry pointer — a hit path that is about to be
// invalidated, a trace — may outlive the entry's residency. Removing such
// a stale entry must touch nothing: not the live entry that has since
// taken over its predicate, not the LRU list, not the counters. Before
// remove checked identity, the stale Remove deleted the replacement from
// the classifier but left it on the LRU list as a ghost; every later
// eviction then "removed" the ghost without effect, and a 2-entry table
// grew without bound.
func TestStaleRemoveLeavesReplacementAlone(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 1, TableCapacity: 2})
	insert := func(k flow.Key, now int64) *Entry {
		t.Helper()
		es, err := c.Insert(p.MustProcess(k), now)
		if err != nil || len(es) != 1 {
			t.Fatalf("Insert(%s) = %v, %v", k, es, err)
		}
		return es[0]
	}
	a, b, d := chainKey(1, 5, 1000), chainKey(2, 5, 1000), chainKey(1, 0x10005, 2000)
	stale := insert(a, 1)
	if tableIndex(stale) != 0 {
		t.Fatalf("resident entry reports table %d", tableIndex(stale))
	}
	insert(b, 2)
	insert(d, 3) // table full: evicts a's entry, the LRU tail
	if tableIndex(stale) != -1 {
		t.Fatalf("evicted entry still reports table %d, want -1", tableIndex(stale))
	}
	if lookup(c, a, 4).Hit {
		t.Fatal("a's entry should be gone")
	}
	live := insert(a, 5) // the same predicate again, a fresh entry (evicts b's)
	if live == stale {
		t.Fatal("test needs a fresh entry for the re-installed predicate")
	}
	before := c.Stats()

	c.Remove(stale)

	if got := c.Stats(); got != before {
		t.Errorf("stale Remove moved the counters:\n got %+v\nwant %+v", got, before)
	}
	if tableIndex(live) != 0 || !lookup(c, a, 6).Hit {
		t.Error("stale Remove took the live replacement out of the table")
	}
	// The table must keep evicting for real.
	for i := int64(0); i < 8; i++ {
		insert(chainKey(1+uint64(i%2), 5+uint64(i%3)<<16, 1000+1000*uint64(i%2)), 10+i)
		if c.Len() > 2 {
			t.Fatalf("after %d more installs the 2-entry table holds %d entries", i+1, c.Len())
		}
	}
	s := c.Stats()
	if resident := s.EntriesCreated - s.EvictLRU - s.CtInvalid; resident != uint64(c.Len()) {
		t.Errorf("%d created − %d evicted − %d invalidated ≠ %d resident", s.EntriesCreated, s.EvictLRU, s.CtInvalid, c.Len())
	}

	// The same holds for an entry that left through Remove itself, through
	// expiry and through revalidation.
	live = insert(a, 50)
	c.Remove(live)
	c.Remove(live)
	if c.Stats().CtInvalid != 1 || tableIndex(live) != -1 {
		t.Errorf("double Remove: CtInvalid %d, table %d", c.Stats().CtInvalid, tableIndex(live))
	}
	gone := c.AllEntries()
	if n := c.ExpireIdle(1000, 1); n != len(gone) {
		t.Fatalf("ExpireIdle removed %d of %d", n, len(gone))
	}
	for _, e := range gone {
		if tableIndex(e) != -1 {
			t.Errorf("expired entry reports table %d", tableIndex(e))
		}
		c.Remove(e)
	}
	if c.Stats().CtInvalid != 1 || c.Len() != 0 {
		t.Errorf("Remove of expired entries: CtInvalid %d, Len %d", c.Stats().CtInvalid, c.Len())
	}
	revoked := insert(a, 2000)
	p.MustAddRule(0, flow.MustParseMatch("eth_dst=00:00:00:00:00:01"), 20, []flow.Action{flow.Drop()}, pipeline.NoTable)
	if n, _ := c.Revalidate(); n != 1 || tableIndex(revoked) != -1 {
		t.Errorf("Revalidate revoked %d, entry reports table %d", n, tableIndex(revoked))
	}
}
