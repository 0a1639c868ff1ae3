package megaflow

import (
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/tss"
)

// testPipeline builds a 2-table pipeline: L3 routing then ACL.
func testPipeline() *pipeline.Pipeline {
	p := pipeline.New("mf-test")
	p.AddTable(0, "l3", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(1, "acl", flow.NewFieldSet(flow.FieldTpDst))
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=10.0.0.0/24"), 10,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0xbb)}, 1)
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=10.1.0.0/24"), 10,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0xcc)}, 1)
	p.MustAddRule(1, flow.MustParseMatch("tp_dst=80"), 10, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	p.MustAddRule(1, flow.MustParseMatch("tp_dst=443"), 5, []flow.Action{flow.Output(2)}, pipeline.NoTable)
	return p
}

// lookup is one counted lookup, which moves the entry in the LRU.
func lookup(c *Cache, k flow.Key, now int64) (*Entry, bool) {
	return c.lookupStats(&k, now, &c.stats)
}

// peek reports whether k hits, through the classifier alone: no counters,
// no LRU move.
func peek(c *Cache, k flow.Key) bool {
	_, _, ok := c.cls.LookupValue(&k)
	return ok
}

// entries lists the cached entries in unspecified order.
func entries(c *Cache) []*Entry {
	var out []*Entry
	c.cls.Range(func(e *tss.Entry[*Entry]) bool { out = append(out, e.Value); return true })
	return out
}

func key(ipLow, port uint64) flow.Key {
	return flow.Key{}.
		With(flow.FieldIPDst, 0x0a000000|ipLow).
		With(flow.FieldTpDst, port)
}

func TestInsertThenHit(t *testing.T) {
	p := testPipeline()
	c := New(16)
	k := key(5, 80)
	tr := p.MustProcess(k)
	if ent := c.Insert(tr, 0); ent == nil {
		t.Fatal("insert failed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	// Same megaflow, different host in the /24 and same port: must hit.
	e, ok := lookup(c, key(9, 80), 1)
	if !ok {
		t.Fatal("expected wildcard hit")
	}
	final, v := e.Apply(key(9, 80))
	if v.Kind != flow.VerdictOutput || v.Port != 1 {
		t.Fatalf("verdict = %v", v)
	}
	if final.Get(flow.FieldEthDst) != 0xbb {
		t.Error("commit rewrite missing")
	}
	if e.Hits != 1 || e.LastHit != 1 {
		t.Errorf("hit bookkeeping: hits=%d last=%d", e.Hits, e.LastHit)
	}

	// Different port: miss.
	if _, ok := lookup(c, key(5, 8080), 2); ok {
		t.Error("expected miss for different ACL path")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCachedResultMatchesSlowpath(t *testing.T) {
	p := testPipeline()
	c := New(64)
	keys := []flow.Key{key(1, 80), key(2, 443), key(0x100+3, 80), key(4, 9999)}
	for _, k := range keys {
		c.Insert(p.MustProcess(k), 0)
	}
	for _, k := range keys {
		e, ok := lookup(c, k, 0)
		if !ok {
			t.Fatalf("no hit for %s", k)
		}
		final, v := e.Apply(k)
		tr := p.MustProcess(k)
		if v != tr.Verdict || final != tr.FinalKey() {
			t.Fatalf("cache result diverges for %s: %v/%s vs %v/%s", k, v, final, tr.Verdict, tr.FinalKey())
		}
	}
}

func TestReplaceSamePredicate(t *testing.T) {
	p := testPipeline()
	c := New(16)
	c.Insert(p.MustProcess(key(5, 80)), 0)
	c.Insert(p.MustProcess(key(6, 80)), 1) // same /24, same port -> same megaflow
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replacement)", c.Len())
	}
	if c.Stats().Replaced != 1 {
		t.Errorf("Replaced = %d", c.Stats().Replaced)
	}
}

func TestLRUEvictionOnFull(t *testing.T) {
	p := testPipeline()
	c := New(2)
	c.Insert(p.MustProcess(key(1, 80)), 0)   // A
	c.Insert(p.MustProcess(key(1, 443)), 1)  // B
	lookup(c, key(1, 80), 2)                 // touch A; B becomes LRU
	c.Insert(p.MustProcess(key(1, 9999)), 3) // C evicts B
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if ok := peek(c, key(1, 443)); ok {
		t.Error("B should have been evicted")
	}
	if ok := peek(c, key(1, 80)); !ok {
		t.Error("A should survive")
	}
	if c.Stats().EvictLRU != 1 {
		t.Errorf("EvictLRU = %d", c.Stats().EvictLRU)
	}
}

func TestExpireIdle(t *testing.T) {
	p := testPipeline()
	c := New(16)
	c.Insert(p.MustProcess(key(1, 80)), 0)
	c.Insert(p.MustProcess(key(1, 443)), 0)
	lookup(c, key(1, 80), 100) // keep the first entry fresh
	n := c.ExpireIdle(150, 100)
	if n != 1 || c.Len() != 1 {
		t.Fatalf("expired %d, len %d", n, c.Len())
	}
	if ok := peek(c, key(1, 80)); !ok {
		t.Error("fresh entry must survive")
	}
	if c.Stats().Expired != 1 {
		t.Errorf("Expired = %d", c.Stats().Expired)
	}
}

func TestRevalidationEvictsStale(t *testing.T) {
	p := testPipeline()
	c := New(16)
	c.Insert(p.MustProcess(key(1, 80)), 0)
	c.Insert(p.MustProcess(key(1, 443)), 0)

	// No change: nothing evicted, no work (version fast-path).
	ev, work := c.Revalidate(p)
	if ev != 0 || work != 0 {
		t.Fatalf("clean revalidation: evicted=%d work=%d", ev, work)
	}

	// Change the ACL rule for port 80: its megaflow must be revoked.
	old := p.Table(1).Rules()[0] // tp_dst=80, priority 10
	if !p.DeleteRule(old) {
		t.Fatal("delete failed")
	}
	p.MustAddRule(1, flow.MustParseMatch("tp_dst=80"), 10, []flow.Action{flow.Output(7)}, pipeline.NoTable)

	ev, work = c.Revalidate(p)
	if ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	if work == 0 {
		t.Error("revalidation must report work")
	}
	if ok := peek(c, key(1, 80)); ok {
		t.Error("stale entry survived revalidation")
	}
	if ok := peek(c, key(1, 443)); !ok {
		t.Error("valid entry must survive revalidation")
	}
	if c.Stats().Revoked != 1 {
		t.Errorf("Revoked = %d", c.Stats().Revoked)
	}

	// Entries surviving revalidation are re-stamped: immediate re-run skips.
	_, work = c.Revalidate(p)
	if work != 0 {
		t.Errorf("second revalidation should be free, work=%d", work)
	}

	// Change only a rewrite: the route both entries cross now sets another
	// eth_dst. Their matches and verdicts stand, their commits do not.
	c.Insert(p.MustProcess(key(1, 80)), 0)
	route := flow.MustParseMatch("ip_dst=10.0.0.0/24")
	for _, r := range p.Table(0).Rules() {
		if r.Match.EqualTo(&route) && !p.DeleteRule(r) {
			t.Fatal("delete failed")
		}
	}
	p.MustAddRule(0, route, 10, []flow.Action{flow.SetField(flow.FieldEthDst, 0xdd)}, 1)
	if ev, _ = c.Revalidate(p); ev != 2 || c.Len() != 0 {
		t.Errorf("rewrite change: evicted = %d, %d left; want 2, 0", ev, c.Len())
	}
}

func TestMegaflowEntriesDisjoint(t *testing.T) {
	// Entries built from distinct traversals never both match one packet.
	p := testPipeline()
	c := New(256)
	var probes []flow.Key
	for ip := uint64(0); ip < 8; ip++ {
		for _, port := range []uint64{80, 443, 1234} {
			k := key(ip, port)
			probes = append(probes, k, key(0x100+ip, port))
			c.Insert(p.MustProcess(k), 0)
			c.Insert(p.MustProcess(key(0x100+ip, port)), 0)
		}
	}
	resident := entries(c)
	for _, k := range probes {
		n := 0
		for _, e := range resident {
			if e.Match.MatchesKey(&k) {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("key %s matches %d megaflow entries", k, n)
		}
	}
}

func TestEntriesAndNumMasks(t *testing.T) {
	p := testPipeline()
	c := New(16)
	c.Insert(p.MustProcess(key(1, 80)), 0)
	c.Insert(p.MustProcess(key(1, 443)), 0)
	if len(entries(c)) != 2 {
		t.Errorf("Entries = %d", len(entries(c)))
	}
	if c.NumMasks() < 1 {
		t.Errorf("NumMasks = %d", c.NumMasks())
	}
	if c.capacity != 16 {
		t.Errorf("Capacity = %d", c.capacity)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) must panic")
		}
	}()
	New(0)
}
