package microflow

import (
	"math/rand"
	"slices"
	"testing"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
)

func mk(port uint64) flow.Key { return flow.Key{}.With(flow.FieldTpDst, port) }

func TestExactHitAndMiss(t *testing.T) {
	c := New(4)
	final := mk(80).With(flow.FieldEthDst, 0xbb)
	c.Insert(mk(80), final, flow.Verdict{Kind: flow.VerdictOutput, Port: 3}, 0)

	e, ok := c.Lookup(mk(80), 1)
	if !ok || e.Final != final || e.Verdict.Port != 3 {
		t.Fatalf("hit = %v, %v", e, ok)
	}
	if _, ok := c.Lookup(mk(81), 1); ok {
		t.Error("exact cache must miss on any difference")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInsertOverwrites(t *testing.T) {
	c := New(4)
	c.Insert(mk(80), mk(80), flow.Verdict{Kind: flow.VerdictOutput, Port: 1}, 0)
	c.Insert(mk(80), mk(80), flow.Verdict{Kind: flow.VerdictOutput, Port: 2}, 1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e, _ := c.Lookup(mk(80), 2)
	if e.Verdict.Port != 2 {
		t.Error("overwrite not visible")
	}
}

func TestLRU(t *testing.T) {
	c := New(2)
	c.Insert(mk(1), mk(1), flow.Verdict{}, 0)
	c.Insert(mk(2), mk(2), flow.Verdict{}, 1)
	c.Lookup(mk(1), 2)                        // 2 becomes LRU
	c.Insert(mk(3), mk(3), flow.Verdict{}, 3) // evicts 2
	if _, ok := c.Lookup(mk(2), 4); ok {
		t.Error("LRU entry should be gone")
	}
	if _, ok := c.Lookup(mk(1), 4); !ok {
		t.Error("recently used entry should survive")
	}
	if c.Stats().EvictLRU != 1 {
		t.Errorf("EvictLRU = %d", c.Stats().EvictLRU)
	}
}

func TestExpireIdle(t *testing.T) {
	c := New(4)
	c.Insert(mk(1), mk(1), flow.Verdict{}, 0)
	c.Insert(mk(2), mk(2), flow.Verdict{}, 50)
	if n := c.ExpireIdle(100, 60); n != 1 {
		t.Fatalf("expired %d", n)
	}
	if _, ok := c.Lookup(mk(2), 100); !ok {
		t.Error("fresh entry expired")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4)
	c.Insert(mk(1), mk(1), flow.Verdict{}, 0)
	c.Insert(mk(2), mk(2), flow.Verdict{}, 0)
	if n := c.Invalidate(); n != 2 {
		t.Fatalf("invalidated %d", n)
	}
	if c.Len() != 0 {
		t.Error("entries remain after Invalidate")
	}
	// Cache must remain usable.
	c.Insert(mk(3), mk(3), flow.Verdict{}, 1)
	if _, ok := c.Lookup(mk(3), 2); !ok {
		t.Error("cache broken after Invalidate")
	}
}

func TestCapacityChurn(t *testing.T) {
	c := New(8)
	for i := 0; i < 1000; i++ {
		c.Insert(mk(uint64(i)), mk(uint64(i)), flow.Verdict{}, int64(i))
		if c.Len() > 8 {
			t.Fatalf("capacity exceeded: %d", c.Len())
		}
	}
	// The 8 most recent keys must all be present.
	for i := 992; i < 1000; i++ {
		if _, ok := c.Lookup(mk(uint64(i)), 2000); !ok {
			t.Errorf("recent key %d missing", i)
		}
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

// lruKeys lists the resident keys from most to least recently used.
func lruKeys(c *Cache) []flow.Key {
	var keys []flow.Key
	for ref := c.lruHead; ref != 0; ref = c.at(ref).next {
		keys = append(keys, c.at(ref).Key)
	}
	return keys
}

// TestRecycledEntryCarriesNothingOver pins the bug class a slab
// introduces: storage reused for a new flow — straight from the LRU tail,
// or by way of the free list — must read exactly like a fresh entry. A
// stale Ct in particular would make the datapath guard a
// connection-independent flow with some other flow's connection.
func TestRecycledEntryCarriesNothingOver(t *testing.T) {
	var conn conntrack.Conn
	fresh := func(t *testing.T, e *Entry, k flow.Key) {
		t.Helper()
		if e.Key != k || e.Hits != 0 || e.Ct != nil || e.CtEpoch != 0 || e.CtDir != 0 {
			t.Fatalf("reused entry carries state over: %+v", e)
		}
	}
	bound := func(c *Cache) *Entry {
		c.InsertCt(mk(1), mk(1), flow.Verdict{}, 0, &conn, 7, conntrack.DirReply)
		c.Lookup(mk(1), 1)
		e, _ := c.Lookup(mk(1), 2)
		if e.Hits != 2 || e.Ct != &conn || e.CtEpoch != 7 || e.CtDir != conntrack.DirReply {
			t.Fatalf("conntrack-bound entry = %+v", e)
		}
		return e
	}

	c := New(1)
	old := bound(c)
	e := c.Insert(mk(2), mk(2), flow.Verdict{}, 3) // evicts 1 in place
	if e != old {
		t.Fatal("a full tier must reuse the evicted entry's storage")
	}
	fresh(t, e, mk(2))

	for name, free := range map[string]func(*Cache){
		"Remove":     func(c *Cache) { c.Remove(mk(1)) },
		"ExpireIdle": func(c *Cache) { c.ExpireIdle(100, 10) },
		"Invalidate": func(c *Cache) { c.Invalidate() },
	} {
		c := New(4)
		old := bound(c)
		free(c)
		if c.Len() != 0 || old.Ct != nil {
			t.Fatalf("%s: Len=%d, freed entry %+v", name, c.Len(), old)
		}
		if e := c.Insert(mk(2), mk(2), flow.Verdict{}, 200); e != old {
			t.Fatalf("%s must hand the storage back for reuse", name)
		}
		fresh(t, old, mk(2))
	}
}

// TestInvalidateRefillMatchesFresh: after Invalidate a cache that has
// been through over-capacity churn, removals and expiry must behave
// exactly like a new one — same occupancy, same counters from that point,
// same LRU order.
func TestInvalidateRefillMatchesFresh(t *testing.T) {
	const capacity = 300 // two slab chunks
	drive := func(c *Cache, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4*capacity; i++ {
			k := mk(uint64(rng.Intn(2 * capacity)))
			switch rng.Intn(8) {
			case 0:
				c.Remove(k)
			case 1, 2:
				c.Lookup(k, int64(i))
			default:
				c.Insert(k, k, flow.Verdict{}, int64(i))
			}
		}
	}
	used, fresh := New(capacity), New(capacity)
	drive(used, 1)
	used.ExpireIdle(4*capacity, capacity)
	used.Invalidate()
	base := used.Stats()
	drive(used, 2)
	drive(fresh, 2)

	got, want := used.Stats(), fresh.Stats()
	got.Hits -= base.Hits
	got.Misses -= base.Misses
	got.Inserts -= base.Inserts
	got.EvictLRU -= base.EvictLRU
	got.Expired -= base.Expired
	got.Invalid -= base.Invalid
	if got != want {
		t.Errorf("stats since Invalidate %+v, fresh cache %+v", got, want)
	}
	if used.Len() != fresh.Len() {
		t.Errorf("Len=%d, fresh cache %d", used.Len(), fresh.Len())
	}
	if g, w := lruKeys(used), lruKeys(fresh); !slices.Equal(g, w) {
		t.Errorf("LRU order differs from a fresh cache's")
	}
}

// TestFullTierZeroAlloc holds the write path to zero heap allocations once
// the slab has reached its high-water mark: inserting into a full tier
// (eviction and in-place reuse), removing, and the idle sweep.
func TestFullTierZeroAlloc(t *testing.T) {
	c := New(64)
	next := uint64(0)
	fill := func(now int64) {
		for i := 0; i < 64; i++ {
			c.Insert(mk(next), mk(next), flow.Verdict{}, now)
			next++
		}
	}
	fill(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Insert(mk(next), mk(next), flow.Verdict{}, 0)
		next++
	}); allocs != 0 {
		t.Errorf("Insert into a full tier allocates %.1f/op, want 0", allocs)
	}
	if c.Stats().EvictLRU < 1000 {
		t.Fatalf("inserts did not evict: %+v", c.Stats())
	}
	now := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		now += 100
		if n := c.ExpireIdle(now, 10); n != 64 {
			t.Fatalf("expired %d of 64", n)
		}
		fill(now)
		c.Remove(mk(next - 1))
		c.Insert(mk(next), mk(next), flow.Verdict{}, now)
		next++
	}); allocs != 0 {
		t.Errorf("ExpireIdle/Remove/refill allocates %.1f/op, want 0", allocs)
	}
}
