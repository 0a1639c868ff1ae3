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
	// 1 000 events: inside the first observation window, so every insert
	// above was a real one.
	if st := c.Stats(); st.Bypassed != 0 || st.EvictLRU != 992 {
		t.Errorf("churn did not stay on the active side: %+v", st)
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
	// 40 runs, not more: with the fill and the thousand inserts above that
	// is 3 771 memoize requests and no hit, and the 4 096th would close a
	// thrashing window — this test measures the recycle, not the bypass.
	now := int64(0)
	if allocs := testing.AllocsPerRun(40, func() {
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
	if st := c.Stats(); st.Bypassed != 0 {
		t.Errorf("the tier stepped aside under the measurement: %+v", st)
	}
}

// packet drives c the way the datapath does: probe, and memoize on a miss.
func packet(c *Cache, flowID uint64, now int64) (hit bool) {
	if _, ok := c.Lookup(mk(flowID), now); ok {
		return true
	}
	c.Insert(mk(flowID), mk(flowID), flow.Verdict{}, now)
	return false
}

// TestThrashBypassSchedule walks a tier through the whole thrash policy
// and holds it to the schedule event by event: observation windows of W
// separated by bypass periods of 2W, 4W, 8W, 16W, 16W under a working set
// that cannot hit; a hot set found again at the first window after the
// period in force; the back-off collapsed by that one healthy window; and
// Invalidate ending a bypass at once.
func TestThrashBypassSchedule(t *testing.T) {
	for _, tc := range []struct{ capacity, window int }{
		{1, minWindow}, {1024, minWindow}, {2048, 4096}, {2049, 4098}, {4096, 8192},
	} {
		if got := New(tc.capacity).window; got != uint64(tc.window) {
			t.Errorf("capacity %d: window %d, want %d", tc.capacity, got, tc.window)
		}
	}

	const capacity = 4096
	const W = 2 * capacity
	c := New(capacity)
	now, next := int64(0), uint64(0)
	// cold sends n packets of flows never seen before; hot sends n round
	// robin over half a capacity of flows of its own.
	cold := func(n int) {
		for i := 0; i < n; i++ {
			now++
			next++
			if packet(c, 1<<32|next, now) {
				t.Fatalf("packet %d: a new flow hit", now)
			}
		}
	}
	hot := func(n int) (hits int) {
		for i := 0; i < n; i++ {
			now++
			next++
			if packet(c, next%(capacity/2), now) {
				hits++
			}
		}
		return hits
	}
	expect := func(what string, bypassing bool, bypassed, evicted uint64) {
		t.Helper()
		s := c.Snapshot()
		if s.Bypassing != bypassing || s.Bypassed != bypassed || s.EvictLRU != evicted {
			t.Fatalf("%s: bypassing=%v bypassed=%d evicted=%d, want %v %d %d",
				what, s.Bypassing, s.Bypassed, s.EvictLRU, bypassing, bypassed, evicted)
		}
	}

	var bypassed, inserted uint64
	for round, periods := range []uint64{2, 4, 8, 16, 16} {
		cold(W - 1)
		inserted += W - 1
		expect("one event short of a window", false, bypassed, inserted-capacity)
		cold(1)
		inserted++
		expect("window closed", true, bypassed, inserted-capacity)
		cold(int(periods*W) - 1)
		bypassed += periods*W - 1
		expect("one request short of the period", true, bypassed, inserted-capacity)
		cold(1)
		bypassed++
		expect("period over", false, bypassed, inserted-capacity)
		if st := c.Stats(); st.Hits != 0 || st.Misses != inserted || st.Inserts != inserted {
			t.Fatalf("round %d: %+v", round, st)
		}
	}

	// Into the sixth bypass period, and the traffic turns cacheable half
	// way through it: nothing is learnt until the period is over, then
	// the hot set is admitted in one pass and hits from the second.
	cold(W)
	cold(8 * W)
	if hits := hot(8 * W); hits != 0 {
		t.Fatalf("%d hits from a bypassing tier", hits)
	}
	expect("hot set, period over", false, bypassed+16*W, inserted+W-capacity)
	if hits := hot(W); hits != W-capacity/2 {
		t.Fatalf("%d hits in the first window on the hot set, want %d", hits, W-capacity/2)
	}
	// That window was healthy, so the back-off is gone: the next time the
	// tier thrashes it steps aside for two windows, not sixteen.
	cold(W)
	cold(2 * W)
	expect("after a healthy window, period over", false, bypassed+18*W, inserted+2*W+capacity/2-capacity)

	// Invalidate in mid-bypass: active at once, and judged afresh.
	cold(W)
	cold(W)
	expect("mid-bypass", true, bypassed+19*W, inserted+3*W+capacity/2-capacity)
	c.Invalidate()
	if c.Snapshot().Bypassing {
		t.Fatal("Invalidate left the tier bypassing")
	}
	if hits := hot(W); hits != W-capacity/2 {
		t.Fatalf("%d hits in the window after Invalidate, want %d", hits, W-capacity/2)
	}
}
