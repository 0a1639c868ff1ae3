package microflow

import (
	"math/rand"
	"testing"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
)

// refEntry / refCache are the original microflow cache — a Go map keyed
// by the exact flow.Key with a pointer-linked intrusive LRU list and a
// heap-allocated entry per flow — kept as the differential-test
// reference. Lookup results, entry state, eviction victims, LRU order and
// every Stats counter of Cache must stay bit-identical to it.
type refEntry struct {
	Key     flow.Key
	Final   flow.Key
	Verdict flow.Verdict
	Hits    uint64
	LastHit int64
	Ct      *conntrack.Conn
	CtEpoch uint64
	CtDir   conntrack.Dir

	prev, next *refEntry
}

type refCache struct {
	capacity int
	entries  map[flow.Key]*refEntry
	lruHead  *refEntry
	lruTail  *refEntry
	stats    Stats
}

func newRef(capacity int) *refCache {
	return &refCache{capacity: capacity, entries: make(map[flow.Key]*refEntry, capacity)}
}

func (c *refCache) Lookup(k flow.Key, now int64) (*refEntry, bool) {
	e, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e.Hits++
	e.LastHit = now
	c.touch(e)
	c.stats.Hits++
	return e, true
}

func (c *refCache) Insert(k, final flow.Key, v flow.Verdict, now int64) *refEntry {
	if old, ok := c.entries[k]; ok {
		old.Final, old.Verdict, old.LastHit = final, v, now
		old.Ct, old.CtEpoch, old.CtDir = nil, 0, 0
		c.touch(old)
		return old
	}
	if len(c.entries) >= c.capacity {
		if t := c.lruTail; t != nil {
			c.remove(t)
			c.stats.EvictLRU++
		}
	}
	e := &refEntry{Key: k, Final: final, Verdict: v, LastHit: now}
	c.entries[k] = e
	c.pushFront(e)
	c.stats.Inserts++
	return e
}

func (c *refCache) InsertCt(k, final flow.Key, v flow.Verdict, now int64,
	conn *conntrack.Conn, epoch uint64, dir conntrack.Dir) *refEntry {
	e := c.Insert(k, final, v, now)
	e.Ct, e.CtEpoch, e.CtDir = conn, epoch, dir
	return e
}

func (c *refCache) Remove(k flow.Key) bool {
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	c.remove(e)
	c.stats.Invalid++
	return true
}

func (c *refCache) ExpireIdle(now, maxIdle int64) int {
	var stale []*refEntry
	for _, e := range c.entries {
		if now-e.LastHit > maxIdle {
			stale = append(stale, e)
		}
	}
	for _, e := range stale {
		c.remove(e)
		c.stats.Expired++
	}
	return len(stale)
}

func (c *refCache) Invalidate() int {
	n := len(c.entries)
	c.entries = make(map[flow.Key]*refEntry, c.capacity)
	c.lruHead, c.lruTail = nil, nil
	c.stats.Invalid += uint64(n)
	return n
}

func (c *refCache) remove(e *refEntry) {
	delete(c.entries, e.Key)
	c.unlink(e)
}

func (c *refCache) pushFront(e *refEntry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *refCache) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.lruHead == e {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lruTail == e {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *refCache) touch(e *refEntry) {
	if c.lruHead == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// sameEntry compares everything a caller can read off an entry.
func sameEntry(g *Entry, r *refEntry) bool {
	return g.Key == r.Key && g.Final == r.Final && g.Verdict == r.Verdict &&
		g.Hits == r.Hits && g.LastHit == r.LastHit &&
		g.Ct == r.Ct && g.CtEpoch == r.CtEpoch && g.CtDir == r.CtDir
}

// checkAgainst demands that got and ref hold the same entries in the same
// LRU order with the same state — which pins every eviction victim, since
// a wrong victim leaves a different resident set — and that got's slab
// and index are internally consistent.
func checkAgainst(t testing.TB, got *Cache, ref *refCache) {
	t.Helper()
	if got.Len() != len(ref.entries) {
		t.Fatalf("Len=%d ref=%d", got.Len(), len(ref.entries))
	}
	if got.Stats() != ref.stats {
		t.Fatalf("stats %+v ref %+v", got.Stats(), ref.stats)
	}
	n, prev := 0, uint32(0)
	r := ref.lruHead
	for id := got.lruHead; id != 0; id = got.at(id).next {
		e := got.at(id)
		if r == nil {
			t.Fatalf("LRU position %d: %v resident only in Cache", n, e.Key)
		}
		if !sameEntry(e, r) {
			t.Fatalf("LRU position %d: entry %+v ref %+v", n, e, r)
		}
		if e.prev != prev {
			t.Fatalf("LRU position %d: prev link %d, want %d", n, e.prev, prev)
		}
		if fe, fid := got.find(&e.Key, e.hash); fe != e || fid != id {
			t.Fatalf("LRU position %d: index does not lead back to the entry", n)
		}
		prev, r, n = id, r.next, n+1
	}
	if r != nil {
		t.Fatalf("LRU position %d: %v resident only in the reference", n, r.Key)
	}
	if prev != got.lruTail {
		t.Fatalf("lruTail=%d, list ends at %d", got.lruTail, prev)
	}
	if n != got.Len() {
		t.Fatalf("LRU list holds %d entries, Len=%d", n, got.Len())
	}
	slots := 0
	for _, s := range got.index {
		if s.hash != 0 {
			slots++
		}
	}
	if slots != n {
		t.Fatalf("index holds %d slots, Len=%d", slots, n)
	}
	free := 0
	for id := got.free; id != 0; id = got.at(id).next {
		if e := got.at(id); e.hash != 0 || e.Ct != nil {
			t.Fatalf("free-list entry %d still carries state: %+v", id, e)
		}
		free++
	}
	if n+free != int(got.used) {
		t.Fatalf("%d live + %d free entries, %d handed out", n, free, got.used)
	}
}

// runOpTape interprets tape as a sequence of cache operations and applies
// each to a Cache and to the reference, demanding identical results after
// every one. The first byte picks the capacity — 1–24, or for bytes from
// 232 up 488–511, which spans two slab chunks, the second one partial;
// the key space is three times that, so a tape of any length runs at and
// over capacity. Time moves by a tape-chosen step that is usually forward, sometimes
// zero and sometimes backward, since neither cache may assume a clock.
func runOpTape(t testing.TB, tape []byte) {
	next := func() byte {
		if len(tape) == 0 {
			return 0
		}
		b := tape[0]
		tape = tape[1:]
		return b
	}
	b := int(next())
	capacity := 1 + b%24
	if b >= 232 {
		capacity = chunkSize + b
	}
	got, ref := New(capacity), newRef(capacity)
	var conns [4]conntrack.Conn
	key := func() flow.Key {
		return flow.Key{}.With(flow.FieldIPDst, uint64((int(next())<<8|int(next()))%(3*capacity)))
	}
	var now int64
	for step := 0; len(tape) > 0; step++ {
		op := next()
		now += int64(next()%16) - 2
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			k := key()
			ge, gok := got.Lookup(k, now)
			re, rok := ref.Lookup(k, now)
			if gok != rok || gok && !sameEntry(ge, re) {
				t.Fatalf("step %d: Lookup(%v) = %+v, %v; ref %+v, %v", step, k, ge, gok, re, rok)
			}
		case 6, 7, 8, 9, 10:
			k := key()
			final := k.With(flow.FieldTpDst, uint64(next()))
			v := flow.Verdict{Kind: flow.VerdictKind(next() % 3), Port: uint16(next())}
			ge, re := got.Insert(k, final, v, now), ref.Insert(k, final, v, now)
			if !sameEntry(ge, re) {
				t.Fatalf("step %d: Insert(%v) = %+v, ref %+v", step, k, ge, re)
			}
		case 11, 12:
			k := key()
			final := k.With(flow.FieldTpSrc, uint64(next()))
			v := flow.Verdict{Kind: flow.VerdictOutput, Port: uint16(next())}
			conn, epoch, dir := &conns[next()%4], uint64(next()), conntrack.Dir(next()%2)
			ge := got.InsertCt(k, final, v, now, conn, epoch, dir)
			re := ref.InsertCt(k, final, v, now, conn, epoch, dir)
			if !sameEntry(ge, re) {
				t.Fatalf("step %d: InsertCt(%v) = %+v, ref %+v", step, k, ge, re)
			}
		case 13:
			k := key()
			if g, r := got.Remove(k), ref.Remove(k); g != r {
				t.Fatalf("step %d: Remove(%v) = %v, ref %v", step, k, g, r)
			}
		case 14:
			maxIdle := int64(next() % 64)
			if g, r := got.ExpireIdle(now, maxIdle), ref.ExpireIdle(now, maxIdle); g != r {
				t.Fatalf("step %d: ExpireIdle(%d, %d) = %d, ref %d", step, now, maxIdle, g, r)
			}
		default:
			if next()%4 != 0 {
				continue // keep wholesale invalidation rare
			}
			if g, r := got.Invalidate(), ref.Invalidate(); g != r {
				t.Fatalf("step %d: Invalidate = %d, ref %d", step, g, r)
			}
		}
		checkAgainst(t, got, ref)
	}
}

// TestDifferentialOpTape drives Cache and the original map-backed
// implementation through seeded random op tapes.
func TestDifferentialOpTape(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		tape := make([]byte, 24_000)
		rand.New(rand.NewSource(seed)).Read(tape)
		if seed%4 == 0 {
			tape[0] = 255 // a two-chunk slab
		}
		runOpTape(t, tape)
	}
}

// FuzzMicroflowOps is runOpTape over fuzzer-chosen tapes; the checked-in
// corpus (testdata/fuzz/FuzzMicroflowOps) replays in `make fuzz-regress`.
func FuzzMicroflowOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 6, 1, 0, 0, 1, 7, 6, 1, 1, 0, 1, 7, 6, 1, 2, 0, 1, 7, 6, 1, 3, 0, 1, 7, 0, 1, 0})
	f.Fuzz(func(t *testing.T, tape []byte) { runOpTape(t, tape) })
}

// TestBatchLookupDifferential checks that deferred-stats batches observe
// and produce the same state as the reference's immediate updates.
func TestBatchLookupDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	got := New(32)
	ref := newRef(32)
	var now int64
	for round := 0; round < 200; round++ {
		b := got.BatchLookup()
		for i := 0; i < 16; i++ {
			now++
			k := flow.Key{}.With(flow.FieldIPDst, uint64(rng.Intn(96)))
			ge, gok := b.Lookup(k, now)
			re, rok := ref.Lookup(k, now)
			if gok != rok {
				t.Fatalf("round %d: batch Lookup ok=%v ref=%v", round, gok, rok)
			}
			if !gok {
				final := k.With(flow.FieldTpDst, 80)
				v := flow.Verdict{Kind: flow.VerdictOutput, Port: 1}
				got.Insert(k, final, v, now)
				ref.Insert(k, final, v, now)
			} else if ge.Hits != re.Hits {
				t.Fatalf("round %d: hits %d ref %d", round, ge.Hits, re.Hits)
			}
		}
		b.Flush()
		checkAgainst(t, got, ref)
	}
}
