package microflow

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
)

// refEntry / refCache are the original microflow cache — a Go map keyed
// by the exact flow.Key with a pointer-linked intrusive LRU list and a
// heap-allocated entry per flow — kept as the differential-test
// reference. Lookup results, entry state, eviction victims, LRU order and
// every Stats counter of Cache must stay bit-identical to it. Its thrash
// policy (refDetector) is written from the paragraph in DESIGN.md §10.3,
// not from Cache's counters.
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
	det      refDetector
}

// refDetector is the thrash policy as DESIGN.md states it: it keeps the
// open window as a log of its events and judges the log when it is full.
type refDetector struct {
	window    int    // max(2 × capacity, 4096)
	log       []bool // the open window's events, true for a hit
	streak    int    // thrashing windows in a row
	declining int    // memoize requests still to decline
	// What a tape drove it through, for the tests that need a tape to
	// have got somewhere.
	thrashed, recovered, longest int
}

func (d *refDetector) event(hit bool) {
	d.log = append(d.log, hit)
	if len(d.log) < d.window {
		return
	}
	hits := 0
	for _, h := range d.log {
		if h {
			hits++
		}
	}
	d.log = d.log[:0]
	if hits*64 >= d.window {
		if d.streak > 0 {
			d.recovered++
		}
		d.streak = 0
		return
	}
	d.streak = min(d.streak+1, 4)
	d.declining = d.window << d.streak
	d.thrashed++
	d.longest = max(d.longest, d.streak)
}

func (d *refDetector) reset() { d.log, d.streak, d.declining = d.log[:0], 0, 0 }

func newRef(capacity int) *refCache {
	return &refCache{capacity: capacity, entries: make(map[flow.Key]*refEntry, capacity),
		det: refDetector{window: max(2*capacity, 4096)}}
}

func (c *refCache) Lookup(k flow.Key, now int64) (*refEntry, bool) {
	if c.det.declining > 0 {
		return nil, false
	}
	e, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e.Hits++
	e.LastHit = now
	c.touch(e)
	c.stats.Hits++
	c.det.event(true)
	return e, true
}

func (c *refCache) Insert(k, final flow.Key, v flow.Verdict, now int64) *refEntry {
	if c.det.declining > 0 {
		c.det.declining--
		c.stats.Bypassed++
		return nil
	}
	c.det.event(false)
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
	if e != nil {
		e.Ct, e.CtEpoch, e.CtDir = conn, epoch, dir
	}
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
	c.det.reset()
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

// sameEntry compares everything a caller can read off an entry; two
// declined inserts (nil, nil) are the same.
func sameEntry(g *Entry, r *refEntry) bool {
	if g == nil || r == nil {
		return g == nil && r == nil
	}
	return g.Key == r.Key && g.Final == r.Final && g.Verdict == r.Verdict &&
		g.Hits == r.Hits && g.LastHit == r.LastHit &&
		g.Ct == r.Ct && g.CtEpoch == r.CtEpoch && g.CtDir == r.CtDir
}

// checkAgainst demands that got and ref hold the same entries in the same
// LRU order with the same state — which pins every eviction victim, since
// a wrong victim leaves a different resident set — that got's slab and
// index are internally consistent, and that the two are on the same side
// of the thrash policy: checked after every operation, the bypass flag and
// Stats.Bypassed pin each window's closing event and each bypass period's
// last declined request.
func checkAgainst(t testing.TB, got *Cache, ref *refCache) {
	t.Helper()
	if got.Len() != len(ref.entries) {
		t.Fatalf("Len=%d ref=%d", got.Len(), len(ref.entries))
	}
	if got.Stats() != ref.stats {
		t.Fatalf("stats %+v ref %+v", got.Stats(), ref.stats)
	}
	if g, r := got.Snapshot().Bypassing, ref.det.declining > 0; g != r {
		t.Fatalf("bypassing=%v ref=%v (stats %+v)", g, r, ref.stats)
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
// zero and sometimes backward, since neither cache may assume a clock. It
// returns the model's detector, which records how far into the thrash
// policy the tape went.
func runOpTape(t testing.TB, tape []byte) refDetector {
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
	return ref.det
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

// tapeWriter composes a runOpTape tape operation by operation, for the
// tapes random bytes will not produce: a uniform tape hits on a third of
// its lookups and ends long before its 4 096th event, so it never closes
// an observation window, let alone a thrashing one. Every byte it writes
// is printable for capacities up to 24, which keeps a checked-in tape of
// a hundred thousand bytes a hundred thousand bytes long.
type tapeWriter struct {
	tape     []byte
	capacity int
}

// newTape starts a tape for capacity 1–24.
func newTape(capacity int) *tapeWriter {
	return &tapeWriter{tape: []byte{byte(47 + capacity)}, capacity: capacity}
}

// op appends an operation code — the first of its kind from '`' (96, a
// multiple of 16) up — a time step of +1 and, for flow ≥ 0, the two key
// bytes runOpTape reduces to that flow: the smallest value from "00" up
// that is flow modulo the key space.
func (w *tapeWriter) op(code byte, flow int, args ...byte) {
	w.tape = append(w.tape, '`'+code, '3')
	if flow >= 0 {
		space := 3 * w.capacity
		v := 0x3030 + ((flow-0x3030)%space+space)%space
		w.tape = append(w.tape, byte(v>>8), byte(v))
	}
	w.tape = append(w.tape, args...)
}

func (w *tapeWriter) lookup(flow int) { w.op(0, flow) }
func (w *tapeWriter) insert(flow int) { w.op(6, flow, '1', '1', '1') }
func (w *tapeWriter) insertCt(flow int) {
	w.op(11, flow, '1', '1', '1', '1', '1')
}
func (w *tapeWriter) remove(flow int) { w.op(13, flow) }
func (w *tapeWriter) expire()         { w.op(14, -1, '0'+8) }
func (w *tapeWriter) invalidate()     { w.op(15, -1, '0') }

// packet is the datapath's use of the tier: probe, memoize on a miss.
// The writer cannot see the outcome, so it takes it from the caller:
// resident says the flow is in the tier and the tier is active.
func (w *tapeWriter) packet(flow int, resident bool) {
	w.lookup(flow)
	if !resident {
		w.insert(flow)
	}
}

// bypassTape crosses both edges of the thrash policy on the smallest
// tier there is, one entry (W = 4 096): a window of packets that never
// hit, the two windows of declined requests that follow with every other
// kind of operation mixed in, and a window of hits that sets the back-off
// to zero again.
func bypassTape() []byte {
	w := newTape(1)
	for i := 0; i < 4096; i++ {
		w.packet(i%3, false)
	}
	for i := 0; i < 2*4096; i++ {
		w.packet(i%3, false)
		switch i % 1024 {
		case 100:
			w.remove(i % 3)
		case 200:
			w.expire()
		case 300:
			w.insertCt(i % 3)
			i++ // a memoize request like any other: declined and counted
		}
	}
	w.insert(0)
	for i := 1; i < 4096; i++ {
		w.packet(0, true)
	}
	w.packet(1, false) // the first event of the next window: still active
	return w.tape
}

// TestDifferentialBypassTape runs composed tapes that take Cache and the
// model through the thrash policy — in and out of bypass, the back-off to
// its cap and back to zero, Invalidate in mid-bypass — with the other
// operations mixed in at random, and asserts each tape got there.
func TestDifferentialBypassTape(t *testing.T) {
	det := runOpTape(t, bypassTape())
	if det.thrashed != 1 || det.recovered != 1 || det.declining != 0 {
		t.Errorf("bypassTape: %d thrashing windows, %d recoveries, %d requests left to decline; want 1, 1, 0",
			det.thrashed, det.recovered, det.declining)
	}

	// The checked-in tape `make fuzz-regress` replays must still get there
	// too: written once by a tapeWriter (capacity 8, memoize requests
	// only, Invalidate in the middle of its second bypass period).
	raw, err := os.ReadFile("testdata/fuzz/FuzzMicroflowOps/bypass-recover-invalidate")
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	tape, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("corpus tape: %v", err)
	}
	if det := runOpTape(t, []byte(tape)); det.thrashed != 2 || det.recovered != 1 || det.declining != 0 {
		t.Errorf("corpus tape: %d thrashing windows, %d recoveries, %d requests left to decline; want 2, 1, 0",
			det.thrashed, det.recovered, det.declining)
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 7, 16, 24}[seed-1]
		w := newTape(capacity)
		// noise is the operations that are not packets, at random: none of
		// them is an event, so the schedule below holds with them mixed in.
		noise := func() {
			switch f := rng.Intn(3 * capacity); rng.Intn(40) {
			case 0:
				w.remove(f)
			case 1:
				w.expire()
			case 2:
				if f%capacity != 0 {
					w.lookup(f % capacity) // flows 1…c-1 are never memoized
				}
			}
		}
		// cold sends n packets round robin over flows the tier cannot
		// hold: with capacity c, flows c…3c-1 cycle at distance 2c.
		next := 0
		cold := func(n int) {
			for i := 0; i < n; i++ {
				w.packet(capacity+next%(2*capacity), false)
				next++
				noise()
			}
		}
		const W = 4096
		for _, periods := range []int{2, 4, 8, 16, 16} {
			cold(W)
			cold(periods * W)
		}
		// hits opens a window with n hits on flow 0.
		hits := func(n int) {
			w.insert(0)
			for i := 0; i < n; i++ {
				w.packet(0, true)
			}
		}
		hits(W - 1) // a healthy window: the back-off is gone
		cold(W)
		cold(2 * W)
		// The line itself: 64 hits in 4 096 events is healthy, 63 is not.
		hits(64)
		cold(W - 65)
		hits(63)
		cold(W - 64)
		cold(2 * W)
		// Invalidate in mid-bypass, two thrashing windows deep, and again
		// in a half-full window of hits: neither the period, nor the
		// back-off, nor the window's events survive it.
		cold(W)
		cold(W)
		w.invalidate()
		hits(W / 2)
		w.invalidate()
		cold(W)
		cold(2 * W)
		cold(W - 1)

		det := runOpTape(t, w.tape)
		if det.thrashed != 9 || det.longest != 4 || det.recovered != 2 || det.declining != 0 || len(det.log) != W-1 {
			t.Errorf("seed %d: %d thrashing windows, longest streak %d, %d recoveries, %d left to decline, %d events in the open window; want 9, 4, 2, 0, %d",
				seed, det.thrashed, det.longest, det.recovered, det.declining, len(det.log), W-1)
		}
	}
}

// FuzzMicroflowOps is runOpTape over fuzzer-chosen tapes; the checked-in
// corpus (testdata/fuzz/FuzzMicroflowOps) replays in `make fuzz-regress`.
// bypassTape and the corpus tape bypass-recover-invalidate are the inputs
// long enough to enter the thrash policy's bypass and leave it.
func FuzzMicroflowOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 6, 1, 0, 0, 1, 7, 6, 1, 1, 0, 1, 7, 6, 1, 2, 0, 1, 7, 6, 1, 3, 0, 1, 7, 0, 1, 0})
	f.Add(bypassTape())
	f.Fuzz(func(t *testing.T, tape []byte) { runOpTape(t, tape) })
}

// TestBatchLookupDifferential checks that deferred-stats batches observe
// and produce the same state as the reference's immediate updates. The
// accumulator redirects the cache-wide Hits and Misses and nothing else:
// Stats.Bypassed is counted by the memoize side, straight into the cache,
// and the thrash detector's window is per-packet state like an entry's
// hit count — so a batch that closes a window steps aside in mid-batch,
// exactly as single lookups would.
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
