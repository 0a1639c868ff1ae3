// Package microflow implements OVS's first-level exact-match flow cache:
// one entry per exact flow signature, capturing temporal locality. It
// fronts the Megaflow (or Gigaflow) cache in the software slowpath.
//
// Layout. Entries live in an internal/slab slab, named by uint32 ref, so
// an entry's address never changes and a tier holding 2 000 flows does
// not pay for its full capacity in entries; the LRU list and the free
// list are threaded through the entries by ref. Keys are found through
// the slab package's hash-only index of {hash, ref} slots, which is sized
// from the capacity however few entries the tier holds — 1 MiB at 32 768
// — because an index sized by occupancy would grow, and rehash, while the
// tier fills, on the path of the packets that fill it. The key is stored
// once, in the entry, and the tier's probe walks hashes only, touching an
// entry when its full 64-bit hash matches.
// Inserting into a full tier recycles the LRU tail's entry in place: one
// backshift delete from the index, one slot write, no allocation. The
// connection table (internal/conntrack) is built the same way.
//
// Thrash policy. A tier fed flows it will not see again before it has
// evicted them is pure cost: every packet pays a probe and an evicting
// insert, and the slab streams through the CPU cache ahead of the main
// cache's own lines. The tier therefore watches itself (observe) and steps
// aside while that is so, a large tier giving back its storage for a
// sampled miniature of itself meanwhile (resize); the policy and its
// constants are stated once, beside thrashRatio.
package microflow

import (
	"fmt"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
	"gigaflow/internal/slab"
)

// Entry is one exact-match cache entry: the memoized result of processing
// a specific flow signature. The cache owns the storage and reuses it
// after the entry is evicted or removed; a pointer obtained from Find
// or Insert is good until the next call that can evict (Insert, InsertCt)
// or remove (Remove, ExpireIdle, Invalidate).
type Entry struct {
	Key     flow.Key
	Final   flow.Key // flow state after all rewrites
	Verdict flow.Verdict
	Hits    uint64
	LastHit int64

	// Ct, CtEpoch, and CtDir tie an InsertCt entry to the connection
	// state it memoized; nil Ct means connection-independent. They stay
	// for the benchmark's shadow chain until ROADMAP item 15: the datapath
	// memoizes no tracked packet, so its entries never carry them.
	Ct      *conntrack.Conn
	CtEpoch uint64
	CtDir   conntrack.Dir

	// hash is Key's index hash, kept so eviction finds the entry's slot
	// without hashing again; zero marks slab storage holding no entry.
	hash uint64
	// prev and next are LRU neighbours while the entry is live; next
	// doubles as the free-list link while it is not.
	prev, next uint32
}

// Stats counts cache events.
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"` // probes that found nothing; a bypassing tier does not probe
	Inserts  uint64 `json:"inserts"`
	EvictLRU uint64 `json:"evict_lru"`
	Expired  uint64 `json:"expired"`
	Invalid  uint64 `json:"invalidated"` // removed by Invalidate, or one at a time by Remove
	Bypassed uint64 `json:"bypassed"`    // memoize requests declined while the tier was bypassing, or outside its miniature's sample
	Shed     uint64 `json:"shed"`        // entries dropped when the tier shrank to its miniature
}

// Snapshot bundles the cache's counters and occupancy for telemetry
// export. Not safe for concurrent use with cache mutation; call from the
// goroutine driving the cache.
type Snapshot struct {
	Stats
	Len       int  `json:"len"`
	Capacity  int  `json:"capacity"`
	Bypassing bool `json:"bypassing"` // the thrash detector has the tier stepped aside right now
}

// The thrash policy, whole. The tier counts one event for every hit a
// lookup returns and every memoize request it receives — so a packet that
// ends in the tier is one event however many times it was probed on the
// way (a parked packet is probed twice, served or memoized once). Events
// are grouped into windows of W = max(2 × capacity, minWindow). A window
// that closes holding fewer than W/thrashRatio hits is a thrashing one:
// the tier then bypasses for the next W << b memoize requests, b being
// the number of thrashing windows in a row, capped at maxBackoff. While
// it bypasses, every lookup misses without hashing and every memoize
// request is declined and counted in Stats.Bypassed; neither counts as an
// event, and nothing else changes but as the miniature says. After that it
// observes one more window. A window that closes with W/thrashRatio hits
// or more sets b back to zero. Invalidate returns the tier to active, at
// full size, with an empty window and b = 0.
//
// The miniature. A tier of more than minWindow entries gives its storage
// back while it steps aside: at the first request it declines after a
// thrashing window at full size, it sheds every entry (Stats.Shed) and
// shrinks to a miniature of capacity/thrashRatio entries that admits only
// the 1 key in 64 whose hash has its top six bits zero; any other key's
// lookup misses unprobed and its request is declined (Stats.Bypassed),
// neither being an event. The miniature's windows hold ⌈W/64⌉ events,
// judged by the same line; its bypass periods stay W << b. By SHARDS
// (Waldspurger et al., FAST 2015) it tells reuse from thrashing as the
// full tier would, and a window of it with reuse returns the tier to full
// size, keeping its entries. A smaller tier keeps what it holds: its
// miniature's windows would hold at most 128 events, the line 2 hits.
//
// Declining is safe because a memo is only ever a shortcut to a result
// the main cache or the pipeline gives anyway, and what the tier keeps
// while it bypasses stays valid by the same rule as ever (Invalidate on
// a rule change).
const (
	// thrashRatio: 1 hit in 64 events. A tier miss costs a probe and an
	// evicting insert, about what the main-cache hit behind it costs, so
	// the tier stops paying for itself somewhere in the tens of percent;
	// 1/64 is far below any workload that reuses flows at all (the lowest
	// hit ratio the benchmark records on a tier that hits is 0.67) and
	// leaves the contested middle to an admission policy. The detector
	// only decides the case that is not in doubt.
	thrashRatio = 64
	// minWindow: the floor on W. A ratio of 1/64 means nothing over a
	// handful of events; at 64² events the thrashing line is 64 hits, so
	// a few chance hits or misses cannot move a window across it. Tiers
	// under 2 048 entries are observed over the floor. The other term of
	// W, two capacities, gives every reuse distance the tier could serve
	// room to show: the tier may spend the first capacity's worth of
	// events filling, and reuse shows in the second. A tier keeps a
	// miniature only above minWindow entries.
	minWindow = thrashRatio * thrashRatio
	// maxBackoff: the bypass period doubles from 2 windows to at most 16.
	// Starting at 2, a passing scan costs little; capped at 16, a tier
	// that thrashes for good pays for 1 packet in 17, and a workload that
	// turns cacheable is noticed within 16 windows.
	maxBackoff = 4
	// sampleShift: the miniature's keys are those whose hash shifted right
	// by it is zero, 1 in thrashRatio.
	sampleShift = 64 - 6
)

// Cache is a capacity-bounded exact-match cache with LRU replacement. It
// is not safe for concurrent use.
type Cache struct {
	capacity int
	limit    int // entries the tier may hold now: capacity, or mini while the miniature stands in
	mini     int // the miniature's size; capacity itself for a tier too small to keep one
	count    int
	index    slab.Index // flowtable.HashKey never returns 0, the empty slot's hash
	entries  slab.Slab[Entry]
	free     uint32 // head of the free list
	lruHead  uint32
	lruTail  uint32
	stats    Stats

	// Thrash detector: see thrashRatio.
	window  uint64 // W, events per observation window at full size, and the bypass period's unit
	span    uint64 // events per window now: W, or ⌈W/64⌉ while the miniature stands in
	events  uint64 // events in the current window
	winHits uint64 // of which hits
	backoff uint64 // b, thrashing windows in a row, at most maxBackoff
	bypass  uint64 // memoize requests left to decline; non-zero is "bypassing"
}

// New creates a microflow cache holding at most capacity entries.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("microflow: bad capacity %d", capacity))
	}
	w := uint64(max(2*capacity, minWindow))
	c := &Cache{capacity: capacity, limit: capacity, mini: capacity, index: slab.NewIndex(capacity),
		entries: slab.New[Entry](capacity), window: w, span: w}
	if capacity > minWindow {
		c.mini = capacity / thrashRatio
	}
	return c
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return c.count }

// Snapshot captures the cache's current telemetry view.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{Stats: c.stats, Len: c.Len(), Capacity: c.capacity, Bypassing: c.bypass != 0}
}

// observe counts one event into the current window, a hit when hit is 1,
// and closes the window on its last event (out of line, so this inlines).
//
//gf:hotpath
func (c *Cache) observe(hit uint64) {
	c.winHits += hit
	c.events++
	if c.events >= c.span {
		c.closeWindow()
	}
}

// closeWindow judges the window just filled and opens the next.
//
//gf:hotpath
func (c *Cache) closeWindow() {
	if c.winHits*thrashRatio < c.span {
		if c.backoff < maxBackoff {
			c.backoff++
		}
		c.bypass = c.window << c.backoff
	} else {
		c.backoff = 0
		if c.limit != c.capacity {
			c.resize(c.capacity)
		}
	}
	c.events, c.winHits = 0, 0
}

// resize gives the tier storage for n entries, capacity or mini: down, it
// sheds every entry, keeping the slab's first chunks; up, it keeps the
// miniature's entries, valid memos all. Either way the index is sized anew.
//
//gf:hotpath-safe runs once per change of size: when a thrashing tier first declines a request, and when its miniature shows reuse; never while the tier keeps its size
func (c *Cache) resize(n int) {
	if n < c.limit {
		c.stats.Shed += uint64(c.count)
		c.entries.Shrink(n)
		c.count, c.free, c.lruHead, c.lruTail = 0, 0, 0, 0
		c.span = (c.window + thrashRatio - 1) / thrashRatio
	} else {
		c.entries.Raise(n)
		c.span = c.window
	}
	c.limit = n
	c.index = slab.NewIndex(n)
	for ref := c.lruHead; ref != 0; ref = c.at(ref).next {
		c.index.Insert(c.at(ref).hash, ref)
	}
}

// at resolves a non-zero ref to its entry.
//
//gf:hotpath
func (c *Cache) at(ref uint32) *Entry { return c.entries.At(ref) }

// find probes the index for the entry holding exactly *k, whose hash is
// h. It returns the entry and its ref, or nil and 0.
//
//gf:hotpath
func (c *Cache) find(k *flow.Key, h uint64) (*Entry, uint32) {
	m := c.index.Mask()
	for i := h & m; ; i = (i + 1) & m {
		s := &c.index.Slots[i]
		if s.Hash == 0 {
			return nil, 0
		}
		if s.Hash == h {
			if e := c.at(s.Ref); e.Key == *k {
				return e, s.Ref
			}
		}
	}
}

// Find finds the entry for exactly k, read in place: the form the
// datapath uses, whose keys already sit in a batch it owns. A bypassing
// tier (see thrashRatio) reports a miss without looking.
//
//gf:hotpath
func (c *Cache) Find(k *flow.Key, now int64) (*Entry, bool) {
	return c.lookupStats(k, now, &c.stats)
}

// lookupStats is the lookup body with its counter destination injected:
// &c.stats for single lookups, a batch-local accumulator for BatchLookup.
// Entry hit counts and LRU position are per-entry state and always update
// per packet; only the cache-wide counters are redirected.
//
//gf:hotpath
func (c *Cache) lookupStats(k *flow.Key, now int64, s *Stats) (*Entry, bool) {
	if c.bypass != 0 {
		return nil, false
	}
	h := flowtable.HashKey(k)
	if c.limit != c.capacity && h>>sampleShift != 0 {
		return nil, false // outside the miniature's sample: not probed
	}
	e, ref := c.find(k, h)
	if e == nil {
		s.Misses++
		return nil, false
	}
	e.Hits++
	e.LastHit = now
	c.touch(e, ref)
	s.Hits++
	c.observe(1)
	return e, true
}

// BatchLookup accumulates lookup counters locally so a packet batch
// updates the cache-wide Stats once, in Flush, instead of once per
// packet. The zero value is a no-op accumulator whose Lookup must not be
// called; obtain usable values from Cache.BatchLookup.
type BatchLookup struct {
	c     *Cache
	delta Stats
}

// BatchLookup starts a batched lookup sequence against c.
func (c *Cache) BatchLookup() BatchLookup { return BatchLookup{c: c} }

// Lookup is Find with counters deferred to Flush.
//
//gf:hotpath
func (b *BatchLookup) Lookup(k flow.Key, now int64) (*Entry, bool) {
	return b.c.lookupStats(&k, now, &b.delta)
}

// Flush folds the accumulated counters into the cache's Stats — the one
// stats update the whole batch pays. Safe on the zero value.
func (b *BatchLookup) Flush() {
	if b.c == nil {
		return
	}
	b.c.stats.Hits += b.delta.Hits
	b.c.stats.Misses += b.delta.Misses
	b.delta = Stats{}
}

// Insert memoizes the result of processing k. An existing entry for k is
// overwritten. Into a full tier it evicts the least recently used entry
// and reuses its storage, allocating nothing. A bypassing tier (see
// thrashRatio) declines: nothing is stored and the result is nil.
//
//gf:hotpath
func (c *Cache) Insert(k, final flow.Key, v flow.Verdict, now int64) *Entry {
	return c.Memoize(&k, &final, v, now)
}

// InsertCt memoizes a result bound to connection state: the entry is
// meant to serve only while conn still carries epoch and a packet cannot
// transition it, a guard its caller enforces on hit. dir is the memoized
// packet's direction relative to conn. It stays for the benchmark's
// shadow chain until ROADMAP item 15; the datapath memoizes no tracked
// packet.
func (c *Cache) InsertCt(k, final flow.Key, v flow.Verdict, now int64,
	conn *conntrack.Conn, epoch uint64, dir conntrack.Dir) *Entry {
	e := c.Memoize(&k, &final, v, now)
	if e != nil {
		e.Ct, e.CtEpoch, e.CtDir = conn, epoch, dir
	}
	return e
}

// Memoize is the body of Insert and InsertCt, reading both keys in
// place. The entry comes back bound to no connection, or nil from a
// bypassing tier.
//
//gf:hotpath
func (c *Cache) Memoize(k, final *flow.Key, v flow.Verdict, now int64) *Entry {
	if c.bypass != 0 {
		if c.limit != c.mini {
			c.resize(c.mini)
		}
		c.bypass--
		c.stats.Bypassed++
		return nil
	}
	h := flowtable.HashKey(k)
	if c.limit != c.capacity && h>>sampleShift != 0 {
		c.stats.Bypassed++ // outside the miniature's sample
		return nil
	}
	c.observe(0)
	if old, ref := c.find(k, h); old != nil {
		old.Final, old.Verdict, old.LastHit = *final, v, now
		old.Ct, old.CtEpoch, old.CtDir = nil, 0, 0
		c.touch(old, ref)
		return old
	}
	var e *Entry
	var ref uint32
	if c.count >= c.limit {
		// Recycle the LRU tail in place: it leaves the index and the list
		// and comes straight back as the new entry.
		ref = c.lruTail
		e = c.at(ref)
		c.index.Delete(e.hash, ref)
		c.unlink(e, ref)
		c.stats.EvictLRU++
	} else {
		e, ref = c.alloc()
		c.count++
	}
	// Field by field, every field: a recycled entry keeps nothing of its
	// previous life, and no temporary Entry is built to copy from.
	e.Key, e.Final, e.Verdict = *k, *final, v
	e.Hits, e.LastHit = 0, now
	e.Ct, e.CtEpoch, e.CtDir = nil, 0, 0
	e.hash = h
	c.index.Insert(h, ref)
	c.pushFront(e, ref)
	c.stats.Inserts++
	return e
}

// Remove drops the entry for exactly k, counting it as invalidated, and
// reports whether one was present. It stays for the benchmark's shadow
// chain, which drops a memo its guard refuses, until ROADMAP item 15.
func (c *Cache) Remove(k flow.Key) bool {
	e, ref := c.find(&k, flowtable.HashKey(&k))
	if e == nil {
		return false
	}
	c.release(e, ref)
	c.stats.Invalid++
	return true
}

// ExpireIdle removes entries idle for longer than maxIdle, sweeping the
// slab in index order.
func (c *Cache) ExpireIdle(now, maxIdle int64) int {
	n := 0
	for ref := uint32(1); ref <= c.entries.Used(); ref++ {
		if e := c.at(ref); e.hash != 0 && now-e.LastHit > maxIdle {
			c.release(e, ref)
			c.stats.Expired++
			n++
		}
	}
	return n
}

// Invalidate drops every entry; called when pipeline rules change, since
// exact-match entries carry no wildcard against which to revalidate
// incrementally. The index and the slab's chunks are retained (the tier
// is capacity-pinned) and refilled from the first chunk again. The thrash
// detector starts over with it — an emptied tier has no history to be
// judged on — so a rule update also returns a bypassing tier to active,
// and a tier whose miniature stands in to full size.
func (c *Cache) Invalidate() int {
	n := c.count
	c.index.Clear()
	// Resetting the slab drops the entries' connection pointers and marks
	// the storage free.
	c.entries.Reset()
	c.count, c.free, c.lruHead, c.lruTail = 0, 0, 0, 0
	c.events, c.winHits, c.backoff, c.bypass = 0, 0, 0, 0
	if c.limit != c.capacity {
		c.resize(c.capacity)
	}
	c.stats.Invalid += uint64(n)
	return n
}

// alloc hands out slab storage for one more entry: the free list first,
// then the slab's next never-used record.
//
//gf:hotpath
func (c *Cache) alloc() (*Entry, uint32) {
	if ref := c.free; ref != 0 {
		e := c.at(ref)
		c.free = e.next
		return e, ref
	}
	return c.entries.Next()
}

// release takes a live entry out of the index and the LRU list and puts
// its storage on the free list.
//
//gf:hotpath
func (c *Cache) release(e *Entry, ref uint32) {
	c.index.Delete(e.hash, ref)
	c.unlink(e, ref)
	*e = Entry{next: c.free}
	c.free = ref
	c.count--
}

//gf:hotpath
func (c *Cache) pushFront(e *Entry, ref uint32) {
	e.prev, e.next = 0, c.lruHead
	if c.lruHead != 0 {
		c.at(c.lruHead).prev = ref
	}
	c.lruHead = ref
	if c.lruTail == 0 {
		c.lruTail = ref
	}
}

//gf:hotpath
func (c *Cache) unlink(e *Entry, ref uint32) {
	if e.prev != 0 {
		c.at(e.prev).next = e.next
	} else if c.lruHead == ref {
		c.lruHead = e.next
	}
	if e.next != 0 {
		c.at(e.next).prev = e.prev
	} else if c.lruTail == ref {
		c.lruTail = e.prev
	}
	e.prev, e.next = 0, 0
}

//gf:hotpath
func (c *Cache) touch(e *Entry, ref uint32) {
	if c.lruHead == ref {
		return
	}
	c.unlink(e, ref)
	c.pushFront(e, ref)
}
