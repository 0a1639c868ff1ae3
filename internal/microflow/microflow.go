// Package microflow implements OVS's first-level exact-match flow cache:
// one entry per exact flow signature, capturing temporal locality. It
// fronts the Megaflow (or Gigaflow) cache in the software slowpath.
//
// Layout. Entries live in a slab: fixed-size chunks allocated one at a
// time as the tier fills, so an entry's address never changes and a tier
// holding 2 000 flows does not pay for its full capacity. An entry is
// named by its ref — slab index plus one, zero meaning none — and the LRU
// list and the free list are threaded through the entries by ref. Keys
// are found through a separate open-addressing index of {hash, ref}
// slots, 16 bytes each and sized once from the capacity: the key is
// stored once, in the entry, and a probe walks hashes only, touching an
// entry when its full 64-bit hash matches. Inserting into a full tier
// recycles the LRU tail's entry in place: one backshift delete from the
// index, one slot write, no allocation.
//
// Thrash policy. A tier fed flows it will not see again before it has
// evicted them is pure cost: every packet pays a probe and an evicting
// insert, and the slab streams through the CPU cache ahead of the main
// cache's own lines. The tier therefore watches itself (observe) and steps
// aside while that is so; the policy and its constants are stated once,
// beside thrashRatio.
package microflow

import (
	"fmt"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
)

// Entry is one exact-match cache entry: the memoized result of processing
// a specific flow signature. The cache owns the storage and reuses it
// after the entry is evicted or removed; a pointer obtained from Lookup
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
	Bypassed uint64 `json:"bypassed"`    // memoize requests declined while the tier was bypassing
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

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // entries per slab chunk (≈60 KiB)
)

// The thrash policy, whole. The tier counts one event for every hit a
// lookup returns and every memoize request it receives — so a packet that
// ends in the tier is one event however many times it was probed on the
// way (a parked packet is probed twice, served or memoized once). Events
// are grouped into windows of W = max(2 × capacity, minWindow). A window
// that closes holding fewer than W/thrashRatio hits is a thrashing one:
// the tier then bypasses for the next W << b memoize requests, b being
// the number of thrashing windows in a row, capped at maxBackoff. While
// it bypasses, every lookup misses without hashing and every memoize
// request is declined and counted in Stats.Bypassed; nothing else about
// the tier changes, and neither counts as an event. After that it
// observes one more window. A window that closes with W/thrashRatio hits
// or more sets b back to zero. Invalidate returns the tier to active with
// an empty window and b = 0.
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
	// events filling, and reuse shows in the second.
	minWindow = thrashRatio * thrashRatio
	// maxBackoff: the bypass period doubles from 2 windows to at most 16.
	// Starting at 2, a passing scan costs little; capped at 16, a tier
	// that thrashes for good pays for 1 packet in 17, and a workload that
	// turns cacheable is noticed within 16 windows.
	maxBackoff = 4
)

// slot is one cell of the open-addressing index. hash==0 means empty;
// flowtable.HashKey never returns 0.
type slot struct {
	hash uint64
	ref  uint32
}

// Cache is a capacity-bounded exact-match cache with LRU replacement. It
// is not safe for concurrent use.
type Cache struct {
	capacity int
	count    int
	index    []slot // power-of-two, linear probing, at most 3/4 full
	chunks   [][]Entry
	used     uint32 // slab entries handed out at least once
	free     uint32 // head of the free list
	lruHead  uint32
	lruTail  uint32
	lastHash uint64
	stats    Stats

	// Thrash detector: see thrashRatio.
	window  uint64 // W, events per observation window
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
	n := 8
	for n*3/4 < capacity {
		n <<= 1
	}
	return &Cache{capacity: capacity, index: make([]slot, n), window: uint64(max(2*capacity, minWindow))}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return c.count }

// Capacity reports the entry limit.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LastHash returns the key hash of the most recent Lookup: the flow
// identifier latency attribution logs for a microflow hit. Only
// meaningful immediately after the lookup, on the driving goroutine.
func (c *Cache) LastHash() uint64 { return c.lastHash }

// Snapshot captures the cache's current telemetry view.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{Stats: c.stats, Len: c.Len(), Capacity: c.capacity, Bypassing: c.bypass != 0}
}

// observe counts one event into the current window, a hit when hit is 1,
// and closes the window on its last event: see thrashRatio.
//
//gf:hotpath
func (c *Cache) observe(hit uint64) {
	c.winHits += hit
	c.events++
	if c.events < c.window {
		return
	}
	if c.winHits*thrashRatio < c.window {
		if c.backoff < maxBackoff {
			c.backoff++
		}
		c.bypass = c.window << c.backoff
	} else {
		c.backoff = 0
	}
	c.events, c.winHits = 0, 0
}

// at resolves a non-zero ref to its entry.
//
//gf:hotpath
func (c *Cache) at(ref uint32) *Entry {
	i := ref - 1
	return &c.chunks[i>>chunkShift][i&(chunkSize-1)]
}

// find probes the index for the entry holding exactly *k, whose hash is
// h. It returns the entry and its ref, or nil and 0.
//
//gf:hotpath
func (c *Cache) find(k *flow.Key, h uint64) (*Entry, uint32) {
	m := uint64(len(c.index) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := &c.index[i]
		if s.hash == 0 {
			return nil, 0
		}
		if s.hash == h {
			if e := c.at(s.ref); e.Key == *k {
				return e, s.ref
			}
		}
	}
}

// Lookup finds the entry for exactly k. A bypassing tier (see thrashRatio)
// reports a miss without looking.
//
//gf:hotpath
func (c *Cache) Lookup(k flow.Key, now int64) (*Entry, bool) {
	return c.lookupStats(&k, now, &c.stats)
}

// Find is Lookup reading the key in place: the form the datapath uses,
// whose keys already sit in a batch it owns.
//
//gf:hotpath
func (c *Cache) Find(k *flow.Key, now int64) (*Entry, bool) {
	return c.lookupStats(k, now, &c.stats)
}

// lookupStats is the Lookup body with its counter destination injected:
// &c.stats for single lookups, a batch-local accumulator for BatchLookup.
// Entry hit counts and LRU position are per-entry state and always update
// per packet; only the cache-wide counters are redirected.
//
//gf:hotpath
func (c *Cache) lookupStats(k *flow.Key, now int64, s *Stats) (*Entry, bool) {
	if c.bypass != 0 {
		return nil, false
	}
	c.lastHash = flowtable.HashKey(k)
	e, ref := c.find(k, c.lastHash)
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

// Lookup is Cache.Lookup with counters deferred to Flush.
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
		c.bypass--
		c.stats.Bypassed++
		return nil
	}
	c.observe(0)
	h := flowtable.HashKey(k)
	if old, ref := c.find(k, h); old != nil {
		old.Final, old.Verdict, old.LastHit = *final, v, now
		old.Ct, old.CtEpoch, old.CtDir = nil, 0, 0
		c.touch(old, ref)
		return old
	}
	var e *Entry
	var ref uint32
	if c.count >= c.capacity {
		// Recycle the LRU tail in place: it leaves the index and the list
		// and comes straight back as the new entry.
		ref = c.lruTail
		e = c.at(ref)
		c.unindex(e.hash, ref)
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
	m := uint64(len(c.index) - 1)
	i := h & m
	for c.index[i].hash != 0 {
		i = (i + 1) & m
	}
	c.index[i] = slot{hash: h, ref: ref}
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
	for ref := uint32(1); ref <= c.used; ref++ {
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
// judged on — so a rule update also returns a bypassing tier to active.
func (c *Cache) Invalidate() int {
	n := c.count
	clear(c.index)
	// Clearing the slab that was in use drops the entries' connection
	// pointers and marks the storage free.
	for _, ch := range c.chunks[:(int(c.used)+chunkSize-1)>>chunkShift] {
		clear(ch)
	}
	c.count, c.used, c.free, c.lruHead, c.lruTail = 0, 0, 0, 0, 0
	c.events, c.winHits, c.backoff, c.bypass = 0, 0, 0, 0
	c.stats.Invalid += uint64(n)
	return n
}

// alloc hands out slab storage for one more entry: the free list first,
// then the next never-used position, growing the slab by a chunk when the
// last one is full.
//
//gf:hotpath
func (c *Cache) alloc() (*Entry, uint32) {
	if ref := c.free; ref != 0 {
		e := c.at(ref)
		c.free = e.next
		return e, ref
	}
	if int(c.used) == len(c.chunks)*chunkSize {
		c.grow()
	}
	c.used++
	return c.at(c.used), c.used
}

// grow appends one chunk to the slab.
//
//gf:hotpath-safe runs once per 256 entries while a tier fills for the first time, never again once it has reached its high-water mark
func (c *Cache) grow() {
	n := min(chunkSize, c.capacity-len(c.chunks)*chunkSize)
	c.chunks = append(c.chunks, make([]Entry, n))
}

// release takes a live entry out of the index and the LRU list and puts
// its storage on the free list.
//
//gf:hotpath
func (c *Cache) release(e *Entry, ref uint32) {
	c.unindex(e.hash, ref)
	c.unlink(e, ref)
	*e = Entry{next: c.free}
	c.free = ref
	c.count--
}

// unindex deletes the slot naming ref, whose hash is h, from the index.
// Removal backshifts the probe chain: every displaced slot after the hole
// is moved back unless that would skip past its home slot, so no
// tombstones are left behind. The backshift loop is flowtable.Table.Delete's,
// over 16-byte hash-only slots; the wrap-around condition
// (j-home)&m >= (j-i)&m must stay the same in both — fix one, fix the
// other. FuzzMicroflowOps guards this copy, FuzzOpsDifferential that one.
//
//gf:hotpath
func (c *Cache) unindex(h uint64, ref uint32) {
	m := uint64(len(c.index) - 1)
	i := h & m
	for c.index[i].ref != ref {
		i = (i + 1) & m
	}
	for j := i; ; {
		j = (j + 1) & m
		s := c.index[j]
		if s.hash == 0 {
			break
		}
		if home := s.hash & m; (j-home)&m >= (j-i)&m {
			c.index[i] = s
			i = j
		}
	}
	c.index[i] = slot{}
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
