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

	// Ct, CtEpoch, and CtDir tie a conntrack-mode entry to the connection
	// state it memoized: the entry only serves while the connection still
	// carries CtEpoch and the packet cannot transition it (the datapath's
	// fast-path guard). Nil Ct means the result is connection-independent.
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
	Misses   uint64 `json:"misses"`
	Inserts  uint64 `json:"inserts"`
	EvictLRU uint64 `json:"evict_lru"`
	Expired  uint64 `json:"expired"`
	Invalid  uint64 `json:"invalidated"` // removed by Invalidate
}

// Snapshot bundles the cache's counters and occupancy for telemetry
// export. Not safe for concurrent use with cache mutation; call from the
// goroutine driving the cache.
type Snapshot struct {
	Stats
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
}

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // entries per slab chunk (≈60 KiB)
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
	return &Cache{capacity: capacity, index: make([]slot, n)}
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
	return Snapshot{Stats: c.stats, Len: c.Len(), Capacity: c.capacity}
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

// Lookup finds the entry for exactly k.
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
// and reuses its storage, allocating nothing.
//
//gf:hotpath
func (c *Cache) Insert(k, final flow.Key, v flow.Verdict, now int64) *Entry {
	return c.Memoize(&k, &final, v, now)
}

// InsertCt memoizes a conntrack-mode result bound to connection state:
// the entry serves only while conn still carries epoch and a packet
// cannot transition it (the datapath enforces the guard on hit). dir is
// the memoized packet's direction relative to conn.
//
//gf:hotpath
func (c *Cache) InsertCt(k, final flow.Key, v flow.Verdict, now int64,
	conn *conntrack.Conn, epoch uint64, dir conntrack.Dir) *Entry {
	return c.MemoizeCt(&k, &final, v, now, conn, epoch, dir)
}

// MemoizeCt is InsertCt reading both keys in place.
//
//gf:hotpath
func (c *Cache) MemoizeCt(k, final *flow.Key, v flow.Verdict, now int64,
	conn *conntrack.Conn, epoch uint64, dir conntrack.Dir) *Entry {
	e := c.Memoize(k, final, v, now)
	e.Ct, e.CtEpoch, e.CtDir = conn, epoch, dir
	return e
}

// Memoize is the body of Insert and InsertCt, reading both keys in
// place. The entry comes back bound to no connection.
//
//gf:hotpath
func (c *Cache) Memoize(k, final *flow.Key, v flow.Verdict, now int64) *Entry {
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

// Remove drops the entry for exactly k — the conntrack invalidation
// hook: the datapath calls it when an entry's connection state moved on
// (epoch mismatch or a possible transition), counting the removal as an
// invalidation. Reports whether an entry was present.
//
//gf:hotpath
func (c *Cache) Remove(k flow.Key) bool { return c.Drop(&k) }

// Drop is the body of Remove, reading the key in place.
//
//gf:hotpath
func (c *Cache) Drop(k *flow.Key) bool {
	e, ref := c.find(k, flowtable.HashKey(k))
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
// is capacity-pinned) and refilled from the first chunk again.
func (c *Cache) Invalidate() int {
	n := c.count
	clear(c.index)
	// Clearing the slab that was in use drops the entries' connection
	// pointers and marks the storage free.
	for _, ch := range c.chunks[:(int(c.used)+chunkSize-1)>>chunkShift] {
		clear(ch)
	}
	c.count, c.used, c.free, c.lruHead, c.lruTail = 0, 0, 0, 0, 0
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
