// Package megaflow implements the single-lookup wildcard flow cache that
// Open vSwitch uses as its second-level cache and that the paper treats as
// the state-of-the-art baseline (a Gigaflow configuration with K=1).
//
// Each entry is the composition of one complete pipeline traversal: a match
// over the original packet headers, the set-field commit, and the terminal
// verdict. Entries generated via pipeline.Traversal.Compose are pairwise
// disjoint by construction (the unwildcarding bits guarantee a packet can
// match at most one entry), so lookups need no priorities.
package megaflow

import (
	"fmt"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/tss"
)

// Entry is one cached megaflow rule.
type Entry struct {
	Match   flow.Match
	Commit  flow.Rewrite // header rewrites accumulated over the traversal
	Verdict flow.Verdict
	// Parent is the flow signature whose traversal generated the entry;
	// revalidation replays it through the pipeline.
	Parent flow.Key
	// TraversalLen is the number of pipeline tables the parent traversal
	// spanned; revalidation work is proportional to it.
	TraversalLen int
	// Version is the pipeline version the entry was validated against.
	Version uint64
	// CtConn and CtEpoch tie a connection-dependent entry (one whose
	// traversal resolved a NAT action) to the connection and NAT bindings
	// it was resolved against; CtEpoch zero means connection-independent.
	// The datapath installs no such traversal; they stay for the
	// benchmark's shadow chain, which validates them on hit, until ROADMAP
	// item 15.
	CtConn  flow.Key
	CtEpoch uint64

	Hits    uint64
	LastHit int64 // virtual time of last hit (or creation)
	Created int64

	prev, next *Entry // LRU list, most-recent at front
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Inserts   uint64 `json:"inserts"`
	Replaced  uint64 `json:"replaced"`   // insert found an identical predicate already cached
	EvictLRU  uint64 `json:"evict_lru"`  // removed by capacity pressure
	Expired   uint64 `json:"expired"`    // removed by idle timeout
	Revoked   uint64 `json:"revoked"`    // removed by revalidation
	RevalWork uint64 `json:"reval_work"` // pipeline table lookups spent revalidating
	CtInvalid uint64 `json:"ct_invalid"` // removed by conntrack epoch invalidation
}

// Cache is a capacity-bounded megaflow cache.
type Cache struct {
	capacity int
	cls      *tss.Classifier[*Entry]
	lruHead  *Entry
	lruTail  *Entry
	stats    Stats
	probes   uint64 // TSS tuples probed by lookups (TupleProbes)
	// rule is the scratch Insert and Revalidate compose a traversal into
	// before deciding whether an entry has to be built or removed.
	rule pipeline.Composed
}

// New creates a megaflow cache holding at most capacity entries.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("megaflow: bad capacity %d", capacity))
	}
	return &Cache{capacity: capacity, cls: tss.New[*Entry]()}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return c.cls.Len() }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// NumMasks reports the number of distinct masks (TSS tuples); lookup cost
// is proportional to it.
func (c *Cache) NumMasks() int { return c.cls.NumTuples() }

// TupleProbes reports the cumulative TSS tuple probes of every lookup —
// the software search work a CPU-resident cache would spend (Fig. 17's
// TSS cost).
func (c *Cache) TupleProbes() uint64 { return c.probes }

// Snapshot bundles the cache's counters and occupancy for telemetry
// export. Not safe for concurrent use with cache mutation; call from the
// goroutine driving the cache.
type Snapshot struct {
	Stats
	Len         int    `json:"len"`
	Capacity    int    `json:"capacity"`
	Masks       int    `json:"masks"` // distinct TSS tuples
	TupleProbes uint64 `json:"tuple_probes"`
}

// Snapshot captures the cache's current telemetry view.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{Stats: c.stats, Len: c.Len(), Capacity: c.capacity,
		Masks: c.NumMasks(), TupleProbes: c.TupleProbes()}
}

// CollectMetrics mirrors the cache's counters and occupancy into reg under
// the given worker label: the Megaflow block of the metric names README's
// Observability section documents. Like Snapshot, call it from the
// goroutine driving the cache.
func (c *Cache) CollectMetrics(reg *telemetry.Registry, worker string) {
	counter := func(name, help string, val uint64) {
		reg.CounterVec(name, help, "worker").With(worker).Set(val)
	}
	gauge := func(name, help string, val float64) {
		reg.GaugeVec(name, help, "worker").With(worker).Set(val)
	}
	churn := reg.CounterVec("gigaflow_cache_evictions_total",
		"Main-cache entries removed, by cause.", "worker", "reason")
	ms := c.Snapshot()
	counter("gigaflow_cache_inserts_total", "Entries created in the main cache.", ms.Inserts)
	churn.With(worker, "lru").Set(ms.EvictLRU)
	churn.With(worker, "expired").Set(ms.Expired)
	churn.With(worker, "revoked").Set(ms.Revoked)
	counter("gigaflow_megaflow_replaced_total", "Entries replaced by an equal-mask reinstall.", ms.Replaced)
	gauge("gigaflow_cache_capacity", "Total main-cache entry capacity.", float64(ms.Capacity))
	gauge("gigaflow_megaflow_masks", "Distinct TSS tuples in the Megaflow cache.", float64(ms.Masks))
	counter("gigaflow_tuple_probes_total", "TSS tuple probes across lookups.", ms.TupleProbes)
	counter("gigaflow_reval_work_total", "Pipeline table lookups spent revalidating.", ms.RevalWork)
}

// Tier names the cache in latency attribution and telemetry.
func (c *Cache) Tier() telemetry.Tier { return telemetry.TierMegaflow }

// Coverage reports the cache's rule-space coverage (Table 2): one complete
// traversal per entry, so the entry count.
func (c *Cache) Coverage() uint64 { return uint64(c.Len()) }

// lookupStats finds the entry matching k, updating hit/miss statistics
// and LRU position, with its counter destination injected: &c.stats for
// single lookups, a batch-local accumulator for BatchLookup.
// Entry hit counts and LRU position always update per packet; only the
// cache-wide counters are redirected.
//
//gf:hotpath
func (c *Cache) lookupStats(k *flow.Key, now int64, s *Stats) (*Entry, bool) {
	ent, probes, ok := c.cls.LookupValue(k)
	c.probes += uint64(probes)
	if !ok {
		s.Misses++
		return nil, false
	}
	ent.Hits++
	ent.LastHit = now
	c.touch(ent)
	s.Hits++
	return ent, true
}

// Find looks k up in the datapath's form: the key is read in place and,
// on a hit, the matched entry applied to a copy of it in *final; on a
// miss *final is left alone.
//
//gf:hotpath
func (c *Cache) Find(k *flow.Key, now int64, final *flow.Key) (flow.Verdict, bool) {
	ent, ok := c.lookupStats(k, now, &c.stats)
	if !ok {
		return flow.Verdict{}, false
	}
	*final = *k
	ent.Commit.Apply(final)
	return ent.Verdict, true
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

// Lookup finds the entry matching k, with counters deferred to Flush.
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

// Apply executes a cached entry against a key.
func (e *Entry) Apply(k flow.Key) (flow.Key, flow.Verdict) {
	e.Commit.Apply(&k)
	return k, e.Verdict
}

// Insert compiles a traversal into a megaflow entry and installs it,
// evicting the least-recently-used entry when the cache is full, and
// returns the entry. The traversal is only read.
func (c *Cache) Insert(tr *pipeline.Traversal, now int64) *Entry {
	tr.ComposeInto(0, tr.Len(), &c.rule)
	match := &c.rule.Match
	if old := c.cls.GetMatch(match, 0); old != nil {
		// Same predicate already cached (another packet of the same
		// megaflow raced through the slowpath): refresh it.
		c.unlink(old.Value)
		c.cls.DeleteMatch(match, 0)
		c.stats.Replaced++
	} else if c.cls.Len() >= c.capacity {
		c.removeEntry(c.lruTail)
		c.stats.EvictLRU++
	}
	ent := &Entry{
		Match:        *match,
		Commit:       c.rule.Commit,
		Verdict:      tr.Verdict,
		Parent:       tr.Input,
		TraversalLen: tr.Len(),
		Version:      tr.Version,
		CtConn:       tr.CtConn,
		CtEpoch:      tr.CtEpoch,
		LastHit:      now,
		Created:      now,
	}
	c.cls.Insert(&tss.Entry[*Entry]{Match: *match, Priority: 0, Value: ent})
	c.pushFront(ent)
	c.stats.Inserts++
	return ent
}

// Install is Insert as the datapath calls it: the traversal always goes
// in, and evicted reports whether it pushed a resident entry out by LRU.
// A Megaflow entry is a whole traversal, so the cache reports no Stall and
// is only ever handed table 0, which it does not read.
func (c *Cache) Install(tr *pipeline.Traversal, table int, now int64) (ok, evicted bool) {
	lru := c.stats.EvictLRU
	c.Insert(tr, now)
	return true, c.stats.EvictLRU > lru
}

// Stall reports no stall: a Megaflow lookup matches one whole-traversal
// entry or nothing, so a miss leaves no prefix to resume from.
func (c *Cache) Stall() (next, table, span int) { return 0, 0, 0 }

// removeEntry unlinks and deletes an entry from both structures.
func (c *Cache) removeEntry(ent *Entry) {
	c.unlink(ent)
	c.cls.DeleteMatch(&ent.Match, 0)
}

// Remove evicts a connection-dependent entry whose epoch check failed.
// The entry must have come from this cache's Lookup. It stays for the
// benchmark's shadow chain until ROADMAP item 15.
func (c *Cache) Remove(ent *Entry) {
	c.removeEntry(ent)
	c.stats.CtInvalid++
}

// ExpireIdle removes entries whose last hit is older than maxIdle,
// mirroring OVS's max-idle revalidator sweep (§4.3.2). Returns the number
// removed.
func (c *Cache) ExpireIdle(now, maxIdle int64) int {
	var stale []*Entry
	c.cls.Range(func(e *tss.Entry[*Entry]) bool {
		if now-e.Value.LastHit > maxIdle {
			stale = append(stale, e.Value)
		}
		return true
	})
	for _, ent := range stale {
		c.removeEntry(ent)
		c.stats.Expired++
	}
	return len(stale)
}

// Revalidate checks every entry against the current pipeline state
// (§4.3.1): the parent flow is replayed and the entry is evicted when its
// match, commit, or verdict no longer agrees. Entries already validated at
// the current pipeline version are skipped. Returns the number evicted and
// the work performed (pipeline table lookups).
func (c *Cache) Revalidate(p *pipeline.Pipeline) (evicted int, work int) {
	var bad []*Entry
	var tr pipeline.Traversal // refilled per entry, its storage reused
	c.cls.Range(func(e *tss.Entry[*Entry]) bool {
		ent := e.Value
		if ent.Version == p.Version {
			return true
		}
		if err := p.ProcessInto(&tr, &ent.Parent, nil); err != nil {
			bad = append(bad, ent)
			return true
		}
		work += tr.Len()
		tr.ComposeInto(0, tr.Len(), &c.rule)
		if !c.rule.Match.EqualTo(&ent.Match) || c.rule.Commit != ent.Commit || tr.Verdict != ent.Verdict {
			bad = append(bad, ent)
		} else {
			ent.Version = p.Version
		}
		return true
	})
	for _, ent := range bad {
		c.removeEntry(ent)
		c.stats.Revoked++
	}
	c.stats.RevalWork += uint64(work)
	return len(bad), work
}

// RevalidateAgainst is Revalidate under the name the datapath's backend
// interface gives it (the Gigaflow cache's Revalidate takes no pipeline).
func (c *Cache) RevalidateAgainst(p *pipeline.Pipeline) (evicted, work int) {
	return c.Revalidate(p)
}

// --- LRU list maintenance ---

func (c *Cache) pushFront(e *Entry) {
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

func (c *Cache) unlink(e *Entry) {
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

func (c *Cache) touch(e *Entry) {
	if c.lruHead == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
