package gigaflow

import (
	"fmt"
	"math/rand"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/tss"
)

// TagDone marks an LTM entry that terminates its traversal (the packet is
// output or dropped; no further cache table is consulted).
const TagDone = -2

// Entry is one LTM cache rule: ⟨M_k, ω_k, ρ_k, τ_k, α_k⟩ of §4.2.3. The
// match is ternary over the flow fields; the table tag τ is matched
// exactly; the priority ρ equals the sub-traversal's span in pipeline
// tables (Longest Traversal Matching).
//
// Field order is layout: everything a hit reads or writes — the action α,
// the counters, the LRU links — leads the struct, so it occupies the
// entry's first two cache lines; the ~450 bytes only installation,
// revalidation and introspection read follow.
type Entry struct {
	// Commit is the set-field part of α: the header rewrites accumulated
	// across the sub-traversal.
	Commit []flow.Action
	// nextSlot and slot are NextTag and Tag in the owning cache's dense
	// tag numbering (tagSlots), resolved once at install: the hit path
	// follows nextSlot and never reads the tags themselves.
	nextSlot, slot int32
	// Terminal marks the traversal-ending sub-traversal; Verdict is its
	// output/drop decision.
	Terminal bool
	Verdict  flow.Verdict

	Hits    uint64
	LastHit int64

	table      *ltmTable
	prev, next *Entry // per-table LRU

	// Tag is τ: the vSwitch pipeline table ID at which this sub-traversal
	// starts. A packet matches the entry only while its metadata tag equals
	// Tag.
	Tag int
	// NextTag is the tag update in α: the pipeline table expected after
	// this sub-traversal, or TagDone when Terminal.
	NextTag int
	// The embedded classifier node carries Match — M_k over ω_k, the
	// flow-state predicate at sub-traversal entry — and Priority — ρ, the
	// number of pipeline tables spanned; LTM picks the longest span among
	// matching entries in a table. Embedding it makes a resident entry one
	// object holding one copy of its predicate; Value points back at the
	// entry and neither it nor Match nor Priority may change while the
	// entry is installed.
	tss.Entry[*Entry]
	// Parent is the flow state entering the sub-traversal when it was
	// created; revalidation replays it from Tag for Priority steps.
	Parent flow.Key
	// Version is the pipeline version last validated against.
	Version uint64
	// Installs counts how many slowpath traversals produced this entry —
	// the sub-traversal sharing frequency of Fig. 11.
	Installs uint64
	// CtConn and CtEpoch tie a connection-dependent entry (one whose
	// sub-traversal resolved a NAT action) to the connection and NAT
	// bindings it was resolved against; CtEpoch zero means
	// connection-independent. The datapath validates the pair against the
	// conntrack table on hit.
	CtConn  flow.Key
	CtEpoch uint64

	Created int64
}

// String renders the entry compactly.
func (e *Entry) String() string {
	next := fmt.Sprintf("tag:=%d", e.NextTag)
	if e.Terminal {
		next = e.Verdict.String()
	}
	return fmt.Sprintf("ltm{τ=%d ρ=%d %s -> %v, %s}", e.Tag, e.Priority, e.Match, e.Commit, next)
}

// TableIndex reports which LTM cache table (GF_k) holds the entry, or -1
// for an entry not currently installed — never installed, or since
// evicted, expired, revoked or replaced.
func (e *Entry) TableIndex() int {
	if e.table == nil {
		return -1
	}
	return e.table.idx
}

// TableStats counts per-LTM-table cache events, the per-table view the
// telemetry layer exports (occupancy and capacity live alongside them in
// TableSnapshot).
type TableStats struct {
	// Hits counts lookups that matched an entry in this table (every table
	// on a hit chain counts, not just the terminal one).
	Hits uint64 `json:"hits"`
	// Inserts counts fresh entries created in this table.
	Inserts uint64 `json:"inserts"`
	// EvictLRU/Expired/Revoked count removals by cause (capacity pressure,
	// idle timeout, revalidation).
	EvictLRU uint64 `json:"evict_lru"`
	Expired  uint64 `json:"expired"`
	Revoked  uint64 `json:"revoked"`
}

// tagSlots numbers the tags one cache has seen 0, 1, 2, … in order of
// first sight. Tags are pipeline table IDs — any int, sparse, huge or
// negative — so the tables index their classifier groups by slot, never by
// the raw tag; only installation consults the map. A cache sees at most one
// tag per pipeline table, so the numbering stays as small as the pipeline.
type tagSlots map[int]int32

// assign returns tag's slot, numbering the tag if it is new.
func (s tagSlots) assign(tag int) int32 {
	slot, ok := s[tag]
	if !ok {
		slot = int32(len(s))
		s[tag] = slot
	}
	return slot
}

// ltmTable is one hardware cache table GF_k: ternary entries grouped by
// exact tag, with per-table capacity and LRU order.
type ltmTable struct {
	idx      int
	capacity int
	// slots is the owning cache's tag numbering, shared by its tables.
	slots tagSlots
	// bySlot holds one classifier per resident tag, indexed by the tag's
	// slot, so the lookup is a bounds check and a load. Nil where no entry
	// carries the tag.
	bySlot  []*tss.Classifier[*Entry]
	tags    int // non-nil bySlot elements
	count   int
	lruHead *Entry
	lruTail *Entry
	stats   TableStats
}

// classifier returns the classifier group for the tag numbered slot, or
// nil.
//
//gf:hotpath
func (t *ltmTable) classifier(slot int32) *tss.Classifier[*Entry] {
	if uint(slot) >= uint(len(t.bySlot)) {
		return nil
	}
	return t.bySlot[slot]
}

// lookup probes the classifier group for the tag numbered slot, returning
// the best match and the number of tuple probes spent.
//
//gf:hotpath
func (t *ltmTable) lookup(slot int32, k *flow.Key) (*Entry, int) {
	cls := t.classifier(slot)
	if cls == nil {
		return nil, 0
	}
	e, probes, _ := cls.LookupValue(k)
	return e, probes
}

// get returns the entry with exactly tag, predicate *m and priority, or
// nil.
//
//gf:hotpath
func (t *ltmTable) get(tag int, m *flow.Match, prio int) *Entry {
	slot, ok := t.slots[tag]
	if !ok {
		return nil
	}
	cls := t.classifier(slot)
	if cls == nil {
		return nil
	}
	n := cls.GetMatch(m, prio)
	if n == nil {
		return nil
	}
	return n.Value
}

func (t *ltmTable) insert(e *Entry) {
	e.slot, e.nextSlot = t.slots.assign(e.Tag), -1
	if !e.Terminal {
		e.nextSlot = t.slots.assign(e.NextTag)
	}
	cls := t.classifier(e.slot)
	if cls == nil {
		cls = tss.New[*Entry]()
		for len(t.bySlot) <= int(e.slot) {
			t.bySlot = append(t.bySlot, nil)
		}
		t.bySlot[e.slot] = cls
		t.tags++
	}
	e.Value = e
	cls.Insert(&e.Entry)
	e.table = t
	t.count++
	t.pushFront(e)
}

// remove takes e out of the table, reporting whether it was resident: an
// entry that already left — evicted, expired, revoked or replaced, whoever
// still holds the pointer — is left alone, and so is whatever entry has
// taken over its predicate since.
func (t *ltmTable) remove(e *Entry) bool {
	if e == nil || e.table != t {
		return false
	}
	cls := t.classifier(e.slot)
	if cls == nil || !cls.Remove(&e.Entry) {
		return false
	}
	e.table = nil
	t.count--
	t.unlink(e)
	if cls.Len() == 0 {
		t.bySlot[e.slot] = nil
		t.tags--
	}
	return true
}

func (t *ltmTable) pushFront(e *Entry) {
	e.prev = nil
	e.next = t.lruHead
	if t.lruHead != nil {
		t.lruHead.prev = e
	}
	t.lruHead = e
	if t.lruTail == nil {
		t.lruTail = e
	}
}

func (t *ltmTable) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if t.lruHead == e {
		t.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if t.lruTail == e {
		t.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (t *ltmTable) touch(e *Entry) {
	if t.lruHead == e {
		return
	}
	t.unlink(e)
	t.pushFront(e)
}

// entries returns the table's entries in the deterministic classifier
// order.
func (t *ltmTable) entries() []*Entry {
	return t.appendEntries(make([]*Entry, 0, t.count), nil)
}

// appendEntries appends to out the entries keep accepts (all of them when
// keep is nil), in entries' order.
func (t *ltmTable) appendEntries(out []*Entry, keep func(*Entry) bool) []*Entry {
	for _, cls := range t.bySlot {
		if cls == nil {
			continue
		}
		cls.Range(func(n *tss.Entry[*Entry]) bool {
			if keep == nil || keep(n.Value) {
				out = append(out, n.Value)
			}
			return true
		})
	}
	return out
}

// Stats counts Gigaflow cache events.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stalls are misses where the packet matched a partial entry chain but
	// the tag sequence never reached a terminal entry.
	Stalls uint64 `json:"stalls"`
	// InsertedTraversals counts traversals the slowpath compiled into the
	// cache; EntriesCreated the fresh LTM entries that produced;
	// SharedReuse the sub-traversals that were already present (the
	// pipeline-aware sharing the design exploits).
	InsertedTraversals uint64 `json:"inserted_traversals"`
	EntriesCreated     uint64 `json:"entries_created"`
	SharedReuse        uint64 `json:"shared_reuse"`
	Conflicts          uint64 `json:"conflicts"` // same ⟨τ,M,ρ⟩ with different actions; replaced
	Rejected           uint64 `json:"rejected"`  // traversal not installed: target tables full
	EvictLRU           uint64 `json:"evict_lru"`
	Expired            uint64 `json:"expired"`
	Revoked            uint64 `json:"revoked"`
	CtInvalid          uint64 `json:"ct_invalid"` // removed by conntrack epoch invalidation
	RevalWork          uint64 `json:"reval_work"` // pipeline table lookups spent revalidating
	// TablesProbed counts per-lookup table consultations, and TupleProbes
	// the TSS tuple probes within them — the software search work a
	// CPU-resident Gigaflow cache would spend (Fig. 17).
	TablesProbed uint64 `json:"tables_probed"`
	TupleProbes  uint64 `json:"tuple_probes"`
}

// HitRate returns Hits / (Hits+Misses), or 0 when idle.
func (s *Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Config parameterises a Gigaflow cache.
type Config struct {
	// NumTables is K, the number of feed-forward LTM tables (paper: 4).
	NumTables int
	// TableCapacity is the per-table entry limit (paper: 8K).
	TableCapacity int
	// Scheme selects the partitioning strategy (default SchemeDisjoint).
	Scheme Scheme
	// Seed drives SchemeRandom.
	Seed int64
	// NoLRUEviction makes installs fail when a target table is full
	// instead of evicting its least-recently-used entry.
	NoLRUEviction bool
	// Adaptive enables §7's traffic-profile-guided fallback: when the
	// recent sub-traversal sharing rate drops below AdaptiveTuning's
	// threshold, traversals are installed as single whole-traversal
	// entries (Megaflow behaviour) until sharing recovers.
	Adaptive bool
	// AdaptiveTuning adjusts the adaptation thresholds; zero values take
	// defaults.
	AdaptiveTuning AdaptiveConfig
}

// Cache is the Gigaflow LTM cache: K capacity-bounded ternary tables in a
// feed-forward pipeline.
type Cache struct {
	cfg      Config
	pipe     *pipeline.Pipeline
	startTag int
	// startSlot is startTag in the cache's tag numbering (see tagSlots).
	startSlot int32
	tables    []*ltmTable
	rng       *rand.Rand
	stats     Stats
	adapt     *adaptState
	// path is the reusable match-path buffer handed out as Result.Path.
	// Sized to K at construction so the hot-path Lookup never grows it.
	path []*Entry
	// observeInsert marks whether the in-flight InsertPartition should
	// feed the adaptive estimator (partitioned inserts only).
	observeInsert bool

	// Install scratch. The cache is single-goroutine and installs one
	// traversal at a time, so one of each serves every miss: the
	// partitioner's DP table, one composed candidate per table, the probe
	// candidate SchemeProfile's residency check composes into, and the
	// buffer handed out as Insert's result.
	dp        partitioner
	cands     []candidate
	probe     candidate
	installed []*Entry
	// replay is the traversal Revalidate re-derives each entry into, and
	// victims the buffer a sweep collects its removals in.
	replay  pipeline.Traversal
	victims []*Entry
}

// New creates a Gigaflow cache bound to a pipeline (the pipeline defines
// the start tag and is replayed during revalidation).
func New(p *pipeline.Pipeline, cfg Config) *Cache {
	if cfg.NumTables <= 0 || cfg.TableCapacity <= 0 {
		panic(fmt.Sprintf("gigaflow: bad config %+v", cfg))
	}
	c := &Cache{
		cfg:      cfg,
		pipe:     p,
		startTag: p.Start,
		tables:   make([]*ltmTable, cfg.NumTables),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		path:     make([]*Entry, 0, cfg.NumTables),

		cands:     make([]candidate, cfg.NumTables),
		installed: make([]*Entry, 0, cfg.NumTables),
	}
	slots := tagSlots{}
	c.startSlot = slots.assign(p.Start)
	for i := range c.tables {
		c.tables[i] = &ltmTable{idx: i, capacity: cfg.TableCapacity, slots: slots}
	}
	if cfg.Adaptive {
		c.adapt = &adaptState{cfg: cfg.AdaptiveTuning.withDefaults()}
	}
	return c
}

// NumTables reports K.
func (c *Cache) NumTables() int { return len(c.tables) }

// Len reports the total entries across all tables.
func (c *Cache) Len() int {
	n := 0
	for _, t := range c.tables {
		n += t.count
	}
	return n
}

// TableLen reports the entry count of table i.
func (c *Cache) TableLen(i int) int { return c.tables[i].count }

// Capacity reports the total entry capacity (K × per-table).
func (c *Cache) Capacity() int { return c.cfg.NumTables * c.cfg.TableCapacity }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// TableSnapshot describes one LTM table for introspection: counters plus
// occupancy.
type TableSnapshot struct {
	Index    int `json:"index"`
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
	// Tags is the number of distinct pipeline-table tags resident (each is
	// one TSS classifier group).
	Tags int `json:"tags"`
	TableStats
}

// TableSnapshot reports table i's counters and occupancy.
func (c *Cache) TableSnapshot(i int) TableSnapshot {
	t := c.tables[i]
	return TableSnapshot{Index: i, Len: t.count, Capacity: t.capacity,
		Tags: t.tags, TableStats: t.stats}
}

// Snapshot bundles cache-wide counters, occupancy, and the per-table view
// for telemetry export. Not safe for concurrent use with cache mutation;
// call from the goroutine driving the cache.
type Snapshot struct {
	Stats
	Len      int             `json:"len"`
	Capacity int             `json:"capacity"`
	Tables   []TableSnapshot `json:"tables"`
}

// Snapshot captures the cache's current telemetry view.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{Stats: c.stats, Len: c.Len(), Capacity: c.Capacity()}
	s.Tables = make([]TableSnapshot, len(c.tables))
	for i := range c.tables {
		s.Tables[i] = c.TableSnapshot(i)
	}
	return s
}

// CollectMetrics mirrors the cache's counters and per-table statistics into
// reg under the given worker label: the Gigaflow block of the metric names
// README's Observability section documents. Like Snapshot, call it from
// the goroutine driving the cache.
func (c *Cache) CollectMetrics(reg *telemetry.Registry, worker string) {
	counter := func(name, help string, val uint64) {
		reg.CounterVec(name, help, "worker").With(worker).Set(val)
	}
	churn := reg.CounterVec("gigaflow_cache_evictions_total",
		"Main-cache entries removed, by cause.", "worker", "reason")
	gs := c.stats
	counter("gigaflow_cache_inserts_total", "Entries created in the main cache.", gs.EntriesCreated)
	churn.With(worker, "lru").Set(gs.EvictLRU)
	churn.With(worker, "expired").Set(gs.Expired)
	churn.With(worker, "revoked").Set(gs.Revoked)
	counter("gigaflow_cache_stalls_total", "Misses that matched a partial entry chain.", gs.Stalls)
	counter("gigaflow_shared_reuse_total", "Sub-traversal installs deduplicated against resident entries.", gs.SharedReuse)
	counter("gigaflow_conflicts_total", "Entries replaced due to same-predicate conflicts.", gs.Conflicts)
	counter("gigaflow_tables_probed_total", "LTM table consultations across lookups.", gs.TablesProbed)
	counter("gigaflow_tuple_probes_total", "TSS tuple probes across lookups.", gs.TupleProbes)
	counter("gigaflow_reval_work_total", "Pipeline table lookups spent revalidating.", gs.RevalWork)
	reg.GaugeVec("gigaflow_cache_capacity", "Total main-cache entry capacity.", "worker").
		With(worker).Set(float64(c.Capacity()))
	tc := func(name, help string, table string, val uint64) {
		reg.CounterVec(name, help, "worker", "table").With(worker, table).Set(val)
	}
	tg := func(name, help string, table string, val float64) {
		reg.GaugeVec(name, help, "worker", "table").With(worker, table).Set(val)
	}
	te := reg.CounterVec("gigaflow_table_evictions_total",
		"Entries removed from this LTM table, by cause.", "worker", "table", "reason")
	for i := range c.tables {
		ts := c.TableSnapshot(i)
		tl := fmt.Sprintf("%d", i)
		tc("gigaflow_table_hits_total", "Entry matches in this LTM table.", tl, ts.Hits)
		tc("gigaflow_table_inserts_total", "Entries created in this LTM table.", tl, ts.Inserts)
		tg("gigaflow_table_occupancy", "Resident entries in this LTM table.", tl, float64(ts.Len))
		tg("gigaflow_table_capacity", "Entry capacity of this LTM table.", tl, float64(ts.Capacity))
		tg("gigaflow_table_tags", "Distinct pipeline-table tags resident in this LTM table.", tl, float64(ts.Tags))
		te.With(worker, tl, "lru").Set(ts.EvictLRU)
		te.With(worker, tl, "expired").Set(ts.Expired)
		te.With(worker, tl, "revoked").Set(ts.Revoked)
	}
}

// Result is the outcome of one LTM cache lookup.
type Result struct {
	Hit     bool
	Verdict flow.Verdict
	Final   flow.Key // flow state after all matched commits (valid on hit)
	Path    []*Entry // entries matched, in table order
}

// Lookup walks the K feed-forward tables with LTM semantics: in each table
// the packet may match at most one entry (highest ρ among entries with the
// current tag), applying its rewrites and tag update; tables whose entries
// do not carry the current tag are skipped. The lookup hits iff a terminal
// entry fires.
//
// Result.Path aliases a buffer owned by the cache and is only valid until
// the next Lookup; callers that need to keep it must copy. The cache is
// single-goroutine by design (the paper dedicates one core to the
// slowpath), so the shared buffer is safe.
//
//gf:hotpath
func (c *Cache) Lookup(k flow.Key, now int64) (r Result) {
	c.result(&k, now, &c.stats, &r)
	return r
}

// result runs one lookup and reports it in *r, built in place, for the
// callers that want the by-value form.
//
//gf:hotpath
func (c *Cache) result(k *flow.Key, now int64, s *Stats, r *Result) {
	r.Verdict, r.Hit = c.find(k, now, s, &r.Final)
	if !r.Hit {
		r.Final = flow.Key{}
	}
	r.Path = c.path
}

// Find is Lookup in the datapath's form: the key is read in place and
// copied once, into *final, where every matched commit rewrites it. On a
// hit *final is the flow state after all matched commits; on a miss it is
// unspecified. The matched entries stay in the cache-owned hit path until
// the next lookup, for DropStale and TraceHit.
//
//gf:hotpath
func (c *Cache) Find(k *flow.Key, now int64, final *flow.Key) (flow.Verdict, bool) {
	return c.find(k, now, &c.stats, final)
}

// find is the lookup body with its counter destination injected: &c.stats
// for single lookups, a batch-local accumulator for BatchLookup. Per-table
// hit counts, entry hit counts, and LRU positions always update per
// packet; only the cache-wide counters are redirected.
//
//gf:hotpath
func (c *Cache) find(k *flow.Key, now int64, s *Stats, final *flow.Key) (flow.Verdict, bool) {
	slot := c.startSlot
	*final = *k
	c.path = c.path[:0]
	for _, t := range c.tables {
		s.TablesProbed++
		e, probes := t.lookup(slot, final)
		s.TupleProbes += uint64(probes)
		if e == nil {
			continue
		}
		t.stats.Hits++
		c.path = append(c.path, e)
		flow.ApplyTo(final, e.Commit)
		if e.Terminal {
			for _, pe := range c.path {
				pe.Hits++
				pe.LastHit = now
				pe.table.touch(pe)
			}
			s.Hits++
			return e.Verdict, true
		}
		slot = e.nextSlot
	}
	s.Misses++
	if len(c.path) > 0 {
		s.Stalls++
	}
	return flow.Verdict{}, false
}

// DropStale validates the last Find's hit path against the conntrack
// table: the tuple of every connection-dependent entry on it must still
// resolve to the live connection the entry was resolved against, bound as
// it was then (conntrack.Table.EpochValid). A state transition since is
// not staleness: each entry matched the packet's ct_state bits wherever a
// rule it crossed read them. Stale entries are removed — the invalidation
// protocol's eager half (the lazy half is epoch poisoning; see
// internal/conntrack) — and counted in the result; a non-zero result
// means the hit must not be used. Only entries on the hit path are ever
// touched.
//
//gf:hotpath
func (c *Cache) DropStale(ct *conntrack.Table) (removed int) {
	for _, e := range c.path {
		if e.CtEpoch != 0 && !ct.EpochValidKey(&e.CtConn, e.CtEpoch) {
			c.Remove(e)
			removed++
		}
	}
	return removed
}

// TraceHit annotates a sampled packet's trace with the entries the last
// Find matched, one ltm-table stage each.
//
//gf:hotpath-safe sampled packets only: appends one stage per matched table to the trace
func (c *Cache) TraceHit(tb *telemetry.TraceBuilder) {
	for _, e := range c.path {
		tb.Note("ltm-table", e.TableIndex(), e.Tag, e.Priority)
	}
}

// Tier names the cache in latency attribution, traces and telemetry.
func (c *Cache) Tier() telemetry.Tier { return telemetry.TierGigaflow }

// BatchLookup accumulates the cache-wide lookup counters (hits, misses,
// stalls, probe totals) locally so a packet batch updates Stats once, in
// Flush, instead of once per packet. Results alias the same cache-owned
// Path buffer as Lookup. The zero value is a no-op accumulator whose
// Lookup must not be called; obtain usable values from Cache.BatchLookup.
type BatchLookup struct {
	c     *Cache
	delta Stats
}

// BatchLookup starts a batched lookup sequence against c.
func (c *Cache) BatchLookup() BatchLookup { return BatchLookup{c: c} }

// Lookup is Cache.Lookup with counters deferred to Flush.
//
//gf:hotpath
func (b *BatchLookup) Lookup(k flow.Key, now int64) (r Result) {
	b.c.result(&k, now, &b.delta, &r)
	return r
}

// Flush folds the accumulated counters into the cache's Stats — the one
// stats update the whole batch pays. Safe on the zero value.
func (b *BatchLookup) Flush() {
	if b.c == nil {
		return
	}
	s := &b.c.stats
	s.Hits += b.delta.Hits
	s.Misses += b.delta.Misses
	s.Stalls += b.delta.Stalls
	s.TablesProbed += b.delta.TablesProbed
	s.TupleProbes += b.delta.TupleProbes
	b.delta = Stats{}
}

// Peek is Lookup without statistics or LRU side effects.
func (c *Cache) Peek(k flow.Key) Result {
	slot := c.startSlot
	var path []*Entry
	for _, t := range c.tables {
		e, _ := t.lookup(slot, &k)
		if e == nil {
			continue
		}
		path = append(path, e)
		flow.ApplyTo(&k, e.Commit)
		if e.Terminal {
			return Result{Hit: true, Verdict: e.Verdict, Final: k, Path: path}
		}
		slot = e.nextSlot
	}
	return Result{Path: path}
}

// candidate is one sub-traversal compiled to rule form in scratch: what
// installation probes the target table with before it decides whether an
// Entry has to exist, and what revalidation compares a resident entry
// against. Match and Commit are the composed predicate and rewrites;
// Commit's backing array is reused from one traversal to the next.
type candidate struct {
	pipeline.Composed
	tag, nextTag int
	prio         int
	terminal     bool
	verdict      flow.Verdict
	ctConn       flow.Key
	ctEpoch      uint64

	// old is the resident entry holding this predicate in the target table
	// (nil when none) and shared whether it is behaviourally identical, so
	// that nothing needs installing; the probe half of InsertPartition
	// fills them.
	old    *Entry
	shared bool
}

// compose compiles Steps[seg] of tr into the candidate. tr may be a
// partial traversal (ProcessPartial): a range ending where it stopped
// continues at its NextTable.
//
//gf:hotpath
func (cd *candidate) compose(tr *pipeline.Traversal, seg Segment) {
	tr.ComposeInto(seg.Start, seg.End, &cd.Composed)
	cd.tag, cd.prio = tr.Steps[seg.Start].TableID, seg.Len()
	cd.ctConn, cd.ctEpoch = flow.Key{}, 0
	if tr.SegmentCtDep(seg.Start, seg.End) {
		cd.ctConn, cd.ctEpoch = tr.CtConn, tr.CtEpoch
	}
	cd.terminal, cd.verdict = false, flow.Verdict{}
	switch {
	case seg.End < tr.Len():
		cd.nextTag = tr.Steps[seg.End].TableID
	case tr.Verdict.Terminal():
		cd.terminal, cd.verdict, cd.nextTag = true, tr.Verdict, TagDone
	default:
		cd.nextTag = tr.NextTable
	}
}

// same reports whether a resident entry is behaviourally identical to the
// candidate, so installation can be deduplicated — the sharing that gives
// Gigaflow its coverage — and revalidation can keep it.
//
//gf:hotpath
func (cd *candidate) same(e *Entry) bool {
	return e.Tag == cd.tag && e.Priority == cd.prio &&
		e.NextTag == cd.nextTag && e.Terminal == cd.terminal && e.Verdict == cd.verdict &&
		e.CtEpoch == cd.ctEpoch && e.CtConn == cd.ctConn &&
		flow.ActionsEqual(e.Commit, cd.Commit) && e.Match.EqualTo(&cd.Match)
}

// materialise builds the Entry for a candidate that has to be installed:
// the one point of the install path that allocates — the entry, and its
// own copy of the commit when there is one.
//
//gf:hotpath-safe fresh-entry materialisation: a miss allocates here, for the entries it adds to the cache and nothing else
func (cd *candidate) materialise(tr *pipeline.Traversal, seg Segment, now int64) *Entry {
	e := &Entry{
		Terminal: cd.terminal,
		Verdict:  cd.verdict,
		LastHit:  now,
		Tag:      cd.tag,
		NextTag:  cd.nextTag,
		Parent:   tr.Steps[seg.Start].Pre,
		Version:  tr.Version,
		Installs: 1,
		CtConn:   cd.ctConn,
		CtEpoch:  cd.ctEpoch,
		Created:  now,
	}
	e.Match, e.Priority = cd.Match, cd.prio
	if len(cd.Commit) > 0 {
		e.Commit = append(make([]flow.Action, 0, len(cd.Commit)), cd.Commit...)
	}
	return e
}

// Insert partitions a traversal per the configured scheme and installs the
// resulting LTM rules across the cache tables (segment j into table j).
// Sub-traversals already present are reused rather than duplicated.
// Returns the entries now backing the traversal, or an error when the
// traversal cannot be installed (partitioning failure, or a full table
// with eviction disabled). The returned slice aliases a buffer the cache
// owns and, like Result.Path, is valid only until the next Insert or
// InsertPartition; the traversal is only read, and may be refilled as
// soon as Insert returns.
//
// With Config.Adaptive set and the recent sharing rate degraded, the
// traversal is instead installed whole — a single Megaflow-style entry in
// GF₁ — per §7's profile-guided fallback.
func (c *Cache) Insert(tr *pipeline.Traversal, now int64) ([]*Entry, error) {
	partitioned := true
	if c.adapt != nil {
		c.adapt.installs++
		partitioned = !c.adapt.degraded() || c.adapt.sampleNow()
	}
	var part Partition
	switch {
	case !partitioned:
		c.dp.part = append(c.dp.part[:0], Segment{Start: 0, End: tr.Len()})
		part = c.dp.part
	case c.cfg.Scheme == SchemeProfile:
		part = c.profilePartition(tr)
	case c.cfg.Scheme == SchemeDisjoint:
		part = c.dp.partition(c.dp.stepFields(tr), len(c.tables), nil, nil)
	default:
		var err error
		part, err = PartitionTraversal(tr, len(c.tables), c.cfg.Scheme, c.rng)
		if err != nil {
			c.stats.Rejected++
			return nil, err
		}
	}
	c.observeInsert = partitioned
	return c.InsertPartition(tr, part, now)
}

// Install is Insert as the datapath calls it: it reports whether the
// traversal was installed and whether installing it evicted a resident
// entry by LRU.
func (c *Cache) Install(tr *pipeline.Traversal, now int64) (ok, evicted bool) {
	lru := c.stats.EvictLRU
	_, err := c.Insert(tr, now)
	return err == nil, c.stats.EvictLRU > lru
}

// InsertPartition installs a traversal under an explicit partition
// (segment j goes to table j). Exposed for the Fig. 16 scheme comparison
// and for tests. The result aliases the same cache-owned buffer as
// Insert's.
//
// Installation probes before it builds: every segment is composed into
// scratch and looked up in its table, and an Entry is allocated only for
// a segment whose predicate is absent or resident with different
// behaviour — most segments of a missed traversal are shared, and they
// cost a composition and a probe, nothing more.
func (c *Cache) InsertPartition(tr *pipeline.Traversal, part Partition, now int64) ([]*Entry, error) {
	if err := part.Validate(tr.Len(), len(c.tables)); err != nil {
		c.stats.Rejected++
		return nil, err
	}
	c.probeSegments(tr, part)
	if c.cfg.NoLRUEviction {
		// All-or-nothing capacity precheck (LRU eviction otherwise
		// guarantees room).
		for i := range part {
			if t := c.tables[i]; c.cands[i].old == nil && t.count >= t.capacity {
				c.stats.Rejected++
				return nil, fmt.Errorf("gigaflow: table %d full (%d entries)", i, t.count)
			}
		}
	}
	c.installed = c.installed[:0]
	reused := 0
	for i, seg := range part {
		cd, t := &c.cands[i], c.tables[i]
		if cd.shared {
			cd.old.Installs++
			c.stats.SharedReuse++
			reused++
			c.installed = append(c.installed, cd.old)
			continue
		}
		if cd.old != nil {
			t.remove(cd.old) // conflict replacement
		} else if t.count >= t.capacity && t.remove(t.lruTail) {
			c.stats.EvictLRU++
			t.stats.EvictLRU++
		}
		e := cd.materialise(tr, seg, now)
		t.insert(e)
		c.stats.EntriesCreated++
		t.stats.Inserts++
		c.installed = append(c.installed, e)
	}
	c.stats.InsertedTraversals++
	if c.adapt != nil && c.observeInsert {
		c.adapt.observe(reused, len(part))
	}
	c.observeInsert = false // consumed; direct InsertPartition calls never observe
	return c.installed, nil
}

// probeSegments is the probe half of InsertPartition: it composes segment
// i of part into candidate i and looks its predicate up in table i,
// recording the resident entry and whether it already does what the
// candidate would. It allocates nothing and changes nothing but the
// Conflicts counter.
//
//gf:hotpath
func (c *Cache) probeSegments(tr *pipeline.Traversal, part Partition) {
	for i, seg := range part {
		cd := &c.cands[i]
		cd.compose(tr, seg)
		cd.old = c.tables[i].get(cd.tag, &cd.Match, cd.prio)
		cd.shared = cd.old != nil && cd.same(cd.old)
		if cd.old != nil && !cd.shared {
			// Same predicate, different behaviour: stale sibling from an
			// earlier pipeline version; installation replaces it.
			c.stats.Conflicts++
		}
	}
}

// Remove evicts a connection-dependent entry whose epoch check failed —
// the conntrack invalidation hook. No-op for an entry not currently
// installed, however the caller came by it.
//
//gf:hotpath-safe conntrack invalidation is a rare cold event on the hit path
func (c *Cache) Remove(e *Entry) {
	if e.table != nil && e.table.remove(e) {
		c.stats.CtInvalid++
	}
}

// Entries returns every entry of table i in unspecified order.
func (c *Cache) Entries(i int) []*Entry { return c.tables[i].entries() }

// AllEntries returns every entry across tables.
func (c *Cache) AllEntries() []*Entry {
	out := make([]*Entry, 0, c.Len())
	for _, t := range c.tables {
		out = t.appendEntries(out, nil)
	}
	return out
}

// ExpireIdle removes entries idle for longer than maxIdle (§4.3.2: stale
// sub-traversals are evicted individually, not whole parent traversals).
func (c *Cache) ExpireIdle(now, maxIdle int64) int {
	return c.sweep(func(e *Entry) bool { return now-e.LastHit > maxIdle },
		&c.stats.Expired, func(s *TableStats) *uint64 { return &s.Expired })
}

// Revalidate checks every entry against the current pipeline rules
// (§4.3.1): the entry's parent flow is replayed from its table tag for the
// length of its sub-traversal, and the entry is evicted when its match,
// rewrites, tag update, or verdict changed. Work is proportional to
// sub-traversal lengths — the reason Gigaflow revalidates ~2× faster than
// Megaflow (§6.3.6). Every replay refills one cache-owned traversal and is
// composed into one scratch candidate, compared with the entry in place.
func (c *Cache) Revalidate() (evicted, work int) {
	version := c.pipe.Version
	evicted = c.sweep(func(e *Entry) bool {
		if e.Version == version {
			return false
		}
		tr := &c.replay
		if err := c.pipe.ProcessPartialInto(tr, e.Tag, &e.Parent, e.Priority); err != nil || tr.Len() != e.Priority {
			return true
		}
		work += tr.Len()
		c.probe.compose(tr, Segment{Start: 0, End: e.Priority})
		if !c.probe.same(e) {
			return true
		}
		e.Version = version
		return false
	}, &c.stats.Revoked, func(s *TableStats) *uint64 { return &s.Revoked })
	c.stats.RevalWork += uint64(work)
	return evicted, work
}

// RevalidateAgainst is Revalidate behind the datapath's backend interface.
// The cache replays the pipeline it was built over, so p is not consulted.
func (c *Cache) RevalidateAgainst(*pipeline.Pipeline) (evicted, work int) {
	return c.Revalidate()
}

// sweep removes every entry stale accepts, counting each removal in *total
// and in the counter perTable picks from its table's stats. Each table is
// scanned whole before anything leaves it — a classifier must not change
// under its own Range — with the victims collected in one cache-owned
// buffer, emptied afterwards so it keeps no removed entry alive.
func (c *Cache) sweep(stale func(*Entry) bool, total *uint64, perTable func(*TableStats) *uint64) (removed int) {
	for _, t := range c.tables {
		c.victims = t.appendEntries(c.victims[:0], stale)
		for _, e := range c.victims {
			if t.remove(e) {
				*total++
				*perTable(&t.stats)++
				removed++
			}
		}
	}
	clear(c.victims[:cap(c.victims)])
	return removed
}
