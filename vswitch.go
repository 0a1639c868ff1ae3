package gigaflow

import (
	"fmt"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/telemetry"
)

// backend is the main flow cache behind the datapath loop: the one
// interface the Gigaflow LTM cache and the Megaflow cache both satisfy,
// which is what makes either a drop-in for the other (PAPER.md §1). The
// switch drives it from one goroutine and knows nothing of what is behind
// it — paths or single entries, partitions, how a commit is applied. See
// DESIGN.md "The datapath core" for the contract.
type backend interface {
	// Tier names the cache in latency attribution, traces and telemetry.
	Tier() telemetry.Tier
	// Find looks *k up at virtual time now, counting the lookup and
	// refreshing what it matched. On a hit it leaves the rewritten key in
	// *final and returns the verdict; on a miss *final is unspecified.
	Find(k *Key, now int64, final *Key) (Verdict, bool)
	// DropStale validates what the last Find matched against ct and
	// removes the entries whose connection moved on, reporting how many:
	// non-zero means the hit must not be used.
	DropStale(ct *conntrack.Table) int
	// TraceHit annotates a sampled packet's trace with what the last Find
	// matched.
	TraceHit(tb *telemetry.TraceBuilder)
	// Install compiles a successful traversal into the cache, reporting
	// whether it went in and whether it evicted a resident entry by LRU.
	Install(tr *Traversal, now int64) (ok, evicted bool)
	// RevalidateAgainst re-checks every entry against p's current rules,
	// reporting entries evicted and pipeline lookups replayed.
	RevalidateAgainst(p *Pipeline) (evicted, work int)
	ExpireIdle(now, maxIdle int64) int
	Len() int
	Coverage() uint64
	// CollectMetrics mirrors the cache's own counters into reg.
	CollectMetrics(reg *telemetry.Registry, worker string)
}

// VSwitch couples a hardware flow cache with the software slowpath: the
// complete Figure 5 workflow. Packets are first classified by the cache;
// on a miss the flow signature runs through the userspace pipeline, the
// resulting traversal is partitioned and compiled into cache rules, and
// the rules are installed so subsequent packets — including packets of
// *other* flows sharing sub-traversals — hit in hardware.
//
// VSwitch is not safe for concurrent use; drive it from one goroutine (the
// paper's configurations dedicate a single CPU core to the slowpath).
// Switches on other goroutines may walk the same pipeline once it is
// settled (Pipeline.Settle), while nobody changes its rules.
type VSwitch struct {
	pipe *Pipeline
	main backend          // the main cache: Gigaflow, or the Megaflow baseline
	uf   *microflow.Cache // optional exact-match first level
	ct   *conntrack.Table // optional connection tracking (stateful datapath)

	// tier and tierName are main.Tier() and its name, read once at
	// construction: the loop attributes every main-cache hit to them.
	tier     telemetry.Tier
	tierName string

	maxIdle   int64
	ctMaxIdle int64                      // conntrack idle expiry, independent of the cache tiers'
	tracer    *telemetry.Tracer          // optional traversal tracer (sampled)
	rec       *telemetry.LatencyRecorder // optional latency attribution + flight ring
	stats     VSwitchStats

	// trav is the one traversal every inline miss refills and res the
	// resolver it walks with under conntrack: the switch is
	// single-goroutine and a miss is done with its traversal — installed,
	// memoized — before the next packet is looked at, so neither is ever
	// allocated per packet. Traversals that outlive a call (the upcall
	// engine's, handed to CompleteMiss) come from Pipeline.Process.
	trav Traversal
	res  ctResolver
	// kt holds the packet's key with ct_state folded in while the loop looks
	// it up, and one the batch of one the single-packet entry points run.
	// Both live here rather than in a frame because the backend is reached
	// through an interface, and what an interface call is handed lives on
	// the heap.
	kt  Key
	one struct {
		key    [1]Key
		flag   [1]uint8
		out    [1]ProcessResult
		err    [1]error
		parked [1]bool
	}
}

// VSwitchStats counts end-to-end events.
//
// The cache hierarchy has two levels, counted separately: MicroflowHits
// are exact-match first-level hits, CacheHits are main-cache (Gigaflow or
// Megaflow) hits. Every packet is exactly one of MicroflowHits, CacheHits,
// or CacheMisses.
type VSwitchStats struct {
	Packets       uint64 `json:"packets"`
	MicroflowHits uint64 `json:"microflow_hits"` // exact-match first-level hits (if enabled)
	CacheHits     uint64 `json:"cache_hits"`     // main-cache hits (excludes microflow)
	CacheMisses   uint64 `json:"cache_misses"`
	Slowpath      uint64 `json:"slowpath"` // traversals executed
	Installs      uint64 `json:"installs"`
	InstallErrs   uint64 `json:"install_errs"`

	// What the slow path walked, summed over the traversals it handed to
	// the cache: pipeline tables visited and TSS tuples probed in them.
	SlowpathSteps       uint64 `json:"slowpath_steps"`
	SlowpathTupleProbes uint64 `json:"slowpath_tuple_probes"`

	// Conntrack-mode counters; always zero when tracking is disabled.
	CtFastpath    uint64 `json:"ct_fastpath,omitempty"`    // microflow hits served under the epoch guard
	CtGuardFails  uint64 `json:"ct_guard_fails,omitempty"` // microflow entries dropped by the guard
	CtInvalidated uint64 `json:"ct_invalidated,omitempty"` // main-cache entries removed because their connection died, was replaced on its tuple, or was bound since
}

// fields lists every counter: the one place a new one is added for Add and
// Sub — hence for the service's per-shard sum, a replay's delta and the
// simulator's per-packet charge — to carry it.
func (s *VSwitchStats) fields() [12]*uint64 {
	return [...]*uint64{
		&s.Packets, &s.MicroflowHits, &s.CacheHits, &s.CacheMisses, &s.Slowpath,
		&s.Installs, &s.InstallErrs, &s.SlowpathSteps, &s.SlowpathTupleProbes,
		&s.CtFastpath, &s.CtGuardFails, &s.CtInvalidated,
	}
}

// Add returns s + o, counter by counter.
func (s VSwitchStats) Add(o VSwitchStats) VSwitchStats {
	of := o.fields()
	for i, f := range s.fields() {
		*f += *of[i]
	}
	return s
}

// Sub returns s − o, counter by counter: the events between two snapshots.
func (s VSwitchStats) Sub(o VSwitchStats) VSwitchStats {
	of := o.fields()
	for i, f := range s.fields() {
		*f -= *of[i]
	}
	return s
}

// HitRate reports the main cache's hit rate over the packets that reached
// it: CacheHits / (CacheHits + CacheMisses). Packets absorbed by the
// Microflow tier never consult the main cache and are excluded; use
// TotalHitRate for the combined hierarchy rate the paper reports.
func (s *VSwitchStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// TotalHitRate reports the combined cache-hierarchy hit rate over all
// packets: (MicroflowHits + CacheHits) / Packets. This is the rate the
// paper's end-to-end figures quote; without a Microflow tier it equals
// HitRate.
func (s *VSwitchStats) TotalHitRate() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.MicroflowHits+s.CacheHits) / float64(s.Packets)
}

// VSwitchOption configures a VSwitch.
type VSwitchOption func(*VSwitch)

// WithMaxIdle enables idle expiry of cache entries (§4.3.2); call
// ExpireIdle periodically with the current virtual time.
func WithMaxIdle(ns int64) VSwitchOption {
	return func(v *VSwitch) { v.maxIdle = ns }
}

// WithMegaflowBackend makes the main cache a Megaflow cache of the given
// capacity, in place of the Gigaflow cache — the baseline configuration,
// useful for comparisons.
func WithMegaflowBackend(capacity int) VSwitchOption {
	return func(v *VSwitch) { v.main = megaflow.New(capacity) }
}

// WithMicroflow fronts the main cache with an exact-match Microflow tier
// of the given capacity, completing the OVS cache hierarchy (§2.1). It is
// invalidated wholesale on revalidation, as OVS does — exact entries carry
// no wildcard to recheck incrementally.
func WithMicroflow(capacity int) VSwitchOption {
	return func(v *VSwitch) { v.uf = microflow.New(capacity) }
}

// WithTracer attaches a sampling traversal tracer: 1-in-N processed
// packets record every stage they touch (microflow lookup, per-LTM-table
// matches, slowpath traversal, rule installation) with per-stage
// nanosecond timings into the tracer's ring. Unsampled packets pay one
// atomic increment; a nil tracer (or sampling disabled) costs a single
// branch and no allocation.
func WithTracer(t *telemetry.Tracer) VSwitchOption {
	return func(v *VSwitch) { v.tracer = t }
}

// WithLatencyRecorder attaches a latency attribution layer: every packet
// is timed (exactly on cold paths, run-estimated on hit runs — see
// telemetry.LatencyRecorder), attributed to the tier that resolved it,
// and logged into the recorder's flight ring. Like the VSwitch itself
// the recorder is single-threaded; give each VSwitch its own.
func WithLatencyRecorder(r *telemetry.LatencyRecorder) VSwitchOption {
	return func(v *VSwitch) { v.rec = r }
}

// NewVSwitch builds a vSwitch around a pipeline with a Gigaflow cache of
// the given configuration — unless an option supplies another main cache
// (WithMegaflowBackend), in which case cfg is not looked at.
func NewVSwitch(p *Pipeline, cfg CacheConfig, opts ...VSwitchOption) *VSwitch {
	v := &VSwitch{pipe: p}
	for _, o := range opts {
		o(v)
	}
	if v.main == nil {
		v.main = gfcache.New(p, cfg)
	}
	v.tier = v.main.Tier()
	v.tierName = v.tier.String()
	return v
}

// Pipeline returns the slowpath pipeline.
func (v *VSwitch) Pipeline() *Pipeline { return v.pipe }

// Cache returns the Gigaflow cache, or nil when running with the Megaflow
// backend.
func (v *VSwitch) Cache() *gfcache.Cache {
	c, _ := v.main.(*gfcache.Cache)
	return c
}

// Megaflow returns the Megaflow cache, or nil when running with the
// Gigaflow backend.
func (v *VSwitch) Megaflow() *megaflow.Cache {
	c, _ := v.main.(*megaflow.Cache)
	return c
}

// Microflow returns the exact-match first-level cache, or nil when the
// tier is disabled.
func (v *VSwitch) Microflow() *microflow.Cache { return v.uf }

// Stats returns a snapshot of the counters.
func (v *VSwitch) Stats() VSwitchStats { return v.stats }

// Recorder returns the attached latency recorder, or nil. Its methods
// must run on the goroutine driving the switch.
func (v *VSwitch) Recorder() *telemetry.LatencyRecorder { return v.rec }

// ProcessResult describes one packet's handling.
type ProcessResult struct {
	Verdict Verdict
	Final   Key
	// CacheHit reports whether a cache (Microflow or the main cache)
	// handled the packet without the slowpath.
	CacheHit bool
	// MicroflowHit reports whether the exact-match first level served it.
	MicroflowHit bool
}

// Process handles one packet at virtual time now (nanoseconds): Microflow
// exact-match (if enabled), main cache lookup, slowpath on miss, rule
// installation. Like every entry point it is a wrapper: the packet is a
// batch of one through run, the one datapath loop.
//
//gf:hotpath
func (v *VSwitch) Process(k Key, now int64) (ProcessResult, error) {
	return v.ProcessMeta(k, 0, now)
}

// ProcessMeta is Process with packet metadata the flow key does not
// carry: the TCP flag byte, which drives the conntrack state machine
// when connection tracking is enabled (and is ignored otherwise). With
// conntrack on, the packet is tracked, its ct_state bits are folded into
// the key the main cache and slowpath see, connection-dependent cache
// entries are validated on every hit against the connection their tuple
// now names and its NAT bindings, and memoized microflow results serve
// only under the ctServe guard. With conntrack off the loop reduces
// exactly to the stateless datapath.
//
//gf:hotpath
func (v *VSwitch) ProcessMeta(k Key, tcpFlags uint8, now int64) (ProcessResult, error) {
	o := &v.one
	o.key[0], o.flag[0] = k, tcpFlags
	v.run(o.key[:], o.flag[:], o.out[:], o.err[:], nil, now)
	return o.out[0], o.err[0]
}

// ProcessBatchMeta handles len(keys) packets at virtual time now, writing
// packet i's result to out[i] and its error to errs[i]; out and errs must
// be at least len(keys) long. flags carries each packet's TCP flag byte
// for the conntrack state machine; it may be nil (all packets read as
// flagless) and is otherwise indexed in step with keys. See ProcessMeta
// for the conntrack semantics. It is semantically identical to calling
// ProcessMeta(keys[i], flags[i], now) in order — packets are processed
// strictly in sequence through the full hierarchy, so a miss's installed
// rules and Microflow memoization are visible to later packets in the
// same batch and every counter matches a sequential replay exactly. What
// a batch saves is the per-call cost: one recorder batch, one clock read
// for its hit runs.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchMeta(keys []Key, flags []uint8, out []ProcessResult, errs []error, now int64) {
	v.run(keys, flags, out, errs, nil, now)
}

// run is the datapath: the one body every entry point wraps. Each packet
// crosses the same stages in order — microflow probe under the conntrack
// guard, connection tracking, main-cache lookup, epoch validation of what
// it matched, memoization — and a packet no cache serves takes the miss
// policy the caller chose: parked == nil resolves it inline (processMiss),
// a non-nil parked reports it in parked[i], uncounted, for the caller to
// finish through CompleteMiss. The stateful stages are not optional, so on
// a conntrack switch a miss is always resolved inline: it needs its
// connection, which only this goroutine may touch. So is a sampled
// packet's, because a trace wants the whole traversal.
//
// Keys are read where the caller put them and results written where the
// caller will read them: k and o point into keys and out, and the backend
// rewrites the key straight into o.Final. The 1-in-N sampled packet runs
// the same statements with a non-nil trace builder, whose Begin and End
// are no-ops on nil; it is stamped exactly and carries FlightTraced, and
// is excluded from the tier latency histograms, where its own tracing
// work would read as the tail. The body is allocation-free on every hit;
// everything cold is behind a boundary (openTrace, closeCold,
// processMiss).
//
//gf:hotpath
func (v *VSwitch) run(keys []Key, flags []uint8, out []ProcessResult, errs []error, parked []bool, now int64) {
	if len(keys) == 0 {
		return
	}
	_ = out[len(keys)-1]
	_ = errs[len(keys)-1]
	if flags != nil {
		_ = flags[len(keys)-1]
	}
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	for i := range keys {
		k, o := &keys[i], &out[i]
		var fl uint8
		if flags != nil {
			fl = flags[i]
		}
		errs[i] = nil
		if parked != nil {
			parked[i] = false
		}
		v.stats.Packets++
		var tb *telemetry.TraceBuilder
		if v.tracer != nil {
			if tb = v.tracer.Start(); tb != nil {
				v.openTrace(tb, k)
			}
		}
		tier, served := telemetry.TierMicroflow, false
		var hash uint64
		if v.uf != nil {
			tb.Begin("microflow")
			e, ok := v.uf.Find(k, now)
			served = ok && (v.ct == nil || v.ctServe(e, k, fl, now))
			tb.End(served)
			if served {
				v.stats.MicroflowHits++
				o.Final = e.Final // on its own: a tuple assignment copies the key twice
				o.Verdict, o.CacheHit, o.MicroflowHit = e.Verdict, true, true
				hash = v.uf.LastHash()
			} else if ok {
				// Stale or transition-capable: drop the memo, take the full path.
				v.uf.Drop(k)
				v.stats.CtGuardFails++
			}
		}
		if !served {
			kt, conn, dir := k, (*conntrack.Conn)(nil), conntrack.DirForward
			if v.ct != nil {
				tb.Begin("conntrack")
				var bits uint64
				bits, conn, dir = v.ct.TrackKey(k, fl, now)
				v.kt = *k
				v.kt.Set(flow.FieldCtState, bits)
				kt = &v.kt
				tb.End(conn != nil)
			}
			tb.Begin(v.tierName)
			verdict, hit := v.main.Find(kt, now, &o.Final)
			missTier := telemetry.TierSlowpath
			if hit && v.ct != nil {
				if n := v.main.DropStale(v.ct); n != 0 {
					v.stats.CtInvalidated += uint64(n)
					hit, missTier = false, telemetry.TierConntrack // stale entries revoked: replay
				}
			}
			tb.End(hit)
			if tb != nil {
				v.main.TraceHit(tb)
			}
			if !hit {
				if parked != nil && v.ct == nil && tb == nil {
					// Park it. The packet's accounting is deferred to
					// CompleteMiss (initiator) or its replay through Process
					// (follower).
					v.stats.Packets--
					parked[i] = true
					*o = ProcessResult{}
				} else {
					errs[i] = v.processMiss(k, kt, conn, dir, missTier, now, tb, o)
				}
				continue
			}
			v.stats.CacheHits++
			o.Verdict, o.CacheHit, o.MicroflowHit = verdict, true, false
			v.memoizeCt(k, &o.Final, verdict, now, conn, dir)
			tier, hash = v.tier, kt.FlowHash()
		}
		// A cache served it: a provisional flight record, timed with the hit
		// run it belongs to — or, for a sampled packet, the cold close.
		if tb != nil {
			v.closeCold(tb, tier, hash, 0, o, nil)
		} else if v.rec != nil {
			v.rec.Hit(tier, hash)
		}
	}
	if v.rec != nil {
		v.rec.EndBatch()
	}
}

// openTrace starts a sampled packet's trace: the packet leaves the hit
// path here, so any open hit run closes and its flight record will be
// stamped exactly.
//
//gf:hotpath-safe the sampled packet's open, once per 1-in-N packets: renders the key and reads the clock
func (v *VSwitch) openTrace(tb *telemetry.TraceBuilder, k *Key) {
	if v.rec != nil {
		v.rec.ColdBegin()
	}
	tb.SetKey(k.String())
}

// closeCold closes a packet that left the hit path — a miss, or a sampled
// packet wherever it was served: the trace, if there is one, is finished
// and pushed, and the flight record stamped exactly.
//
//gf:hotpath-safe misses and sampled packets only: renders the verdict into the trace and reads the clock for the exact flight stamp
func (v *VSwitch) closeCold(tb *telemetry.TraceBuilder, tier telemetry.Tier, hash uint64, flags uint8, o *ProcessResult, err error) {
	if tb != nil {
		flags |= telemetry.FlightTraced
		verdict := ""
		if err == nil {
			verdict = o.Verdict.String()
		}
		tb.Finish(verdict, o.CacheHit, o.MicroflowHit, err)
	}
	if v.rec != nil {
		v.rec.Cold(tier, hash, flags)
	}
}

// processMiss is the inline miss policy: it punts a main-cache miss to the
// slowpath — full pipeline traversal, then install — and writes the result
// to *o. kt is the lookup key with ct_state folded in (k itself when
// tracking is off), conn/dir the packet's tracked connection (nil when
// tracking is off or the packet is untracked), tier the latency tier the
// miss is attributed to (TierConntrack when a stale connection-dependent
// entry forced the replay), and tb nil unless the packet is being traced.
//
// The traversal refills v.trav and the install probes the cache before it
// builds anything, so a miss allocates for the entries it adds and
// nothing else; the walk, the partitioner, the composition and the probe
// are certified on their own (Pipeline.ProcessInto and the gfcache
// functions it feeds).
//
//gf:hotpath-safe the slow-path boundary: wraps a pipeline error, which a hit may not do
func (v *VSwitch) processMiss(k, kt *Key, conn *conntrack.Conn, dir conntrack.Dir,
	tier telemetry.Tier, now int64, tb *telemetry.TraceBuilder, o *ProcessResult) error {
	if v.rec != nil {
		v.rec.ColdBegin() // no-op for a sampled packet, cold since openTrace
	}
	v.stats.CacheMisses++
	v.stats.Slowpath++
	tb.Begin("slowpath")
	tr := &v.trav
	var err error
	if v.ct != nil {
		v.res.ct, v.res.pipe, v.res.conn, v.res.dir = v.ct, v.pipe, conn, dir
		err = v.pipe.ProcessInto(tr, kt, &v.res)
	} else {
		err = v.pipe.ProcessInto(tr, kt, nil)
	}
	tb.End(err == nil)
	flags := telemetry.FlightMiss
	if err != nil {
		err = fmt.Errorf("gigaflow: slowpath: %w", err)
		*o = ProcessResult{}
	} else {
		flags |= v.install(k, tr, now, conn, dir, tb, o)
	}
	v.closeCold(tb, tier, kt.FlowHash(), flags, o, err)
	return err
}

// install is the second half of a miss, the one body the inline miss and a
// completed parked one share: the traversal's rules go into the main
// cache, the install is counted, the flow is memoized and the result
// written to *o. It returns the flight-record flags the install earned.
func (v *VSwitch) install(k *Key, tr *Traversal, now int64, conn *conntrack.Conn, dir conntrack.Dir,
	tb *telemetry.TraceBuilder, o *ProcessResult) (flags uint8) {
	v.stats.SlowpathSteps += uint64(tr.Len())
	v.stats.SlowpathTupleProbes += uint64(tr.TuplesProbed)
	tb.Begin("partition+install")
	ok, evicted := v.main.Install(tr, now)
	tb.End(ok)
	if ok {
		v.stats.Installs++
		flags = telemetry.FlightInstall
	} else {
		v.stats.InstallErrs++
		flags = telemetry.FlightInstallErr
	}
	if evicted {
		flags |= telemetry.FlightEvict
	}
	o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = tr.Verdict, tr.FinalKey(), false, false
	// A walk that made a NAT binding after an earlier step had already
	// resolved against the connection carries a stamp from before the
	// binding (pipeline's first-resolution rule): the entries just
	// installed fail validation on their first use, and the result is
	// this packet's alone — the next walk resolves every step under the
	// binding — so it is not memoized under the connection's new epoch
	// either.
	if conn == nil || tr.CtEpoch == 0 || tr.CtEpoch == conn.Epoch {
		v.memoizeCt(k, &o.Final, tr.Verdict, now, conn, dir)
	}
	return flags
}

// Revalidate re-checks every cached entry against the current pipeline
// rules (§4.3.1), evicting stale ones, and drops the Microflow tier
// wholesale (exact entries cannot be rechecked incrementally). Call after
// mutating pipeline rules. Returns main-cache entries evicted and pipeline
// lookups replayed.
func (v *VSwitch) Revalidate() (evicted, work int) {
	if v.uf != nil {
		v.uf.Invalidate()
	}
	return v.main.RevalidateAgainst(v.pipe)
}

// ExpireIdle evicts entries idle longer than the configured max-idle
// (no-op unless WithMaxIdle was set). Returns the number evicted from the
// main cache.
func (v *VSwitch) ExpireIdle(now int64) int {
	if v.ct != nil && v.ctMaxIdle > 0 {
		// Idle connections die first (epoch-poisoned), so cache entries
		// that depended on them fail validation even before their own
		// idle timers fire.
		v.ct.ExpireIdle(now, v.ctMaxIdle)
	}
	if v.maxIdle <= 0 {
		return 0
	}
	if v.uf != nil {
		v.uf.ExpireIdle(now, v.maxIdle)
	}
	return v.main.ExpireIdle(now, v.maxIdle)
}

// CacheEntries reports the number of installed cache entries.
func (v *VSwitch) CacheEntries() int { return v.main.Len() }

// Coverage reports the cache's rule-space coverage (Table 2); for the
// Megaflow backend this equals the entry count.
func (v *VSwitch) Coverage() uint64 { return v.main.Coverage() }

// VSwitchTelemetry describes the vSwitch's counters and cache hierarchy
// for the introspection endpoint: end-to-end stats plus a snapshot of
// whichever cache levels are configured.
type VSwitchTelemetry struct {
	Backend   string              `json:"backend"` // "gigaflow" | "megaflow"
	Stats     VSwitchStats        `json:"stats"`
	Coverage  uint64              `json:"coverage"`
	Gigaflow  *gfcache.Snapshot   `json:"gigaflow,omitempty"`
	Megaflow  *megaflow.Snapshot  `json:"megaflow,omitempty"`
	Microflow *microflow.Snapshot `json:"microflow,omitempty"`
	Conntrack *conntrack.Stats    `json:"conntrack,omitempty"`
}

// Telemetry captures the vSwitch's current introspection view. Like every
// VSwitch method it must run on the goroutine driving the switch.
func (v *VSwitch) Telemetry() VSwitchTelemetry {
	t := VSwitchTelemetry{Backend: v.tierName, Stats: v.stats, Coverage: v.Coverage()}
	// The document has one typed slot per backend, so this is the one place
	// that asks which it is.
	if c := v.Cache(); c != nil {
		s := c.Snapshot()
		t.Gigaflow = &s
	} else {
		s := v.Megaflow().Snapshot()
		t.Megaflow = &s
	}
	if v.uf != nil {
		s := v.uf.Snapshot()
		t.Microflow = &s
	}
	if v.ct != nil {
		s := v.ct.Stats()
		t.Conntrack = &s
	}
	return t
}

// CollectMetrics mirrors the vSwitch's counters, occupancy gauges, and
// per-table statistics into reg under the given worker label, using the
// metric names documented in README's Observability section. Registry
// writes are atomic, but cache internals are not safe for concurrent
// readers — call on the goroutine driving the switch (the service does
// this on each worker's own goroutine at scrape time, so the fast path
// carries no metric work at all).
func (v *VSwitch) CollectMetrics(reg *telemetry.Registry, worker string) {
	c := func(name, help string, val uint64) {
		reg.CounterVec(name, help, "worker").With(worker).Set(val)
	}
	g := func(name, help string, val float64) {
		reg.GaugeVec(name, help, "worker").With(worker).Set(val)
	}
	s := v.stats
	c("gigaflow_packets_total", "Packets processed end to end.", s.Packets)
	c("gigaflow_microflow_hits_total", "Exact-match first-level cache hits.", s.MicroflowHits)
	c("gigaflow_cache_hits_total", "Main-cache (Gigaflow/Megaflow) hits.", s.CacheHits)
	c("gigaflow_cache_misses_total", "Main-cache misses (slowpath punts).", s.CacheMisses)
	c("gigaflow_slowpath_traversals_total", "Full pipeline traversals executed.", s.Slowpath)
	c("gigaflow_slowpath_tables_total", "Pipeline tables visited by the traversals handed to the cache.", s.SlowpathSteps)
	c("gigaflow_slowpath_tuple_probes_total", "TSS tuples probed by the traversals handed to the cache.", s.SlowpathTupleProbes)
	c("gigaflow_installs_total", "Traversals compiled and installed into the cache.", s.Installs)
	c("gigaflow_install_errors_total", "Traversals that could not be installed.", s.InstallErrs)
	g("gigaflow_cache_entries", "Installed main-cache entries.", float64(v.CacheEntries()))
	g("gigaflow_cache_coverage", "Rule-space coverage of the installed entries.", float64(v.Coverage()))

	// Cache-churn rates by cause, capacity and the backend's own counters.
	v.main.CollectMetrics(reg, worker)

	if v.uf != nil {
		us := v.uf.Snapshot()
		g("gigaflow_microflow_entries", "Resident exact-match entries.", float64(us.Len))
		g("gigaflow_microflow_capacity", "Exact-match tier entry capacity.", float64(us.Capacity))
		c("gigaflow_microflow_inserts_total", "Exact-match entries memoized.", us.Inserts)
		c("gigaflow_microflow_evictions_total", "Exact-match entries evicted by LRU.", us.EvictLRU)
		c("gigaflow_microflow_expired_total", "Exact-match entries removed by idle expiry.", us.Expired)
		c("gigaflow_microflow_invalidated_total", "Exact-match entries dropped by revalidation, or one at a time by the conntrack guard.", us.Invalid)
		c("gigaflow_microflow_bypassed_total", "Memoize requests declined while the tier was stepping aside from a working set it cannot hit.", us.Bypassed)
		bypassing := 0.0
		if us.Bypassing {
			bypassing = 1
		}
		g("gigaflow_microflow_bypassing", "1 while the exact-match tier is stepping aside (probes miss unhashed, memos declined), else 0.", bypassing)
	}

	if v.ct != nil {
		cs := v.ct.Stats()
		c("gigaflow_ct_lookups_total", "Conntrack table probes (tracked protocols).", cs.Lookups)
		c("gigaflow_ct_hits_total", "Conntrack probes that found an existing connection.", cs.Hits)
		c("gigaflow_ct_created_total", "Connections created (including reopens).", cs.Created)
		c("gigaflow_ct_transitions_total", "Connection state transitions.", cs.Transitions)
		c("gigaflow_ct_reopened_total", "Closed connections replaced by a fresh handshake.", cs.Reopened)
		c("gigaflow_ct_expired_total", "Connections removed by idle expiry.", cs.Expired)
		c("gigaflow_ct_evictions_total", "Connections evicted by table pressure.", cs.EvictLRU)
		c("gigaflow_ct_displaced_total", "Connections removed by a tuple-registration clash.", cs.Displaced)
		g("gigaflow_ct_connections", "Live tracked connections.", float64(v.ct.Len()))
		c("gigaflow_ct_fastpath_total", "Microflow hits served under the conntrack epoch guard.", s.CtFastpath)
		c("gigaflow_ct_guard_fails_total", "Microflow entries dropped by the conntrack guard.", s.CtGuardFails)
		c("gigaflow_ct_invalidated_total", "Main-cache entries removed because their connection died, was replaced on its tuple, or was bound since.", s.CtInvalidated)
	}

	if v.rec != nil {
		lat := reg.GaugeVec("gigaflow_latency_ns",
			"Per-tier packet latency quantile estimate (ns).", "worker", "tier", "quantile")
		pkts := reg.CounterVec("gigaflow_latency_packets_total",
			"Packets attributed to this latency tier.", "worker", "tier")
		for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
			h := v.rec.Histogram(t)
			tl := t.String()
			pkts.With(worker, tl).Set(h.Count())
			if h.Count() == 0 {
				continue
			}
			ls := h.Snapshot()
			lat.With(worker, tl, "0.5").Set(ls.P50)
			lat.With(worker, tl, "0.9").Set(ls.P90)
			lat.With(worker, tl, "0.99").Set(ls.P99)
			lat.With(worker, tl, "0.999").Set(ls.P999)
			lat.With(worker, tl, "max").Set(float64(ls.MaxNs))
		}
		c("gigaflow_flight_records_total", "Flight-recorder records written.", v.rec.Seq())
		c("gigaflow_latency_spikes_total", "Flight-recorder spike captures triggered.", v.rec.Spikes())
	}
}
