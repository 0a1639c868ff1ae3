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
	// Tier names the cache in latency attribution and telemetry.
	Tier() telemetry.Tier
	// Find looks *k up at virtual time now, counting the lookup and
	// refreshing what it matched. On a hit it leaves the rewritten key in
	// *final and returns the verdict; on a miss *final is the key after the
	// matched prefix, which Stall describes.
	Find(k *Key, now int64, final *Key) (Verdict, bool)
	// Stall reports where the last Find's miss stopped, if the cache can
	// take the rest of the traversal on its own: the pipeline table the
	// matched prefix continues at, the first cache table after it, and the
	// pipeline tables the prefix spans — span 0 when there is no such
	// prefix.
	Stall() (next, table, span int)
	// Install compiles a successful traversal into cache tables [table, K)
	// — table 0 for a whole traversal, which is all a backend whose Stall
	// reports none is handed; the first table after the prefix for a
	// resumed miss's suffix, a traversal that starts at the stall —
	// reporting whether it went in and whether it evicted a resident entry
	// by LRU.
	Install(tr *Traversal, table int, now int64) (ok, evicted bool)
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
	// current is the pipeline version the main cache was last made
	// current at — construction or the last Revalidate — which a held
	// main-cache hit is stamped with.
	current uint64

	rec   *telemetry.LatencyRecorder // optional latency attribution + flight ring
	stats VSwitchStats

	// resume lets a stalled miss walk and install only the suffix the main
	// cache does not hold (WithStallResume); stalled is the key a parked
	// miss stalled with, which its completion checks the engine's walk
	// against, and view the suffix of that walk it installs (suffixAt).
	resume  bool
	stalled Key
	view    Traversal

	// trav is the one traversal every inline miss refills and res the
	// resolver it walks with under conntrack: the switch is
	// single-goroutine and a miss is done with its traversal — installed,
	// memoized or held — before the next packet is looked at, so neither
	// is ever allocated per packet. Traversals that outlive a call (the
	// upcall engine's, handed to CompleteMiss) come from Pipeline.Process.
	trav Traversal
	res  ctResolver
	// kt holds the packet's key with ct_state folded in while the loop looks
	// it up, and one is the batch of one that Process and ProcessPark run.
	// Both live here rather than in a frame because the backend is reached
	// through an interface, and what an interface call is handed lives on
	// the heap.
	kt  Key
	one struct {
		key    [1]Key
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
// or CacheMisses. On a conntrack switch the first level of a tracked
// packet is its connection's held result (conntrack.Served), found by the
// one exact tuple lookup tracking makes: a packet it serves is a
// MicroflowHit, counted in CtFastpath too.
type VSwitchStats struct {
	Packets       uint64 `json:"packets"`
	MicroflowHits uint64 `json:"microflow_hits"` // exact-match first-level hits: the Microflow tier's and held results'
	CacheHits     uint64 `json:"cache_hits"`     // main-cache hits (excludes microflow)
	CacheMisses   uint64 `json:"cache_misses"`   // each one slow-path traversal, whole or resumed at a stall
	Installs      uint64 `json:"installs"`       // traversals installed in the main cache; a held walk is not one
	InstallErrs   uint64 `json:"install_errs"`

	// What the slow path walked, summed over the traversals it handed to
	// the cache: pipeline tables visited and TSS tuples probed in them. A
	// resumed miss counts its suffix alone.
	SlowpathSteps       uint64 `json:"slowpath_steps"`
	SlowpathTupleProbes uint64 `json:"slowpath_tuple_probes"`
	// Resumed counts the misses that walked and installed only the suffix
	// after a stalled prefix (WithStallResume).
	Resumed uint64 `json:"resumed"`

	// Conntrack-mode counters; always zero when tracking is disabled.
	CtFastpath   uint64 `json:"ct_fastpath,omitempty"`    // tracked packets served from their connection's held result
	CtGuardFails uint64 `json:"ct_guard_fails,omitempty"` // held results refused (pipeline version, stamp or match); the packet went on to the main cache
	// CtInvalidated is always 0: the datapath installs no
	// connection-dependent entry, so none is ever invalidated. It stays
	// for the benchmark's shadow chain until ROADMAP item 15.
	CtInvalidated uint64 `json:"ct_invalidated,omitempty"`
}

// fields lists every counter: the one place a new one is added for Add and
// Sub — hence for the service's per-shard sum, a replay's delta and the
// simulator's per-packet charge — to carry it.
func (s *VSwitchStats) fields() [12]*uint64 {
	return [...]*uint64{
		&s.Packets, &s.MicroflowHits, &s.CacheHits, &s.CacheMisses,
		&s.Installs, &s.InstallErrs, &s.SlowpathSteps, &s.SlowpathTupleProbes, &s.Resumed,
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

// WithStallResume lets a stalled miss resume where the main cache stopped,
// beyond the paper: when the lookup matched a chain of entries and found
// none for the next tag, the slow path walks the pipeline only from the
// table that chain names, with the key as its commits rewrote it, and
// installs only that suffix, into the cache tables after the chain's last.
// A conntrack switch, the Megaflow backend and a cache that cannot place a
// suffix (DESIGN.md §8) keep the full walk.
func WithStallResume() VSwitchOption {
	return func(v *VSwitch) { v.resume = true }
}

// WithTracer attaches nothing. It stays only for bench/replay.go's call,
// which ROADMAP item 15 deletes together with it.
func WithTracer(*telemetry.Tracer) VSwitchOption {
	return func(*VSwitch) {}
}

// WithLatencyRecorder attaches a latency attribution layer: every packet
// is timed (exactly on cold paths, run-estimated on hit runs — see
// telemetry.LatencyRecorder) and attributed to the tier that resolved it,
// and every miss is logged into the recorder's flight ring. Like the
// VSwitch itself the recorder is single-threaded; give each VSwitch its
// own.
func WithLatencyRecorder(r *telemetry.LatencyRecorder) VSwitchOption {
	return func(v *VSwitch) { v.rec = r }
}

// NewVSwitch builds a vSwitch around a pipeline with a Gigaflow cache of
// the given configuration — unless an option supplies another main cache
// (WithMegaflowBackend), in which case cfg is not looked at.
func NewVSwitch(p *Pipeline, cfg CacheConfig, opts ...VSwitchOption) *VSwitch {
	v := &VSwitch{pipe: p, current: p.Version}
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
// batch of one through run, the one datapath loop, and carries no TCP
// flags.
//
//gf:hotpath
func (v *VSwitch) Process(k Key, now int64) (ProcessResult, error) {
	o := &v.one
	o.key[0] = k
	v.run(o.key[:], nil, o.out[:], o.err[:], nil, now)
	return o.out[0], o.err[0]
}

// ProcessBatchMeta handles len(keys) packets at virtual time now, writing
// packet i's result to out[i] and its error to errs[i]; out and errs must
// be at least len(keys) long. It is semantically identical to handing the
// packets over one batch of one at a time, in order — packets are
// processed strictly in sequence through the full hierarchy, so a miss's
// installed rules, Microflow memoization and held results are visible to
// later packets in the same batch and every counter matches a sequential
// replay exactly. What a batch saves is the per-call cost: one recorder
// batch, one clock read for its hit runs.
//
// flags carries each packet's TCP flag byte, the packet metadata the flow
// key does not carry; it may be nil (all packets read as flagless) and is
// otherwise indexed in step with keys. The flags drive the conntrack state
// machine when connection tracking is enabled and are ignored otherwise,
// so a single packet with TCP flags enters here as a batch of one. With
// conntrack on, each packet is tracked first and its ct_state bits are
// folded into the key every later stage sees; a packet of a tracked
// protocol is then served from its connection's held result while
// conntrack.Conn.Serves allows, and otherwise goes on to the main cache
// and the slow path, whose walk it holds anew. With conntrack off the loop
// reduces exactly to the stateless datapath.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchMeta(keys []Key, flags []uint8, out []ProcessResult, errs []error, now int64) {
	v.run(keys, flags, out, errs, nil, now)
}

// run is the datapath: the one body every entry point wraps. Each packet
// crosses the same stages in order — connection tracking, then the first
// level (a tracked packet's held result, any other packet's Microflow
// memo), the main-cache lookup, memoization — and a packet no cache
// serves takes the miss policy the caller chose: parked == nil resolves it
// inline (processMiss), a non-nil parked reports it in parked[i],
// uncounted, for the caller to finish through CompleteMiss. The stateful
// stages are not optional, so on a conntrack switch a miss is always
// resolved inline: it needs its connection, which only this goroutine may
// touch.
//
// Keys are read where the caller put them and results written where the
// caller will read them: k and o point into keys and out, and the backend
// rewrites the key straight into o.Final. The body is allocation-free on
// every hit; the miss is behind a boundary (processMiss).
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
		errs[i] = nil
		if parked != nil {
			parked[i] = false
		}
		v.stats.Packets++
		kt, conn, dir := k, (*conntrack.Conn)(nil), conntrack.DirForward
		tier, served, missTier := telemetry.TierMicroflow, false, telemetry.TierSlowpath
		if v.ct != nil {
			var fl uint8
			if flags != nil {
				fl = flags[i]
			}
			var bits uint64
			bits, conn, dir = v.ct.TrackKey(k, fl, now)
			v.kt = *k
			v.kt.Set(flow.FieldCtState, bits)
			kt = &v.kt
			if conn != nil {
				var refused bool
				if served, refused = v.serveHeld(conn, dir, kt, o); refused {
					missTier = telemetry.TierConntrack
				}
			}
		}
		if conn == nil && v.uf != nil {
			e, ok := v.uf.Find(k, now)
			if served = ok; ok {
				v.stats.MicroflowHits++
				o.Final = e.Final // on its own: a tuple assignment copies the key twice
				o.Verdict, o.CacheHit, o.MicroflowHit = e.Verdict, true, true
			}
		}
		if !served {
			verdict, hit := v.main.Find(kt, now, &o.Final)
			if !hit {
				if parked != nil && v.ct == nil {
					// Park it. The packet's accounting is deferred to
					// CompleteMiss (initiator) or its replay through Process
					// (follower).
					v.stats.Packets--
					parked[i] = true
					if v.resume {
						v.stalled = o.Final
					}
					*o = ProcessResult{}
				} else {
					errs[i] = v.processMiss(k, kt, conn, dir, missTier, now, o)
				}
				continue
			}
			v.stats.CacheHits++
			o.Verdict, o.CacheHit, o.MicroflowHit = verdict, true, false
			if conn == nil {
				v.memoize(k, &o.Final, verdict, now)
			} else {
				v.holdHit(&conn.Served[dir], kt, &o.Final, verdict)
			}
			tier = v.tier
		}
		// A cache served it: one more hit in the run it belongs to.
		if v.rec != nil {
			v.rec.Hit(tier)
		}
	}
	if v.rec != nil {
		v.rec.EndBatch()
	}
}

// processMiss is the inline miss policy: it punts a main-cache miss to the
// slowpath — pipeline traversal, then install — and writes the result
// to *o. kt is the lookup key with ct_state folded in (k itself when
// tracking is off), conn/dir the packet's tracked connection (nil when
// tracking is off or the packet is untracked), tier the latency tier the
// miss is attributed to (TierConntrack when the connection's held result
// was refused). o.Final holds the key as the lookup's matched prefix
// rewrote it, which a resumed walk starts from (walkSuffix); any other
// miss walks the whole pipeline.
//
// The traversal refills v.trav and the install probes the cache before it
// builds anything, so a miss allocates for the entries it adds and
// nothing else; the walk, the partitioner, the composition and the probe
// are certified on their own (Pipeline.ProcessInto and the gfcache
// functions it feeds).
//
//gf:hotpath-safe the slow-path boundary: wraps a pipeline error, which a hit may not do
func (v *VSwitch) processMiss(k, kt *Key, conn *conntrack.Conn, dir conntrack.Dir,
	tier telemetry.Tier, now int64, o *ProcessResult) error {
	if v.rec != nil {
		v.rec.ColdBegin()
	}
	v.stats.CacheMisses++
	tr, table := &v.trav, 0
	var err error
	if v.ct != nil {
		v.res.ct, v.res.pipe, v.res.conn, v.res.dir = v.ct, v.pipe, conn, dir
		err = v.pipe.ProcessInto(tr, kt, &v.res)
	} else if table = v.walkSuffix(tr, &o.Final); table == 0 {
		err = v.pipe.ProcessInto(tr, kt, nil)
	}
	flags := telemetry.FlightMiss
	if err != nil {
		err = fmt.Errorf("gigaflow: slowpath: %w", err)
		*o = ProcessResult{}
	} else {
		flags |= v.install(k, tr, table, now, conn, dir, o)
	}
	if v.rec != nil {
		v.rec.Cold(tier, kt.FlowHash(), flags)
	}
	return err
}

// walkSuffix is the resumed walk. When resuming is on and the main cache's
// last Find stalled where the cache can place a suffix, it walks the
// pipeline into tr from the table the matched prefix continues at, with
// *stalled — the key as the prefix's commits rewrote it — and the step
// budget the prefix left, and returns the first cache table after the
// prefix. It returns 0 when there is nothing to resume and when the suffix
// walk reached no verdict, for the full walk to run and report why.
//
//gf:hotpath
func (v *VSwitch) walkSuffix(tr *Traversal, stalled *Key) (table int) {
	if !v.resume {
		return 0
	}
	next, table, span := v.main.Stall()
	if span == 0 || v.pipe.ProcessPartialInto(tr, next, stalled, v.pipe.MaxSteps-span) != nil || !tr.Verdict.Terminal() {
		return 0
	}
	return table
}

// install is the second half of a miss, the one body the inline miss and a
// completed parked one share: the traversal goes into the main cache's
// tables from table on, the install is counted — into tables past the
// first (table > 0) as a resumed miss, which walked and probed for its
// suffix alone — the result is written to *o and the walk kept for the
// packets after it — held on the packet's connection, or memoized. It
// returns the flight-record flags the install earned.
//
// A walk that resolved a NAT action against the connection (CtEpoch set)
// is good for that connection alone, so it is held and not installed: an
// entry no other connection can hit would only wait in the main cache for
// LRU to evict it. A walk whose binding came after an earlier step had
// already resolved carries a stamp from before the binding (pipeline's
// first-resolution rule); held all the same, it is refused on the next
// packet, whose walk resolves every step under the binding.
func (v *VSwitch) install(k *Key, tr *Traversal, table int, now int64, conn *conntrack.Conn, dir conntrack.Dir,
	o *ProcessResult) (flags uint8) {
	v.stats.SlowpathSteps += uint64(tr.Len())
	v.stats.SlowpathTupleProbes += uint64(tr.TuplesProbed)
	if table > 0 {
		v.stats.Resumed++
	}
	if tr.CtEpoch == 0 {
		ok, evicted := v.main.Install(tr, table, now)
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
	}
	o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = tr.Verdict, tr.FinalKey(), false, false
	if conn != nil {
		hold(&conn.Served[dir], tr)
	} else {
		v.memoize(k, &o.Final, tr.Verdict, now)
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
	v.current = v.pipe.Version
	return v.main.RevalidateAgainst(v.pipe)
}

// ExpireIdle evicts what has been idle longer than its limit at virtual
// time now, a limit of 0 turning that expiry off: tracked connections
// idle past connMaxIdle, then Microflow and main-cache entries idle past
// maxIdle (§4.3.2). Returns the number evicted from the main cache.
func (v *VSwitch) ExpireIdle(now, maxIdle, connMaxIdle int64) int {
	if v.ct != nil && connMaxIdle > 0 {
		// Idle connections die first (epoch-poisoned), so cache entries
		// that depended on them fail validation even before their own
		// idle timers fire.
		v.ct.ExpireIdle(now, connMaxIdle)
	}
	if maxIdle <= 0 {
		return 0
	}
	if v.uf != nil {
		v.uf.ExpireIdle(now, maxIdle)
	}
	return v.main.ExpireIdle(now, maxIdle)
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
	c("gigaflow_slowpath_tables_total", "Pipeline tables visited by the traversals handed to the cache.", s.SlowpathSteps)
	c("gigaflow_slowpath_tuple_probes_total", "TSS tuples probed by the traversals handed to the cache.", s.SlowpathTupleProbes)
	c("gigaflow_slowpath_resumed_total", "Misses that walked and installed only the suffix after the prefix the main cache held.", s.Resumed)
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
		c("gigaflow_microflow_invalidated_total", "Exact-match entries dropped by revalidation.", us.Invalid)
		c("gigaflow_microflow_bypassed_total", "Memoize requests declined while the tier was stepping aside from a working set it cannot hit.", us.Bypassed)
		c("gigaflow_microflow_shed_total", "Exact-match entries dropped when a thrashing tier shrank to its sampled miniature.", us.Shed)
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
		c("gigaflow_ct_fastpath_total", "Tracked packets served from their connection's held result.", s.CtFastpath)
		c("gigaflow_ct_guard_fails_total", "Held results refused (pipeline version, stamp or match).", s.CtGuardFails)
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
	}
}
