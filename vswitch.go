package gigaflow

import (
	"fmt"
	"sync"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/telemetry"
)

// VSwitch couples a hardware flow cache with the software slowpath: the
// complete Figure 5 workflow. Packets are first classified by the cache;
// on a miss the flow signature runs through the userspace pipeline, the
// resulting traversal is partitioned and compiled into cache rules, and
// the rules are installed so subsequent packets — including packets of
// *other* flows sharing sub-traversals — hit in hardware.
//
// VSwitch is not safe for concurrent use; drive it from one goroutine (the
// paper's configurations dedicate a single CPU core to the slowpath).
type VSwitch struct {
	pipe *Pipeline
	gf   *gfcache.Cache
	mf   *megaflow.Cache  // optional alternative backend
	uf   *microflow.Cache // optional exact-match first level
	ct   *conntrack.Table // optional connection tracking (stateful datapath)

	maxIdle   int64
	ctMaxIdle int64                      // conntrack idle expiry, independent of the cache tiers'
	tracer    *telemetry.Tracer          // optional traversal tracer (sampled)
	rec       *telemetry.LatencyRecorder // optional latency attribution + flight ring
	slowMu    *sync.Mutex                // optional slow-path traversal lock (async upcall mode)
	stats     VSwitchStats

	// trav is the one traversal every inline miss refills and res the
	// resolver it walks with under conntrack: the switch is
	// single-goroutine and a miss is done with its traversal — installed,
	// memoized — before the next packet is looked at, so neither is ever
	// allocated per packet. Traversals that outlive a call (the upcall
	// engine's, handed to CompleteMiss) come from Pipeline.Process.
	trav Traversal
	res  ctResolver
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

	// Conntrack-mode counters; always zero when tracking is disabled.
	CtFastpath    uint64 `json:"ct_fastpath,omitempty"`    // microflow hits served under the epoch guard
	CtGuardFails  uint64 `json:"ct_guard_fails,omitempty"` // microflow entries dropped by the guard
	CtInvalidated uint64 `json:"ct_invalidated,omitempty"` // main-cache entries removed on stale epoch
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

// WithMegaflowBackend replaces the Gigaflow cache with a Megaflow cache of
// the given capacity — the baseline configuration, useful for comparisons.
func WithMegaflowBackend(capacity int) VSwitchOption {
	return func(v *VSwitch) {
		v.gf = nil
		v.mf = megaflow.New(capacity)
	}
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

// WithSlowpathLock serializes every inline pipeline traversal this
// VSwitch performs (miss punts, overflow fallbacks, follower replays)
// against mu. The pipeline's TSS classifier keeps mutable per-lookup
// state, so when an external upcall engine traverses the same pipeline
// replica from its own goroutine, both sides must hold the same lock;
// the engine locks mu around its traversals, the VSwitch locks it here.
// The cache tiers and counters stay single-threaded on the goroutine
// driving the switch — only the traversal is contended. A nil mu (the
// default) keeps the slow path lock-free for strictly synchronous use.
func WithSlowpathLock(mu *sync.Mutex) VSwitchOption {
	return func(v *VSwitch) { v.slowMu = mu }
}

// NewVSwitch builds a vSwitch around a pipeline with a Gigaflow cache of
// the given configuration.
func NewVSwitch(p *Pipeline, cfg CacheConfig, opts ...VSwitchOption) *VSwitch {
	v := &VSwitch{pipe: p, gf: gfcache.New(p, cfg)}
	for _, o := range opts {
		o(v)
	}
	return v
}

// Pipeline returns the slowpath pipeline.
func (v *VSwitch) Pipeline() *Pipeline { return v.pipe }

// Cache returns the Gigaflow cache, or nil when running with the Megaflow
// backend.
func (v *VSwitch) Cache() *gfcache.Cache { return v.gf }

// Megaflow returns the Megaflow cache, or nil when running with the
// Gigaflow backend.
func (v *VSwitch) Megaflow() *megaflow.Cache { return v.mf }

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
// installation. This function is the packet fast path — the body below is
// the entire per-packet cost for cache hits, and gflint's hotalloc check
// holds it to zero heap allocations. Everything cold lives in unannotated
// callees: sampled packets divert to processTraced, misses to processMissCt.
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
// entries are validated against the connection's current epoch on every
// hit, and memoized microflow results serve only under the ctServe
// guard. With conntrack off the body reduces exactly to the stateless
// datapath.
//
//gf:hotpath
func (v *VSwitch) ProcessMeta(k Key, tcpFlags uint8, now int64) (ProcessResult, error) {
	v.stats.Packets++
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	if v.tracer != nil {
		if tb := v.tracer.Start(); tb != nil {
			return v.processTraced(&k, tcpFlags, now, tb)
		}
	}
	if v.uf != nil {
		if e, ok := v.uf.Find(&k, now); ok {
			if v.ct == nil || v.ctServe(e, &k, tcpFlags, now) {
				v.stats.MicroflowHits++
				if v.rec != nil {
					v.rec.Hit(telemetry.TierMicroflow, v.uf.LastHash())
					v.rec.EndBatch()
				}
				return ProcessResult{Verdict: e.Verdict, Final: e.Final, CacheHit: true, MicroflowHit: true}, nil
			}
			// Stale or transition-capable: drop the memo, take the full path.
			v.uf.Drop(&k)
			v.stats.CtGuardFails++
		}
	}
	kt, conn, dir := &k, (*conntrack.Conn)(nil), conntrack.DirForward
	var ktBuf Key
	tier := telemetry.TierSlowpath
	if v.ct != nil {
		var bits uint64
		bits, conn, dir = v.ct.TrackKey(&k, tcpFlags, now)
		ktBuf = k
		ktBuf.Set(flow.FieldCtState, bits)
		kt = &ktBuf
	}
	if v.gf != nil {
		res := v.gf.Lookup(*kt, now)
		if res.Hit {
			if v.ct == nil || v.ctPathValid(res.Path) {
				v.stats.CacheHits++
				v.memoizeCt(&k, &res.Final, res.Verdict, now, conn, dir)
				if v.rec != nil {
					v.rec.Hit(telemetry.TierGigaflow, kt.FlowHash())
					v.rec.EndBatch()
				}
				return ProcessResult{Verdict: res.Verdict, Final: res.Final, CacheHit: true}, nil
			}
			tier = telemetry.TierConntrack // stale entries revoked: replay
		}
	} else if e, ok := v.mf.Lookup(*kt, now); ok {
		if v.ct == nil || e.CtEpoch == 0 || v.ct.EpochValidKey(&e.CtConn, e.CtEpoch) {
			v.stats.CacheHits++
			final, verdict := e.Apply(*kt)
			v.memoizeCt(&k, &final, verdict, now, conn, dir)
			if v.rec != nil {
				v.rec.Hit(telemetry.TierMegaflow, kt.FlowHash())
				v.rec.EndBatch()
			}
			return ProcessResult{Verdict: verdict, Final: final, CacheHit: true}, nil
		}
		v.mf.Remove(e)
		v.stats.CtInvalidated++
		tier = telemetry.TierConntrack
	}
	return v.processMissCt(&k, kt, conn, dir, tier, now, nil)
}

// ProcessBatch handles len(keys) packets at virtual time now, writing
// packet i's result to out[i] and its error to errs[i]; out and errs must
// be at least len(keys) long. It is semantically identical to calling
// Process(keys[i], now) in order — packets are processed strictly
// in sequence through the full hierarchy, so a miss's installed rules and
// Microflow memoization are visible to later packets in the same batch and
// the resulting VSwitchStats match a sequential replay exactly.
//
// What batching buys is amortized bookkeeping: the VSwitch counters and
// each cache tier's counters are accumulated in locals and flushed once
// per batch instead of once per packet. Like Process, the loop body is
// allocation-free; sampled packets divert to processTraced and misses to
// processMissCt, which update their counters directly (flushing local
// deltas on top keeps the totals exact — the two never count the same
// packet).
//
//gf:hotpath
func (v *VSwitch) ProcessBatch(keys []Key, out []ProcessResult, errs []error, now int64) {
	v.ProcessBatchMeta(keys, nil, out, errs, now)
}

// ProcessBatchMeta is ProcessBatch with per-packet TCP flag bytes for the
// conntrack state machine; flags may be nil (all packets read as
// flagless) and is otherwise indexed in step with keys. See ProcessMeta
// for the conntrack semantics; with tracking disabled the body reduces
// exactly to the stateless batch path.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchMeta(keys []Key, flags []uint8, out []ProcessResult, errs []error, now int64) {
	if len(keys) == 0 {
		return
	}
	_ = out[len(keys)-1]
	_ = errs[len(keys)-1]
	if flags != nil {
		_ = flags[len(keys)-1]
	}
	var packets, ufHits, mainHits uint64
	var ufb microflow.BatchLookup
	var gfb gfcache.BatchLookup
	var mfb megaflow.BatchLookup
	if v.uf != nil {
		ufb = v.uf.BatchLookup()
	}
	if v.gf != nil {
		gfb = v.gf.BatchLookup()
	} else {
		mfb = v.mf.BatchLookup()
	}
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	// Keys are read where the caller put them and results written where
	// the caller will read them: k and o point into keys and out, res and
	// ktBuf are the loop's only key-sized locals and are reused.
	var res gfcache.Result
	var ktBuf Key
	for i := range keys {
		k, o := &keys[i], &out[i]
		var fl uint8
		if flags != nil {
			fl = flags[i]
		}
		packets++
		errs[i] = nil
		if v.tracer != nil {
			if tb := v.tracer.Start(); tb != nil {
				*o, errs[i] = v.processTraced(k, fl, now, tb)
				continue
			}
		}
		if v.uf != nil {
			if e, ok := ufb.Find(k, now); ok {
				if v.ct == nil || v.ctServe(e, k, fl, now) {
					ufHits++
					if v.rec != nil {
						v.rec.Hit(telemetry.TierMicroflow, v.uf.LastHash())
					}
					o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = e.Verdict, e.Final, true, true
					continue
				}
				v.uf.Drop(k)
				v.stats.CtGuardFails++
			}
		}
		kt, conn, dir := k, (*conntrack.Conn)(nil), conntrack.DirForward
		tier := telemetry.TierSlowpath
		if v.ct != nil {
			var bits uint64
			bits, conn, dir = v.ct.TrackKey(k, fl, now)
			ktBuf = *k
			ktBuf.Set(flow.FieldCtState, bits)
			kt = &ktBuf
		}
		if v.gf != nil {
			gfb.LookupInto(kt, now, &res)
			if res.Hit {
				if v.ct == nil || v.ctPathValid(res.Path) {
					mainHits++
					v.memoizeCt(k, &res.Final, res.Verdict, now, conn, dir)
					if v.rec != nil {
						v.rec.Hit(telemetry.TierGigaflow, kt.FlowHash())
					}
					o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = res.Verdict, res.Final, true, false
					continue
				}
				tier = telemetry.TierConntrack
			}
		} else if e, ok := mfb.Find(kt, now); ok {
			if v.ct == nil || e.CtEpoch == 0 || v.ct.EpochValidKey(&e.CtConn, e.CtEpoch) {
				mainHits++
				final, verdict := e.Apply(*kt)
				v.memoizeCt(k, &final, verdict, now, conn, dir)
				if v.rec != nil {
					v.rec.Hit(telemetry.TierMegaflow, kt.FlowHash())
				}
				o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = verdict, final, true, false
				continue
			}
			v.mf.Remove(e)
			v.stats.CtInvalidated++
			tier = telemetry.TierConntrack
		}
		*o, errs[i] = v.processMissCt(k, kt, conn, dir, tier, now, nil)
	}
	if v.rec != nil {
		v.rec.EndBatch()
	}
	v.stats.Packets += packets
	v.stats.MicroflowHits += ufHits
	v.stats.CacheHits += mainHits
	ufb.Flush()
	gfb.Flush()
	mfb.Flush()
}

// processTraced is Process for the 1-in-N sampled packets: the same
// lookup chain with every stage timed and recorded into tb. Sampled
// packets are allowed to allocate — that is the sampling contract. Their
// flight records are stamped exactly and carry FlightTraced, but they
// are excluded from the tier latency histograms: a traced packet's
// latency includes the tracing work itself, and folding that in would
// report the observer as the tail.
//
//gf:hotpath-safe sampled 1-in-N diversion; tracing allocates and reads the clock by contract
func (v *VSwitch) processTraced(k *Key, tcpFlags uint8, now int64, tb *telemetry.TraceBuilder) (ProcessResult, error) {
	if v.rec != nil {
		v.rec.ColdBegin()
	}
	tb.SetKey(k.String())
	if v.uf != nil {
		tb.Begin("microflow")
		e, ok := v.uf.Find(k, now)
		served := ok && (v.ct == nil || v.ctServe(e, k, tcpFlags, now))
		tb.End(served)
		if served {
			v.stats.MicroflowHits++
			tb.Finish(e.Verdict.String(), true, true, nil)
			if v.rec != nil {
				v.rec.Cold(telemetry.TierMicroflow, k.FlowHash(), telemetry.FlightTraced)
			}
			return ProcessResult{Verdict: e.Verdict, Final: e.Final, CacheHit: true, MicroflowHit: true}, nil
		}
		if ok {
			v.uf.Drop(k)
			v.stats.CtGuardFails++
		}
	}
	kt, conn, dir := k, (*conntrack.Conn)(nil), conntrack.DirForward
	tier := telemetry.TierSlowpath
	if v.ct != nil {
		tb.Begin("conntrack")
		var bits uint64
		bits, conn, dir = v.ct.TrackKey(k, tcpFlags, now)
		ktBuf := k.With(flow.FieldCtState, bits)
		kt = &ktBuf
		tb.End(conn != nil)
	}
	if v.gf != nil {
		tb.Begin("gigaflow")
		res := v.gf.Lookup(*kt, now)
		valid := res.Hit && (v.ct == nil || v.ctPathValid(res.Path))
		tb.End(valid)
		for _, e := range res.Path {
			tb.Note("ltm-table", e.TableIndex(), e.Tag, e.Priority)
		}
		if valid {
			v.stats.CacheHits++
			v.memoizeCt(k, &res.Final, res.Verdict, now, conn, dir)
			tb.Finish(res.Verdict.String(), true, false, nil)
			if v.rec != nil {
				v.rec.Cold(telemetry.TierGigaflow, kt.FlowHash(), telemetry.FlightTraced)
			}
			return ProcessResult{Verdict: res.Verdict, Final: res.Final, CacheHit: true}, nil
		}
		if res.Hit {
			tier = telemetry.TierConntrack
		}
	} else {
		tb.Begin("megaflow")
		e, ok := v.mf.Lookup(*kt, now)
		valid := ok && (v.ct == nil || e.CtEpoch == 0 || v.ct.EpochValidKey(&e.CtConn, e.CtEpoch))
		tb.End(valid)
		if valid {
			v.stats.CacheHits++
			final, verdict := e.Apply(*kt)
			v.memoizeCt(k, &final, verdict, now, conn, dir)
			tb.Finish(verdict.String(), true, false, nil)
			if v.rec != nil {
				v.rec.Cold(telemetry.TierMegaflow, kt.FlowHash(), telemetry.FlightTraced)
			}
			return ProcessResult{Verdict: verdict, Final: final, CacheHit: true}, nil
		}
		if ok {
			v.mf.Remove(e)
			v.stats.CtInvalidated++
			tier = telemetry.TierConntrack
		}
	}
	return v.processMissCt(k, kt, conn, dir, tier, now, tb)
}

// processMissCt punts a main-cache miss to the slowpath: full pipeline
// traversal, partitioning, and rule installation. kt is the lookup key
// with ct_state folded in (equal to k when tracking is off), conn/dir the
// packet's tracked connection (nil when tracking is off or the packet is
// untracked), tier the latency tier the miss is attributed to
// (TierConntrack when a stale connection-dependent entry forced the
// replay), and tb nil unless the packet is being traced.
//
// The traversal refills v.trav and the install probes the cache before it
// builds anything, so a miss allocates for the entries it adds and
// nothing else; the walk, the partitioner, the composition and the probe
// are certified on their own (Pipeline.ProcessInto and the gfcache
// functions it feeds).
//
//gf:hotpath-safe the slow-path boundary: takes the upcall engine's traversal lock, wraps a pipeline error and drives the sampled trace builder, none of which a hit may do
func (v *VSwitch) processMissCt(k, kt *Key, conn *conntrack.Conn, dir conntrack.Dir,
	tier telemetry.Tier, now int64, tb *telemetry.TraceBuilder) (ProcessResult, error) {
	if v.rec != nil {
		v.rec.ColdBegin() // no-op when arriving via processTraced
	}
	flightFlags := telemetry.FlightMiss
	if tb != nil {
		flightFlags |= telemetry.FlightTraced
	}
	v.stats.CacheMisses++
	v.stats.Slowpath++
	if tb != nil {
		tb.Begin("slowpath")
	}
	if v.slowMu != nil {
		v.slowMu.Lock() // exclude concurrent upcall-engine traversals
	}
	tr := &v.trav
	var err error
	if v.ct != nil {
		v.res.ct, v.res.pipe, v.res.conn, v.res.dir = v.ct, v.pipe, conn, dir
		err = v.pipe.ProcessInto(tr, kt, &v.res)
	} else {
		err = v.pipe.ProcessInto(tr, kt, nil)
	}
	if v.slowMu != nil {
		v.slowMu.Unlock()
	}
	if tb != nil {
		tb.End(err == nil)
	}
	if err != nil {
		err = fmt.Errorf("gigaflow: slowpath: %w", err)
		if tb != nil {
			tb.Finish("", false, false, err)
		}
		if v.rec != nil {
			v.rec.Cold(tier, kt.FlowHash(), flightFlags)
		}
		return ProcessResult{}, err
	}
	if tb != nil {
		tb.Begin("partition+install")
	}
	installed := true
	if v.gf != nil {
		var ev0 uint64
		if v.rec != nil {
			ev0 = v.gf.Stats().EvictLRU
		}
		if _, err := v.gf.Insert(tr, now); err != nil {
			v.stats.InstallErrs++
			installed = false
			flightFlags |= telemetry.FlightInstallErr
		} else {
			v.stats.Installs++
			flightFlags |= telemetry.FlightInstall
		}
		if v.rec != nil && v.gf.Stats().EvictLRU > ev0 {
			flightFlags |= telemetry.FlightEvict
		}
	} else {
		var ev0 uint64
		if v.rec != nil {
			ev0 = v.mf.Stats().EvictLRU
		}
		if e := v.mf.Insert(tr, now); e == nil {
			v.stats.InstallErrs++
			installed = false
			flightFlags |= telemetry.FlightInstallErr
		} else {
			v.stats.Installs++
			flightFlags |= telemetry.FlightInstall
		}
		if v.rec != nil && v.mf.Stats().EvictLRU > ev0 {
			flightFlags |= telemetry.FlightEvict
		}
	}
	if tb != nil {
		tb.End(installed)
	}
	final := tr.FinalKey()
	v.memoizeCt(k, &final, tr.Verdict, now, conn, dir)
	if tb != nil {
		tb.Finish(tr.Verdict.String(), false, false, nil)
	}
	if v.rec != nil {
		v.rec.Cold(tier, kt.FlowHash(), flightFlags)
	}
	return ProcessResult{Verdict: tr.Verdict, Final: final}, nil
}

// memoize records a processed flow in the Microflow tier, when enabled.
// The insert is part of the certified hot path: a full tier recycles its
// LRU entry in place, and a filling one grows its slab behind the
// microflow package's own audited boundary.
//
//gf:hotpath
func (v *VSwitch) memoize(k, final *Key, verdict Verdict, now int64) {
	if v.uf != nil {
		v.uf.Memoize(k, final, verdict, now)
	}
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
	if v.gf != nil {
		return v.gf.Revalidate()
	}
	return v.mf.Revalidate(v.pipe)
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
	if v.gf != nil {
		return v.gf.ExpireIdle(now, v.maxIdle)
	}
	return v.mf.ExpireIdle(now, v.maxIdle)
}

// CacheEntries reports the number of installed cache entries.
func (v *VSwitch) CacheEntries() int {
	if v.gf != nil {
		return v.gf.Len()
	}
	return v.mf.Len()
}

// Coverage reports the cache's rule-space coverage (Table 2); for the
// Megaflow backend this equals the entry count.
func (v *VSwitch) Coverage() uint64 {
	if v.gf != nil {
		return v.gf.Coverage()
	}
	return uint64(v.mf.Len())
}

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
	t := VSwitchTelemetry{Stats: v.stats, Coverage: v.Coverage()}
	if v.gf != nil {
		t.Backend = "gigaflow"
		s := v.gf.Snapshot()
		t.Gigaflow = &s
	} else {
		t.Backend = "megaflow"
		s := v.mf.Snapshot()
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
	c("gigaflow_installs_total", "Traversals compiled and installed into the cache.", s.Installs)
	c("gigaflow_install_errors_total", "Traversals that could not be installed.", s.InstallErrs)
	g("gigaflow_cache_entries", "Installed main-cache entries.", float64(v.CacheEntries()))
	g("gigaflow_cache_coverage", "Rule-space coverage of the installed entries.", float64(v.Coverage()))

	// Cache-churn rates, uniform across backends: inserts and removals by
	// cause, so expiry/eviction behavior under load is visible per tier.
	churn := func(reason string, val uint64) {
		reg.CounterVec("gigaflow_cache_evictions_total",
			"Main-cache entries removed, by cause.",
			"worker", "reason").With(worker, reason).Set(val)
	}

	if v.gf != nil {
		gs := v.gf.Stats()
		c("gigaflow_cache_inserts_total", "Entries created in the main cache.", gs.EntriesCreated)
		churn("lru", gs.EvictLRU)
		churn("expired", gs.Expired)
		churn("revoked", gs.Revoked)
		c("gigaflow_cache_stalls_total", "Misses that matched a partial entry chain.", gs.Stalls)
		c("gigaflow_shared_reuse_total", "Sub-traversal installs deduplicated against resident entries.", gs.SharedReuse)
		c("gigaflow_conflicts_total", "Entries replaced due to same-predicate conflicts.", gs.Conflicts)
		c("gigaflow_tables_probed_total", "LTM table consultations across lookups.", gs.TablesProbed)
		c("gigaflow_tuple_probes_total", "TSS tuple probes across lookups.", gs.TupleProbes)
		c("gigaflow_reval_work_total", "Pipeline table lookups spent revalidating.", gs.RevalWork)
		g("gigaflow_cache_capacity", "Total main-cache entry capacity.", float64(v.gf.Capacity()))
		tc := func(name, help string, table string, val uint64) {
			reg.CounterVec(name, help, "worker", "table").With(worker, table).Set(val)
		}
		tg := func(name, help string, table string, val float64) {
			reg.GaugeVec(name, help, "worker", "table").With(worker, table).Set(val)
		}
		for i := 0; i < v.gf.NumTables(); i++ {
			ts := v.gf.TableSnapshot(i)
			tl := fmt.Sprintf("%d", i)
			tc("gigaflow_table_hits_total", "Entry matches in this LTM table.", tl, ts.Hits)
			tc("gigaflow_table_inserts_total", "Entries created in this LTM table.", tl, ts.Inserts)
			tg("gigaflow_table_occupancy", "Resident entries in this LTM table.", tl, float64(ts.Len))
			tg("gigaflow_table_capacity", "Entry capacity of this LTM table.", tl, float64(ts.Capacity))
			tg("gigaflow_table_tags", "Distinct pipeline-table tags resident in this LTM table.", tl, float64(ts.Tags))
			te := func(reason string, val uint64) {
				reg.CounterVec("gigaflow_table_evictions_total",
					"Entries removed from this LTM table, by cause.",
					"worker", "table", "reason").With(worker, tl, reason).Set(val)
			}
			te("lru", ts.EvictLRU)
			te("expired", ts.Expired)
			te("revoked", ts.Revoked)
		}
	} else {
		ms := v.mf.Snapshot()
		c("gigaflow_cache_inserts_total", "Entries created in the main cache.", ms.Inserts)
		churn("lru", ms.EvictLRU)
		churn("expired", ms.Expired)
		churn("revoked", ms.Revoked)
		c("gigaflow_megaflow_replaced_total", "Entries replaced by an equal-mask reinstall.", ms.Replaced)
		c("gigaflow_megaflow_rejected_total", "Installs rejected by the Megaflow cache.", ms.Rejected)
		g("gigaflow_cache_capacity", "Total main-cache entry capacity.", float64(ms.Capacity))
		g("gigaflow_megaflow_masks", "Distinct TSS tuples in the Megaflow cache.", float64(ms.Masks))
		c("gigaflow_tuple_probes_total", "TSS tuple probes across lookups.", ms.TupleProbes)
		c("gigaflow_reval_work_total", "Pipeline table lookups spent revalidating.", ms.RevalWork)
	}

	if v.uf != nil {
		us := v.uf.Snapshot()
		g("gigaflow_microflow_entries", "Resident exact-match entries.", float64(us.Len))
		g("gigaflow_microflow_capacity", "Exact-match tier entry capacity.", float64(us.Capacity))
		c("gigaflow_microflow_inserts_total", "Exact-match entries memoized.", us.Inserts)
		c("gigaflow_microflow_evictions_total", "Exact-match entries evicted by LRU.", us.EvictLRU)
		c("gigaflow_microflow_expired_total", "Exact-match entries removed by idle expiry.", us.Expired)
		c("gigaflow_microflow_invalidated_total", "Exact-match entries dropped by revalidation.", us.Invalid)
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
		c("gigaflow_ct_invalidated_total", "Main-cache entries removed on a stale conntrack epoch.", s.CtInvalidated)
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
