package telemetry

import (
	"math"
	"time"
)

// Flight-record flags. A record carries the union of what happened to
// its packet; FlightEstimated marks latencies shared out of a hit-run
// span rather than stamped exactly.
const (
	FlightMiss       uint8 = 1 << iota // resolved on the slow path
	FlightInstall                      // slow path installed a cache entry
	FlightInstallErr                   // install attempted and rejected
	FlightEvict                        // the install evicted a resident entry
	FlightTraced                       // packet was diverted to the sampling tracer
	FlightEstimated                    // latency is a run estimate, not an exact stamp
	FlightDeferred                     // miss resolved asynchronously by the upcall engine
)

// FlightRecord is one packet's entry in the flight-recorder ring: 32
// bytes, fixed layout, no pointers, so a ring of thousands costs one
// allocation at construction and nothing per packet.
type FlightRecord struct {
	TS      int64  `json:"ts"`       // wall-clock ns: the batch anchor (estimated hits) or anchor + monotonic offset (cold events)
	KeyHash uint64 `json:"key_hash"` // flow id: microflow probe hash on warm hits, FlowHash elsewhere
	LatNs   int32  `json:"lat_ns"`   // per-packet latency, clamped at ~2.1s
	Batch   uint32 `json:"batch"`    // worker-local batch sequence number
	// ParkNs is the queue-wait a FlightDeferred miss spent parked between
	// upcall enqueue and engine dequeue, separated from the traversal time
	// in LatNs; zero on every other record.
	ParkNs int32 `json:"park_ns,omitempty"`
	Tier   Tier  `json:"tier"`
	Flags  uint8 `json:"flags"`
}

// runInfo is one closed hit run in the side ring: records with sequence
// numbers below endSeq (down to the previous run's endSeq) share ts as
// their timestamp, perNs as their estimated latency, and batch as their
// batch number (a run opens and closes within one worker message, so it
// never spans batches).
type runInfo struct {
	endSeq uint64 // r.seq after the run's last record
	ts     int64  // batch anchor (wall ns) the run ran under
	perNs  int32  // span / packets, clamped
	batch  uint32 // batch the run belongs to
}

// FlightCapture is a spike-triggered snapshot: when a packet's latency
// crosses the recorder's threshold, the ring window leading up to and
// including the spike is copied out, so a p999 outlier comes with the
// events that surrounded it.
type FlightCapture struct {
	Seq       uint64         `json:"seq"`        // ring sequence at the trigger
	TriggerNs int64          `json:"trigger_ns"` // the latency that tripped the capture
	Batch     uint32         `json:"batch"`
	Records   []FlightRecord `json:"records"` // oldest first, trigger last
}

const (
	// DefaultFlightRecords is the per-worker ring size when the
	// configuration leaves it zero. 1024 records is 32KB — deep enough
	// for four capture windows, small enough that the ring's streaming
	// stores don't evict the flow tables' hot cache lines (a 4096-record
	// ring measurably slows the microflow hit path).
	DefaultFlightRecords = 1024
	// maxFlightCaptures bounds retained spike captures (oldest dropped).
	maxFlightCaptures = 4
	// captureWindow is how many trailing records a spike capture copies.
	captureWindow = 256
)

// LatencyRecorder attributes per-packet latency to resolution tiers and
// keeps a flight ring of recent per-packet events. It is single-writer
// by design: all state belongs to one worker goroutine, so the hot path
// is plain loads and stores — no locks, no atomics. Dumps and spike
// snapshots run as control ops on the owning goroutine, the same
// discipline the /cache endpoint uses for cache internals.
//
// The ring is write-minimal: a hit stores only the per-packet facts
// (key hash, batch, tier, flags). Its timestamp and latency are implied
// by the run it belongs to, recorded once per closed run in a side ring
// as deep as the record ring — every run contributes at least one
// record, so a resident record's run entry is always still resident
// too. Dumps and captures join the two rings back into full
// FlightRecords (binary search on the run ring's end sequences); only
// exactly-timed cold events store TS and LatNs inline.
//
// Clock discipline: a clock read costs ~25-55ns on commodity x86 — more
// than a quarter of a warm microflow hit — so the recorder cannot stamp
// every packet. It reads the monotonic clock once when a batch ends in
// hits (EndBatch) and twice per cold event; BeginBatch reads no clock at
// all — the worker already took a wall timestamp for cache aging, and
// the wall delta since the previous batch advances the monotonic anchor
// (clamped so it never regresses past the last real read; the error is
// bounded by wall-clock adjustment during one batch gap, on latencies
// that are estimates anyway). Consecutive hits between reads form a
// *run* whose measured span is shared uniformly across its packets;
// those records and histogram observations carry FlightEstimated.
// Misses and traced packets — the events that create the tail — are
// stamped exactly. Record timestamps anchor at the caller-supplied wall
// clock from BeginBatch and advance by monotonic offsets, so they are
// ordered and drift-free within a batch.
type LatencyRecorder struct {
	base    time.Time // monotonic anchor for time.Since offsets
	spikeNs int64

	hist [NumTiers]LatencyHistogram

	ring []FlightRecord // power-of-two, overwrite on wrap
	mask uint64
	seq  uint64 // total records ever written; next slot is seq&mask

	runs     []runInfo // closed runs, same depth as ring, runCount&mask
	runCount uint64

	batch     uint32
	anchor    int64 // caller's wall-clock now at BeginBatch
	anchorOff int64 // monotonic offset at BeginBatch
	runStart  int64 // monotonic offset where the current hit run began
	pending   [NumTiers]uint32
	inCold    bool
	coldStart int64

	spikes   uint64
	captures []FlightCapture
}

// NewLatencyRecorder builds a recorder with the given ring size (rounded
// up to a power of two; 0 means DefaultFlightRecords) and spike
// threshold (0 disables spike captures).
func NewLatencyRecorder(ringSize int, spike time.Duration) *LatencyRecorder {
	if ringSize <= 0 {
		ringSize = DefaultFlightRecords
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	base := time.Now()
	return &LatencyRecorder{
		base:    base,
		anchor:  base.UnixNano(), // wall and monotonic offset 0 correspond here
		spikeNs: int64(spike),
		ring:    make([]FlightRecord, size),
		runs:    make([]runInfo, size),
		mask:    uint64(size - 1),
	}
}

// BeginBatch opens an attribution batch anchored at the caller's wall
// clock now (UnixNano) — the same now that ages the caches, so cache
// state and recorded events share a timeline. No clock read: the wall
// delta since the previous anchor estimates the monotonic offset at
// batch start, clamped so it never precedes the last real read.
//
//gf:hotpath
func (r *LatencyRecorder) BeginBatch(now int64) {
	r.batch++
	delta := now - r.anchor
	if delta < 0 {
		delta = 0 // rewound (or synthetic) wall clock: hold the offset
	}
	off := r.anchorOff + delta
	if off < r.runStart {
		off = r.runStart // never start a run before the last real read
	}
	r.anchor = now
	r.anchorOff = off
	r.runStart = off
	r.inCold = false
}

// Hit appends a provisional record for a cache hit. No clock read, and
// no timestamp, latency, or batch store either: all three are implied
// by the run entry written when the surrounding run closes, and joined
// back in at dump time. The slot's TS, LatNs, and Batch are left stale
// — resolve overwrites them in the dumped copy, never in the ring.
//
//gf:hotpath
func (r *LatencyRecorder) Hit(tier Tier, keyHash uint64) {
	s := &r.ring[r.seq&r.mask]
	s.KeyHash = keyHash
	s.Tier = tier
	s.Flags = FlightEstimated
	r.seq++
	r.pending[tier]++
}

// pendingHits sums the per-tier pending counters: the length of the open
// hit run. Four adds once per batch beat a fifth counter bumped per hit.
//
//gf:hotpath
func (r *LatencyRecorder) pendingHits() uint32 {
	n := uint32(0)
	for t := range r.pending {
		n += r.pending[t]
	}
	return n
}

// EndBatch closes the trailing hit run: one monotonic clock read when
// the batch ended in hits, none otherwise. This is the recorder's
// anchored stamp — the one sanctioned clock read on the hit path, paid
// per batch rather than per packet.
//
//gf:hotpath-safe the recorder's anchored stamp: one clock read per batch, amortized across the run's hits
func (r *LatencyRecorder) EndBatch() {
	if r.pendingHits() == 0 {
		return
	}
	r.closeRun(int64(time.Since(r.base)))
}

// closeRun shares the span since runStart uniformly across the pending
// hit records and folds the estimate into the per-tier histograms. The
// records themselves are not touched: one runInfo entry covers them
// all, and dumps join it back in — O(1) regardless of run length. It is
// reached only behind the EndBatch/ColdBegin clock boundaries, so it is
// not itself a certification root.
func (r *LatencyRecorder) closeRun(d int64) {
	n := uint64(r.pendingHits())
	span := d - r.runStart
	if span < 0 {
		span = 0
	}
	per := span / int64(n)
	r.runs[r.runCount&r.mask] = runInfo{endSeq: r.seq, ts: r.anchor, perNs: clampLat(per), batch: r.batch}
	r.runCount++
	for t := range r.pending {
		if c := r.pending[t]; c != 0 {
			r.hist[t].ObserveN(per, uint64(c))
			r.pending[t] = 0
		}
	}
	r.runStart = d
	if r.spikeNs > 0 && per >= r.spikeNs {
		r.capture(per)
	}
}

// ColdBegin marks the point where a packet leaves the hit path (slow-path
// miss or tracer divert): it closes any open hit run and stamps the cold
// start. Idempotent until the matching Cold call. Cold paths are µs-scale,
// so these two clock reads are noise there.
func (r *LatencyRecorder) ColdBegin() {
	if r.inCold {
		return
	}
	d := int64(time.Since(r.base))
	if r.pendingHits() != 0 {
		r.closeRun(d)
	} else {
		r.runStart = d
	}
	r.coldStart = d
	r.inCold = true
}

// Cold records an exactly-timed cold event begun at the preceding
// ColdBegin, attributed to tier with the given flags. FlightTraced
// events land in the ring but are excluded from the tier histograms and
// spike captures: a traced packet's latency includes the tracing work
// itself, and folding that in would report the observer as the tail.
func (r *LatencyRecorder) Cold(tier Tier, keyHash uint64, flags uint8) {
	if !r.inCold {
		r.ColdBegin() // defensive: a cold record without a begin times ~0
	}
	d := int64(time.Since(r.base))
	lat := d - r.coldStart
	if lat < 0 {
		lat = 0
	}
	s := &r.ring[r.seq&r.mask]
	s.TS = r.anchor + (d - r.anchorOff)
	s.KeyHash = keyHash
	s.LatNs = clampLat(lat)
	s.Batch = r.batch
	s.ParkNs = 0 // ring slots are reused; a prior Deferred occupant left one
	s.Tier = tier
	s.Flags = flags
	r.seq++
	r.inCold = false
	r.runStart = d
	if flags&FlightTraced != 0 {
		return
	}
	r.hist[tier].Observe(lat)
	if r.spikeNs > 0 && lat >= r.spikeNs {
		r.capture(lat)
	}
}

// Deferred records a miss resolved asynchronously by the upcall engine:
// latNs is the traversal span measured on the engine goroutine, parkNs
// the queue wait between upcall enqueue and engine dequeue — the two
// components /debug/flight separates so a deferred completion's tail is
// attributable to the slow path or to queueing, never conflated. The
// record is stamped exactly at the completion's delivery time (it closes
// any open hit run first, like every cold event), carries
// FlightDeferred on top of the caller's flags, and feeds latNs — the
// traversal alone — into the tier histogram so slow-path ladders stay
// comparable between inline and asynchronous modes.
func (r *LatencyRecorder) Deferred(tier Tier, keyHash uint64, flags uint8, latNs, parkNs int64) {
	d := int64(time.Since(r.base))
	if r.pendingHits() != 0 {
		r.closeRun(d)
	}
	if latNs < 0 {
		latNs = 0
	}
	if parkNs < 0 {
		parkNs = 0
	}
	s := &r.ring[r.seq&r.mask]
	s.TS = r.anchor + (d - r.anchorOff)
	s.KeyHash = keyHash
	s.LatNs = clampLat(latNs)
	s.Batch = r.batch
	s.ParkNs = clampLat(parkNs)
	s.Tier = tier
	s.Flags = flags | FlightDeferred
	r.seq++
	r.inCold = false
	r.runStart = d
	r.hist[tier].Observe(latNs)
	if r.spikeNs > 0 && latNs >= r.spikeNs {
		r.capture(latNs)
	}
}

// resolve fills the timestamp and latency of a copied estimated record
// from the run ring: binary search for the first closed run whose
// endSeq exceeds the record's sequence number. Cold records carry exact
// values inline and pass through untouched. Dump-time only — never on
// the packet path.
func (r *LatencyRecorder) resolve(rec *FlightRecord, seq uint64) {
	if rec.Flags&FlightEstimated == 0 {
		return
	}
	lo := uint64(0)
	if r.runCount > uint64(len(r.runs)) {
		lo = r.runCount - uint64(len(r.runs))
	}
	hi := r.runCount
	for lo < hi {
		mid := (lo + hi) / 2
		if r.runs[mid&r.mask].endSeq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == r.runCount {
		// Record's run is still open. Control-op discipline makes this
		// unreachable from dumps (EndBatch/ColdBegin close the run before
		// the worker yields); defensively pin to the batch anchor.
		rec.TS = r.anchor
		rec.LatNs = 0
		rec.Batch = r.batch
		rec.ParkNs = 0
		return
	}
	run := &r.runs[lo&r.mask]
	rec.TS = run.ts
	rec.LatNs = run.perNs
	rec.Batch = run.batch
	rec.ParkNs = 0 // hits never park; scrub whatever the reused slot held
}

// capture copies the ring window ending at the spiking record. Rare by
// construction: only latencies past the configured threshold allocate.
func (r *LatencyRecorder) capture(latNs int64) {
	r.spikes++
	n := r.seq
	if n > captureWindow {
		n = captureWindow
	}
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	recs := make([]FlightRecord, n)
	for i := uint64(0); i < n; i++ {
		seq := r.seq - n + i
		recs[i] = r.ring[seq&r.mask]
		r.resolve(&recs[i], seq)
	}
	c := FlightCapture{Seq: r.seq, TriggerNs: latNs, Batch: r.batch, Records: recs}
	if len(r.captures) >= maxFlightCaptures {
		copy(r.captures, r.captures[1:])
		r.captures[len(r.captures)-1] = c
	} else {
		r.captures = append(r.captures, c)
	}
}

func clampLat(ns int64) int32 {
	if ns > math.MaxInt32 {
		return math.MaxInt32
	}
	if ns < 0 {
		return 0
	}
	return int32(ns)
}

// --- Owner-goroutine readers (serve control ops and experiments) ------

// Histogram returns the per-tier histogram. Owner-goroutine only.
func (r *LatencyRecorder) Histogram(t Tier) *LatencyHistogram { return &r.hist[t] }

// Seq reports the total number of records ever written.
func (r *LatencyRecorder) Seq() uint64 { return r.seq }

// RingSize reports the ring capacity (a power of two).
func (r *LatencyRecorder) RingSize() int { return len(r.ring) }

// Batches reports how many attribution batches have been opened.
func (r *LatencyRecorder) Batches() uint32 { return r.batch }

// Spikes reports how many spike captures have fired.
func (r *LatencyRecorder) Spikes() uint64 { return r.spikes }

// SpikeThreshold reports the capture threshold in nanoseconds (0 when
// disabled).
func (r *LatencyRecorder) SpikeThreshold() int64 { return r.spikeNs }

// Recent copies up to n of the newest resident records, newest first.
// n <= 0 means everything resident in the ring.
func (r *LatencyRecorder) Recent(n int) []FlightRecord {
	avail := r.seq
	if avail > uint64(len(r.ring)) {
		avail = uint64(len(r.ring))
	}
	if n > 0 && uint64(n) < avail {
		avail = uint64(n)
	}
	out := make([]FlightRecord, avail)
	for i := uint64(0); i < avail; i++ {
		seq := r.seq - 1 - i
		out[i] = r.ring[seq&r.mask]
		r.resolve(&out[i], seq)
	}
	return out
}

// Captures returns the retained spike captures, oldest first. The record
// slices are immutable after capture; the returned header slice is a
// copy.
func (r *LatencyRecorder) Captures() []FlightCapture {
	out := make([]FlightCapture, len(r.captures))
	copy(out, r.captures)
	return out
}
