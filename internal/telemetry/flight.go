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
	_                                  // unused: /debug/flight serves raw flags, so the bits after it keep their values
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

// DefaultFlightRecords is the per-worker ring size. 1024 records is
// 32KB: small enough that the ring's streaming stores don't evict the
// flow tables' hot cache lines (a 4096-record ring measurably slows the
// microflow hit path).
const DefaultFlightRecords = 1024

// LatencyRecorder attributes per-packet latency to resolution tiers and
// keeps a flight ring of recent per-packet events. It is single-writer
// by design: all state belongs to one worker goroutine, so the hot path
// is plain loads and stores — no locks, no atomics. Dumps run as control
// ops on the owning goroutine, the same discipline the /cache endpoint
// uses for cache internals.
//
// A hit stores only the per-packet facts (key hash, tier, flags). Its
// timestamp, latency and batch belong to the run it is part of and are
// stamped into the run's slots when the run closes: a run's records are
// always the newest in the ring, because every exactly-timed record
// (Cold, Deferred) closes the open run before it is written. Every
// resident record is therefore complete, and a dump is a plain copy.
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
// Misses and upcall completions — the events that create the tail — are
// stamped exactly. Record timestamps anchor at the caller-supplied wall
// clock from BeginBatch and advance by monotonic offsets, so they are
// ordered and drift-free within a batch.
type LatencyRecorder struct {
	base time.Time // monotonic anchor for time.Since offsets

	hist [NumTiers]LatencyHistogram

	ring []FlightRecord // power-of-two, overwrite on wrap
	mask uint64
	seq  uint64 // total records ever written; next slot is seq&mask

	batch     uint32
	anchor    int64 // caller's wall-clock now at BeginBatch
	anchorOff int64 // monotonic offset at BeginBatch
	runStart  int64 // monotonic offset where the current hit run began
	pending   [NumTiers]uint32
	inCold    bool
	coldStart int64
}

// NewLatencyRecorder builds a recorder with the given ring size (rounded
// up to a power of two; 0 means DefaultFlightRecords). The second
// argument is ignored; it stays for the benchmark's call until ROADMAP
// item 15.
func NewLatencyRecorder(ringSize int, _ time.Duration) *LatencyRecorder {
	if ringSize <= 0 {
		ringSize = DefaultFlightRecords
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	base := time.Now()
	return &LatencyRecorder{
		base:   base,
		anchor: base.UnixNano(), // wall and monotonic offset 0 correspond here
		ring:   make([]FlightRecord, size),
		mask:   uint64(size - 1),
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
// no timestamp, latency, or batch store either: closeRun stamps all
// three, and scrubs ParkNs, when the surrounding run closes.
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
// hit records, stamps the estimate into the run's slots — the newest n,
// of which only those still resident — and folds it into the per-tier
// histograms. It is reached only behind the EndBatch/ColdBegin clock
// boundaries, so it is not itself a certification root.
func (r *LatencyRecorder) closeRun(d int64) {
	n := uint64(r.pendingHits())
	span := d - r.runStart
	if span < 0 {
		span = 0
	}
	per := span / int64(n)
	lat := clampLat(per)
	for seq := r.seq - min(n, uint64(len(r.ring))); seq != r.seq; seq++ {
		s := &r.ring[seq&r.mask]
		s.TS, s.LatNs, s.Batch, s.ParkNs = r.anchor, lat, r.batch, 0
	}
	for t := range r.pending {
		if c := r.pending[t]; c != 0 {
			r.hist[t].ObserveN(per, uint64(c))
			r.pending[t] = 0
		}
	}
	r.runStart = d
}

// ColdBegin marks the point where a packet leaves the hit path on a
// slow-path miss: it closes any open hit run and stamps the cold
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
// ColdBegin, attributed to tier with the given flags.
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
	r.hist[tier].Observe(lat)
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
	for i := range out {
		out[i] = r.ring[(r.seq-1-uint64(i))&r.mask]
	}
	return out
}
