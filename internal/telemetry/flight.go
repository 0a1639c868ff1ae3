package telemetry

import (
	"math"
	"time"
)

// Flight-record flags. A record carries the union of what happened to
// its packet's miss.
const (
	FlightMiss       uint8 = 1 << iota // resolved on the slow path
	FlightInstall                      // slow path installed a cache entry
	FlightInstallErr                   // install attempted and rejected
	FlightEvict                        // the install evicted a resident entry
	_                                  // bits 4 and 5 unused: /debug/flight serves raw flags, so the bits after them keep their values
	_
	FlightDeferred // parked miss completed through VSwitch.CompleteMiss, walked elsewhere
)

// FlightRecord is one miss's entry in the flight-recorder ring: 32
// bytes, fixed layout, no pointers, so a ring of thousands costs one
// allocation at construction and nothing per packet.
type FlightRecord struct {
	TS      int64  `json:"ts"`       // wall-clock ns: the batch anchor plus the monotonic offset at the record's stamp
	KeyHash uint64 `json:"key_hash"` // flow id: FlowHash of the missed key (ct_state folded in on a conntrack switch)
	LatNs   int32  `json:"lat_ns"`   // the miss's latency, clamped at ~2.1s
	Batch   uint32 `json:"batch"`    // worker-local batch sequence number
	// ParkNs is the wait a FlightDeferred miss spent parked before its
	// walk, separated from the traversal time in LatNs; zero on every
	// other record.
	ParkNs int32 `json:"park_ns,omitempty"`
	Tier   Tier  `json:"tier"`
	Flags  uint8 `json:"flags"`
}

// DefaultFlightRecords is the per-worker ring size: the last 1 024
// misses, 32KB.
const DefaultFlightRecords = 1024

// LatencyRecorder attributes per-packet latency to resolution tiers and
// keeps a flight ring of recent misses. It is single-writer by design:
// all state belongs to one worker goroutine, so the hot path is plain
// loads and stores — no locks, no atomics. Dumps run as control ops on
// the owning goroutine, the same discipline the /cache endpoint uses for
// cache internals.
//
// A hit is one increment: it joins its tier's share of the open hit run
// and writes no record. Only misses — the events that create the tail —
// take a ring slot, each stamped exactly: an inline miss (ColdBegin, then
// Cold) or a parked miss's completion (Deferred). Every record is therefore one
// counted miss, and the ring holds the last RingSize of them.
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
// *run* whose measured span is shared uniformly across its packets in
// the tier histograms. Record timestamps anchor at the caller-supplied
// wall clock from BeginBatch and advance by monotonic offsets, so they
// are ordered and drift-free within a batch.
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
}

// Hit counts a cache hit into its tier's share of the open run: no clock
// read and no record. closeRun times it with the rest of the run.
//
//gf:hotpath
func (r *LatencyRecorder) Hit(tier Tier) {
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
// hits and folds it into the per-tier histograms. It is reached only
// behind the EndBatch/ColdBegin clock boundaries, so it is not itself a
// certification root.
func (r *LatencyRecorder) closeRun(d int64) {
	span := d - r.runStart
	if span < 0 {
		span = 0
	}
	per := span / int64(r.pendingHits())
	for t := range r.pending {
		if c := r.pending[t]; c != 0 {
			r.hist[t].ObserveN(per, uint64(c))
			r.pending[t] = 0
		}
	}
	r.runStart = d
}

// ColdBegin marks the point where a packet leaves the hit path on a
// slow-path miss: it closes any open hit run and stamps the cold start.
// Cold paths are µs-scale, so its clock read and Cold's are noise there.
func (r *LatencyRecorder) ColdBegin() {
	r.coldStart = int64(time.Since(r.base))
	if r.pendingHits() != 0 {
		r.closeRun(r.coldStart)
	}
}

// Cold records an inline miss begun at the preceding ColdBegin,
// attributed to tier with the given flags.
func (r *LatencyRecorder) Cold(tier Tier, keyHash uint64, flags uint8) {
	d := int64(time.Since(r.base))
	r.record(d, tier, keyHash, flags, d-r.coldStart, 0)
}

// Deferred records a parked miss completed after its walk ran elsewhere
// (VSwitch.CompleteMiss, which only the benchmark's shadow chain calls
// until ROADMAP item 15): latNs is the traversal span measured where the
// walk ran, parkNs the wait before it — the two components /debug/flight
// separates so a deferred completion's tail is attributable to the slow
// path or to waiting, never conflated. The
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
	r.record(d, tier, keyHash, flags|FlightDeferred, latNs, parkNs)
}

// record writes a miss stamped at monotonic offset d into the next ring
// slot, and its latency into the tier's histogram; the next hit run
// starts at d.
func (r *LatencyRecorder) record(d int64, tier Tier, keyHash uint64, flags uint8, latNs, parkNs int64) {
	r.ring[r.seq&r.mask] = FlightRecord{
		TS:      r.anchor + (d - r.anchorOff),
		KeyHash: keyHash,
		LatNs:   clampLat(latNs),
		Batch:   r.batch,
		ParkNs:  clampLat(parkNs),
		Tier:    tier,
		Flags:   flags,
	}
	r.seq++
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

// Seq reports the total number of records ever written: the misses
// recorded.
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
