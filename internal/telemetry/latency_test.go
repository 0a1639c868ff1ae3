package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

func TestLatencyHistogramQuantiles(t *testing.T) {
	var h LatencyHistogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	within := func(name string, got, want float64) {
		t.Helper()
		if got < want*0.92 || got > want*1.08 {
			t.Errorf("%s = %g, want ~%g", name, got, want)
		}
	}
	within("P50", s.P50, 500)
	within("P90", s.P90, 900)
	within("P99", s.P99, 990)
	within("P999", s.P999, 999)
	if s.MaxNs != 1000 {
		t.Errorf("MaxNs = %d, want 1000", s.MaxNs)
	}
	if s.MeanNs < 495 || s.MeanNs > 506 {
		t.Errorf("MeanNs = %g, want ~500.5", s.MeanNs)
	}
}

func TestLatencyHistogramObserveNMergeReset(t *testing.T) {
	var a, b, n LatencyHistogram
	for i := 0; i < 10; i++ {
		a.Observe(100)
	}
	n.ObserveN(100, 10)
	if a.Snapshot() != n.Snapshot() {
		t.Errorf("ObserveN(100,10) != 10×Observe(100): %+v vs %+v", n.Snapshot(), a.Snapshot())
	}
	b.Observe(5000)
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 11 || s.MaxNs != 5000 {
		t.Errorf("after Merge: Count=%d MaxNs=%d, want 11/5000", s.Count, s.MaxNs)
	}
	// Negative observations clamp rather than corrupt.
	var neg LatencyHistogram
	neg.Observe(-50)
	if s := neg.Snapshot(); s.Count != 1 || s.MaxNs != 0 {
		t.Errorf("negative observe: %+v", s)
	}
}

// miss records one inline miss of flow k: ColdBegin, then Cold.
func miss(r *LatencyRecorder, k uint64) {
	r.ColdBegin()
	r.Cold(TierSlowpath, k, FlightMiss)
}

// TestFlightRecorderWrapOrdering drives more misses than the ring holds
// and checks overwrite-on-wrap semantics and newest-first dumps.
func TestFlightRecorderWrapOrdering(t *testing.T) {
	r := NewLatencyRecorder(8, 0)
	if r.RingSize() != 8 {
		t.Fatalf("RingSize = %d, want 8", r.RingSize())
	}
	const batches, perBatch = 5, 4 // 20 records through an 8-slot ring
	for b := 0; b < batches; b++ {
		r.BeginBatch(int64(1000 * (b + 1)))
		for i := 0; i < perBatch; i++ {
			r.Hit(TierMicroflow)
			miss(r, uint64(b*perBatch+i))
		}
		r.EndBatch()
	}
	if r.Seq() != batches*perBatch {
		t.Fatalf("Seq = %d, want %d", r.Seq(), batches*perBatch)
	}
	recs := r.Recent(0)
	if len(recs) != 8 {
		t.Fatalf("Recent(0) = %d records, want ring size 8", len(recs))
	}
	// Newest first: key hashes count down from the last written record,
	// batch ids are non-increasing, timestamps non-increasing within a batch.
	for i, rec := range recs {
		wantHash := uint64(batches*perBatch - 1 - i)
		if rec.KeyHash != wantHash {
			t.Errorf("recs[%d].KeyHash = %d, want %d", i, rec.KeyHash, wantHash)
		}
		if rec.Tier != TierSlowpath || rec.Flags != FlightMiss {
			t.Errorf("recs[%d] = %+v, want a slow-path miss", i, rec)
		}
		if rec.LatNs < 0 {
			t.Errorf("recs[%d].LatNs = %d, want >= 0", i, rec.LatNs)
		}
		if i > 0 {
			if recs[i-1].Batch < rec.Batch {
				t.Errorf("batch order violated at %d: %d then %d", i, rec.Batch, recs[i-1].Batch)
			}
			if recs[i-1].Batch == rec.Batch && recs[i-1].TS < rec.TS {
				t.Errorf("timestamp order violated at %d", i)
			}
		}
	}
	if got := r.Recent(3); len(got) != 3 {
		t.Errorf("Recent(3) = %d records, want 3", len(got))
	}
	if got := r.Histogram(TierMicroflow).Count(); got != batches*perBatch {
		t.Errorf("microflow histogram count = %d, want %d", got, batches*perBatch)
	}
}

// TestFlightRecorderRunEstimation: hits in one run share a uniform
// latency estimate in the tier histograms and write no record.
func TestFlightRecorderRunEstimation(t *testing.T) {
	r := NewLatencyRecorder(64, 0)
	r.BeginBatch(1_000_000)
	r.Hit(TierMicroflow)
	r.Hit(TierMicroflow)
	r.Hit(TierGigaflow)
	spin(time.Microsecond)
	r.EndBatch()
	if r.Seq() != 0 || len(r.Recent(0)) != 0 {
		t.Fatalf("hits wrote %d records, want none", r.Seq())
	}
	mf, gf := r.Histogram(TierMicroflow), r.Histogram(TierGigaflow)
	if mf.Count() != 2 || gf.Count() != 1 {
		t.Fatalf("microflow, gigaflow counts = %d, %d, want 2, 1", mf.Count(), gf.Count())
	}
	if mf.sum != 2*gf.sum || gf.sum < int64(time.Microsecond)/3 {
		t.Errorf("microflow sum %d, gigaflow sum %d: want one estimate ≥ 1µs÷3 per hit", mf.sum, gf.sum)
	}
}

// TestFlightRecorderCold: cold events are stamped exactly, carry their
// flags, and close the preceding hit run.
func TestFlightRecorderCold(t *testing.T) {
	r := NewLatencyRecorder(64, 0)
	r.BeginBatch(5000)
	r.Hit(TierMicroflow)
	r.ColdBegin()
	spin(time.Microsecond)
	r.Cold(TierSlowpath, 42, FlightMiss|FlightInstall)
	r.EndBatch() // no trailing hits: must be a no-op
	recs := r.Recent(0)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	cold := recs[0]
	if cold.Tier != TierSlowpath || cold.KeyHash != 42 {
		t.Fatalf("cold record = %+v", cold)
	}
	if cold.Flags != FlightMiss|FlightInstall {
		t.Errorf("cold flags = %#x, want miss|install", cold.Flags)
	}
	if cold.LatNs < int32(time.Microsecond) {
		t.Errorf("cold LatNs = %d, want >= 1000 (spun 1µs)", cold.LatNs)
	}
	if cold.TS < 5000 || cold.Batch != 1 {
		t.Errorf("cold TS %d, batch %d: want at or after the anchor 5000, batch 1", cold.TS, cold.Batch)
	}
	if got := r.Histogram(TierSlowpath).Count(); got != 1 {
		t.Errorf("slowpath count = %d, want 1", got)
	}
	if got := r.Histogram(TierMicroflow).Count(); got != 1 {
		t.Errorf("microflow count = %d, want 1 (run closed by ColdBegin)", got)
	}

	// /debug/flight serves raw flags, so a flag keeps its bit.
	if FlightDeferred != 1<<6 {
		t.Errorf("deferred %#x: want 0x40", FlightDeferred)
	}
}

// TestFlightRecorderDeferred: upcall completions carry FlightDeferred,
// keep the queue wait (ParkNs) separate from the traversal time (LatNs),
// close the preceding hit run, and feed only the traversal time into the
// tier histogram.
func TestFlightRecorderDeferred(t *testing.T) {
	r := NewLatencyRecorder(64, 0)
	r.BeginBatch(9000)
	r.Hit(TierMicroflow)
	r.Deferred(TierSlowpath, 77, FlightMiss|FlightInstall, 2500, 40000)
	r.EndBatch() // no trailing hits: must be a no-op
	recs := r.Recent(0)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	def := recs[0]
	if def.Tier != TierSlowpath || def.KeyHash != 77 {
		t.Fatalf("deferred record = %+v", def)
	}
	if def.Flags != FlightMiss|FlightInstall|FlightDeferred {
		t.Errorf("flags = %#x, want miss|install|deferred", def.Flags)
	}
	if def.LatNs != 2500 || def.ParkNs != 40000 {
		t.Errorf("LatNs=%d ParkNs=%d, want 2500/40000", def.LatNs, def.ParkNs)
	}
	if got := r.Histogram(TierSlowpath).Count(); got != 1 {
		t.Errorf("slowpath count = %d, want 1", got)
	}
	if got := r.Histogram(TierMicroflow).Count(); got != 1 {
		t.Errorf("microflow count = %d, want 1 (run closed by Deferred)", got)
	}
	if max := r.Histogram(TierSlowpath).Snapshot().MaxNs; max < 2048 || max > 4096 {
		t.Errorf("slowpath max = %d, want the 2500ns traversal alone (park excluded)", max)
	}
	// Negative spans (clock skew between engine stamps) clamp to zero.
	r.Deferred(TierSlowpath, 78, FlightMiss, -5, -7)
	if got := r.Recent(1)[0]; got.LatNs != 0 || got.ParkNs != 0 {
		t.Errorf("negative spans not clamped: %+v", got)
	}
}

// TestFlightRecorderParkScrub: ring slots are reused, so an inline miss
// written over an old Deferred occupant must not inherit its ParkNs.
func TestFlightRecorderParkScrub(t *testing.T) {
	r := NewLatencyRecorder(2, 0) // two slots: everything wraps fast
	r.BeginBatch(1000)
	r.Deferred(TierSlowpath, 1, FlightMiss, 100, 9999)
	r.Deferred(TierSlowpath, 2, FlightMiss, 100, 9999)
	// Both slots are reused by inline misses, hits between them.
	for k := uint64(3); k <= 4; k++ {
		r.Hit(TierMicroflow)
		miss(r, k)
		if got := r.Recent(1)[0]; got.KeyHash != k || got.ParkNs != 0 {
			t.Errorf("miss %d: %+v, want its own record with no ParkNs", k, got)
		}
	}
	r.EndBatch()
}

// TestFlightRingKeepsColdEvents: hits take no ring slot, so a ring far
// shorter than the hit stream still holds the newest misses, Seq counts
// the misses alone, and the histograms still count every hit.
func TestFlightRingKeepsColdEvents(t *testing.T) {
	const size, hitsPer, colds = 16, 12, 40 // 480 hits: 30× the ring
	r := NewLatencyRecorder(size, 0)
	for c := 0; c < colds; c++ {
		r.BeginBatch(int64(1000 * (c + 1)))
		for i := 0; i < hitsPer; i++ {
			r.Hit(Tier(i % 2)) // microflow and gigaflow in turn
		}
		if c%2 == 0 {
			miss(r, uint64(c+1))
		} else {
			r.Deferred(TierSlowpath, uint64(c+1), FlightMiss, 100, 50)
		}
		r.Hit(TierMicroflow)
		r.EndBatch()
	}
	if r.Seq() != colds {
		t.Errorf("Seq = %d, want the %d misses", r.Seq(), colds)
	}
	recs := r.Recent(0)
	if len(recs) != size {
		t.Fatalf("%d records resident, want %d", len(recs), size)
	}
	for i, rec := range recs {
		if want := uint64(colds - i); rec.KeyHash != want || rec.Tier != TierSlowpath || rec.Flags&FlightMiss == 0 {
			t.Errorf("record %d from newest = %+v, want miss %d", i, rec, want)
		}
	}
	mf, gf := r.Histogram(TierMicroflow).Count(), r.Histogram(TierGigaflow).Count()
	if want := uint64(colds * (hitsPer/2 + 1)); mf != want || gf != colds*hitsPer/2 {
		t.Errorf("microflow, gigaflow counts = %d, %d, want %d, %d", mf, gf, want, colds*hitsPer/2)
	}
	if got := r.Histogram(TierSlowpath).Count(); got != colds {
		t.Errorf("slowpath count = %d, want %d", got, colds)
	}
}

func TestTierJSONRoundTrip(t *testing.T) {
	rec := FlightRecord{TS: 1, KeyHash: 2, LatNs: 3, Batch: 4, Tier: TierGigaflow, Flags: FlightMiss}
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["tier"] != "gigaflow" {
		t.Errorf("record tier marshals as %v, want \"gigaflow\": %s", doc["tier"], buf)
	}
	for tier := Tier(0); tier < NumTiers; tier++ {
		if b, err := json.Marshal(tier); err != nil || string(b) != `"`+tierNames[tier]+`"` {
			t.Errorf("tier %d marshals as %s (%v), want %q", tier, b, err, tierNames[tier])
		}
	}
}

// spin busy-waits (sleeping would be imprecise at µs scales and the
// recorder measures monotonic spans, not scheduler naps).
func spin(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}
