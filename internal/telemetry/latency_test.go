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
	a.Reset()
	if s := a.Snapshot(); s.Count != 0 || s.MaxNs != 0 {
		t.Errorf("after Reset: %+v, want zero", s)
	}
	// Negative observations clamp rather than corrupt.
	a.Observe(-50)
	if s := a.Snapshot(); s.Count != 1 || s.MaxNs != 0 {
		t.Errorf("negative observe: %+v", s)
	}
}

// TestFlightRecorderWrapOrdering drives more records than the ring holds
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
			r.Hit(TierMicroflow, uint64(b*perBatch+i))
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
		if rec.Flags&FlightEstimated == 0 {
			t.Errorf("recs[%d] missing FlightEstimated", i)
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
// latency estimate anchored at the batch's wall clock.
func TestFlightRecorderRunEstimation(t *testing.T) {
	r := NewLatencyRecorder(64, 0)
	const anchor = int64(1_000_000)
	r.BeginBatch(anchor)
	r.Hit(TierMicroflow, 1)
	r.Hit(TierMicroflow, 2)
	r.Hit(TierGigaflow, 3)
	r.EndBatch()
	recs := r.Recent(0)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, rec := range recs[1:] {
		if rec.LatNs != recs[0].LatNs {
			t.Errorf("run latencies differ: recs[%d]=%d vs %d", i+1, rec.LatNs, recs[0].LatNs)
		}
	}
	for _, rec := range recs {
		if rec.TS < anchor {
			t.Errorf("TS %d before anchor %d", rec.TS, anchor)
		}
		if rec.Batch != 1 {
			t.Errorf("Batch = %d, want 1", rec.Batch)
		}
	}
	if got := r.Histogram(TierMicroflow).Count(); got != 2 {
		t.Errorf("microflow count = %d, want 2", got)
	}
	if got := r.Histogram(TierGigaflow).Count(); got != 1 {
		t.Errorf("gigaflow count = %d, want 1", got)
	}
}

// TestFlightRecorderCold: cold events are stamped exactly, carry their
// flags, and close the preceding hit run; traced events stay out of the
// histograms.
func TestFlightRecorderCold(t *testing.T) {
	r := NewLatencyRecorder(64, 0)
	r.BeginBatch(5000)
	r.Hit(TierMicroflow, 1)
	r.ColdBegin()
	spin(time.Microsecond)
	r.Cold(TierSlowpath, 42, FlightMiss|FlightInstall)
	r.EndBatch() // no trailing hits: must be a no-op
	recs := r.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	cold := recs[0] // newest first
	if cold.Tier != TierSlowpath || cold.KeyHash != 42 {
		t.Fatalf("cold record = %+v", cold)
	}
	if cold.Flags != FlightMiss|FlightInstall {
		t.Errorf("cold flags = %#x, want miss|install", cold.Flags)
	}
	if cold.Flags&FlightEstimated != 0 {
		t.Errorf("cold record must not be estimated")
	}
	if cold.LatNs < int32(time.Microsecond) {
		t.Errorf("cold LatNs = %d, want >= 1000 (spun 1µs)", cold.LatNs)
	}
	if got := r.Histogram(TierSlowpath).Count(); got != 1 {
		t.Errorf("slowpath count = %d, want 1", got)
	}
	if got := r.Histogram(TierMicroflow).Count(); got != 1 {
		t.Errorf("microflow count = %d, want 1 (run closed by ColdBegin)", got)
	}

	// Traced events land in the ring but not the histograms.
	before := r.Histogram(TierGigaflow).Count()
	r.ColdBegin()
	r.Cold(TierGigaflow, 7, FlightTraced)
	if got := r.Histogram(TierGigaflow).Count(); got != before {
		t.Errorf("traced event folded into histogram: %d -> %d", before, got)
	}
	if got := r.Recent(1)[0]; got.Flags&FlightTraced == 0 || got.KeyHash != 7 {
		t.Errorf("traced record missing from ring: %+v", got)
	}
}

// TestFlightRecorderDeferred: upcall completions carry FlightDeferred,
// keep the queue wait (ParkNs) separate from the traversal time (LatNs),
// close the preceding hit run, and feed only the traversal time into the
// tier histogram.
func TestFlightRecorderDeferred(t *testing.T) {
	r := NewLatencyRecorder(64, 0)
	r.BeginBatch(9000)
	r.Hit(TierMicroflow, 1)
	r.Deferred(TierSlowpath, 77, FlightMiss|FlightInstall, 2500, 40000)
	r.EndBatch() // no trailing hits: must be a no-op
	recs := r.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	def := recs[0] // newest first
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

// TestFlightRecorderParkScrub: ring slots are reused, so records written
// over an old Deferred occupant must not inherit its ParkNs — neither
// exactly-stamped cold events nor run-resolved hits.
func TestFlightRecorderParkScrub(t *testing.T) {
	r := NewLatencyRecorder(2, 0) // two slots: everything wraps fast
	r.BeginBatch(1000)
	r.Deferred(TierSlowpath, 1, FlightMiss, 100, 9999)
	r.Deferred(TierSlowpath, 2, FlightMiss, 100, 9999)
	// Slot 0 is reused by a cold event.
	r.ColdBegin()
	r.Cold(TierSlowpath, 3, FlightMiss)
	if got := r.Recent(1)[0]; got.ParkNs != 0 {
		t.Errorf("cold record inherited ParkNs=%d from the reused slot", got.ParkNs)
	}
	// Slot 1 is reused by a hit; its dump-time resolution must scrub too.
	r.Hit(TierMicroflow, 4)
	r.EndBatch()
	if got := r.Recent(1)[0]; got.ParkNs != 0 || got.Flags&FlightEstimated == 0 {
		t.Errorf("resolved hit inherited ParkNs: %+v", got)
	}
}

// TestFlightRecorderSpike: a latency past the threshold snapshots the
// ring window around the spike.
func TestFlightRecorderSpike(t *testing.T) {
	r := NewLatencyRecorder(16, time.Microsecond)
	r.BeginBatch(1)
	r.Hit(TierMicroflow, 1)
	r.ColdBegin()
	spin(5 * time.Microsecond)
	r.Cold(TierSlowpath, 99, FlightMiss)
	// Scheduler or cold-start jitter can push the hit run itself over the
	// threshold too, so require at least the cold spike rather than
	// exactly one capture.
	if r.Spikes() < 1 {
		t.Fatalf("Spikes = %d, want >= 1", r.Spikes())
	}
	caps := r.Captures()
	if len(caps) == 0 {
		t.Fatalf("no captures retained")
	}
	c := caps[len(caps)-1] // the cold spike fired last
	if c.TriggerNs < int64(time.Microsecond) {
		t.Errorf("TriggerNs = %d, want >= 1000", c.TriggerNs)
	}
	if len(c.Records) == 0 {
		t.Fatalf("capture has no records")
	}
	last := c.Records[len(c.Records)-1]
	if last.KeyHash != 99 || last.Tier != TierSlowpath {
		t.Errorf("capture trigger record = %+v, want the spiking cold event", last)
	}
}

func TestTierJSONRoundTrip(t *testing.T) {
	rec := FlightRecord{TS: 1, KeyHash: 2, LatNs: 3, Batch: 4, Tier: TierGigaflow, Flags: FlightMiss}
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back FlightRecord
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back != rec {
		t.Errorf("round trip: %+v != %+v", back, rec)
	}
	var bad Tier
	if err := bad.UnmarshalJSON([]byte(`"warp"`)); err == nil {
		t.Errorf("unknown tier name unmarshalled without error")
	}
}

// spin busy-waits (sleeping would be imprecise at µs scales and the
// recorder measures monotonic spans, not scheduler naps).
func spin(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}
