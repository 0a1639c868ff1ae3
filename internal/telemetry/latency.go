package telemetry

import (
	"encoding/json"
	"fmt"

	"gigaflow/internal/stats"
)

// Tier identifies the datapath level that resolved a packet: which cache
// hit, or the slow path on a full miss. Latency histograms and flight
// records are attributed per tier because the tiers differ by orders of
// magnitude (a microflow hit is ~100ns, a slow-path traversal is ~µs) —
// a blended distribution would hide exactly the tail the cache hierarchy
// exists to shrink.
type Tier uint8

const (
	TierMicroflow Tier = iota
	TierGigaflow
	TierMegaflow
	TierSlowpath
	// TierConntrack attributes slow-path work forced by connection-state
	// churn: the packet's connection held a result, but it was refused
	// (conntrack.Conn.Serves) and the traversal had to be run again.
	TierConntrack
	// NumTiers sizes per-tier arrays.
	NumTiers
)

var tierNames = [NumTiers]string{"microflow", "gigaflow", "megaflow", "slowpath", "conntrack"}

// String returns the tier's lowercase name, as used in metric labels and
// JSON documents.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// MarshalJSON renders the tier as its name, keeping /debug/flight and
// /latency documents readable without a legend.
func (t Tier) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON accepts a tier name (the MarshalJSON form).
func (t *Tier) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range tierNames {
		if name == s {
			*t = Tier(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown tier %q", s)
}

// LatencyHistogram is a log-linear histogram of nanosecond latencies
// (stats.LatBucketIndex layout: 16 linear sub-buckets per octave, ≤6.25%
// relative quantile error). It is deliberately not concurrency-safe:
// each worker owns one per tier and folds observations in on its own
// goroutine, so the hot path pays plain stores — readers snapshot
// through worker control ops, never concurrently.
type LatencyHistogram struct {
	counts [stats.LatNumBuckets]uint64
	count  uint64
	sum    int64
	max    int64
}

// Observe records one latency. Negative values clamp to zero.
//
//gf:hotpath
func (h *LatencyHistogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[stats.LatBucketIndex(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// ObserveN records n observations of the same latency at once — the
// run-estimation path attributes a shared per-packet estimate to every
// packet of a hit run with a single call.
//
//gf:hotpath
func (h *LatencyHistogram) ObserveN(ns int64, n uint64) {
	if n == 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.counts[stats.LatBucketIndex(ns)] += n
	h.count += n
	h.sum += ns * int64(n)
	if ns > h.max {
		h.max = ns
	}
}

// Count reports the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) via the shared bucket
// math in stats.QuantileOf over the log-linear layout.
func (h *LatencyHistogram) Quantile(q float64) float64 {
	return stats.QuantileOf(h.counts[:], h.count, q, stats.LatBucketBounds)
}

// Merge folds o's observations into h (bucket-wise; max of maxes).
func (h *LatencyHistogram) Merge(o *LatencyHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram.
func (h *LatencyHistogram) Reset() { *h = LatencyHistogram{} }

// LatencySnapshot is a JSON-ready percentile ladder computed from a
// LatencyHistogram at snapshot time.
type LatencySnapshot struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	MaxNs  int64   `json:"max_ns"`
	P50    float64 `json:"p50_ns"`
	P90    float64 `json:"p90_ns"`
	P99    float64 `json:"p99_ns"`
	P999   float64 `json:"p999_ns"`
}

// Snapshot computes the percentile ladder. Owner-goroutine only, like
// every histogram method.
func (h *LatencyHistogram) Snapshot() LatencySnapshot {
	s := LatencySnapshot{Count: h.count, MaxNs: h.max}
	if h.count == 0 {
		return s
	}
	s.MeanNs = float64(h.sum) / float64(h.count)
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	s.P999 = h.Quantile(0.999)
	return s
}
