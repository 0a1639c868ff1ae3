package sim

import "math"

// Throughput is the aggregate-forwarding model of the paper's motivation
// (§1–§2): the SmartNIC forwards cache hits at line rate, so the
// achievable aggregate throughput is capped by how fast the slowpath CPUs
// can absorb the *misses*. A cache with a 10× lower miss rate supports
// ~10× the offered load before the slowpath saturates.
type Throughput struct {
	// MissRate is the fraction of packets punted to software.
	MissRate float64
	// PerMissNs is the mean software cost of one miss (upcall + pipeline +
	// rule generation + installation).
	PerMissNs float64
	// SlowpathPps is the total miss-absorption capacity of the configured
	// cores, in packets per second.
	SlowpathPps float64
	// MaxOfferedPps is the highest loss-free offered load: the rate at
	// which the miss stream exactly saturates the slowpath (line-rate
	// bounded). Infinite miss-free workloads clamp to the line rate.
	MaxOfferedPps float64
	// AggregateGbps converts MaxOfferedPps at the trace's mean packet
	// size, capped at the device line rate.
	AggregateGbps float64
	// LineRateGbps is the cap used.
	LineRateGbps float64
}

// lineRateGbps is the device line rate, the paper prototype's 100 G.
const lineRateGbps = 100

// computeThroughput derives the model from a finished run.
func computeThroughput(res *Result, totalBytes uint64, m CostModel) Throughput {
	t := Throughput{LineRateGbps: lineRateGbps}
	if res.Packets == 0 {
		return t
	}
	t.MissRate = float64(res.Misses) / float64(res.Packets)
	avgBits := float64(totalBytes) * 8 / float64(res.Packets)
	lineRatePps := lineRateGbps * 1e9 / avgBits

	if res.Misses > 0 {
		t.PerMissNs = float64(m.PuntNs+m.SlowBaseNs) + float64(m.CyclesToNs(res.Cycles.Total()))/float64(res.Misses)
	} else {
		t.PerMissNs = float64(m.PuntNs + m.SlowBaseNs)
	}
	cores := len(res.PerCore)
	if cores == 0 {
		cores = 1
	}
	t.SlowpathPps = float64(cores) * 1e9 / t.PerMissNs

	if t.MissRate == 0 {
		t.MaxOfferedPps = lineRatePps
	} else {
		t.MaxOfferedPps = math.Min(t.SlowpathPps/t.MissRate, lineRatePps)
	}
	t.AggregateGbps = t.MaxOfferedPps * avgBits / 1e9
	return t
}
