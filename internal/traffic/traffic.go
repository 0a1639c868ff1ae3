// Package traffic synthesises packet traces with the statistical character
// the paper takes from CAIDA captures: heavy-tailed (Pareto) flow sizes,
// exponential inter-packet gaps, and flow arrivals spread over a
// configurable window. Which flows appear — and how often the same rules
// recur — is controlled by a weighted Picker, giving the high- and
// low-locality patterns of §6.1.
package traffic

import (
	"math"
	"math/rand"
	"sort"

	"gigaflow/internal/flow"
)

// Packet is one trace event.
type Packet struct {
	Key    flow.Key
	Time   int64 // virtual nanoseconds since trace start
	Size   int   // bytes
	FlowID int
}

// Flow is one generated flow before packet expansion.
type Flow struct {
	ID      int
	Key     flow.Key
	RuleIdx int   // index of the ruleset rule this flow targets
	Packets int   // number of packets
	Start   int64 // first-packet time, ns
}

// Locality selects the rule-recurrence pattern of §6.1.
type Locality uint8

const (
	// LowLocality draws rules uniformly: few shared sub-traversals.
	LowLocality Locality = iota
	// HighLocality draws rules proportionally to their header-tuple
	// sharing frequency (Fig. 4), concentrating traffic on reusable
	// sub-traversals.
	HighLocality
)

// String names the locality mode as used in the paper's figures.
func (l Locality) String() string {
	if l == HighLocality {
		return "high"
	}
	return "low"
}

// Config parameterises trace generation.
type Config struct {
	Seed     int64
	NumFlows int
	// SpreadNs is the window over which flow start times are spread
	// (default 60 s).
	SpreadNs int64
	// MaxPackets caps a single flow's packet count (default 10000).
	MaxPackets int
}

func (c Config) withDefaults() Config {
	if c.SpreadNs == 0 {
		c.SpreadNs = 60_000_000_000
	}
	if c.MaxPackets == 0 {
		c.MaxPackets = 10000
	}
	return c
}

// Picker selects indices with probability proportional to their weights
// (cumulative-sum + binary search).
type Picker struct {
	cum []float64
}

// NewPicker builds a weighted picker; non-positive weights count as zero.
// Panics if no weight is positive.
func NewPicker(weights []float64) *Picker {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		panic("traffic: no positive weights")
	}
	return &Picker{cum: cum}
}

// UniformPicker builds a picker with equal weights over n indices.
func UniformPicker(n int) *Picker {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return NewPicker(w)
}

// Pick draws one index.
func (p *Picker) Pick(rng *rand.Rand) int {
	x := rng.Float64() * p.cum[len(p.cum)-1]
	return sort.SearchFloat64s(p.cum, x)
}

// GenerateFlows creates up to cfg.NumFlows flows. Each flow's target rule
// index is drawn from picker, and sample(ruleIdx, rng) synthesises a
// concrete flow key for it. Distinct flows carry distinct keys (duplicates
// are re-sampled). When the rule population cannot yield enough distinct
// keys, generation stops early and returns what exists rather than
// spinning — callers must tolerate len(result) < cfg.NumFlows.
func GenerateFlows(cfg Config, picker *Picker, sample func(ruleIdx int, rng *rand.Rand) flow.Key) []Flow {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	flows := make([]Flow, 0, cfg.NumFlows)
	seen := make(map[flow.Key]bool, cfg.NumFlows)
	failedPicks := 0
	maxFailedPicks := 4*cfg.NumFlows + 1000
	for len(flows) < cfg.NumFlows && failedPicks < maxFailedPicks {
		ri := picker.Pick(rng)
		var k flow.Key
		ok := false
		for attempt := 0; attempt < 30; attempt++ {
			k = sample(ri, rng)
			if !seen[k] {
				ok = true
				break
			}
		}
		if !ok {
			// This rule's key space looks exhausted; try another.
			failedPicks++
			continue
		}
		seen[k] = true
		f := Flow{
			ID:      len(flows),
			Key:     k,
			RuleIdx: ri,
			Packets: paretoCount(rng, cfg.MaxPackets),
			Start:   rng.Int63n(cfg.SpreadNs),
		}
		flows = append(flows, f)
	}
	return flows
}

// paretoAlpha shapes the flow-size tail (smaller is heavier), and
// gapMeanNs is the mean intra-flow inter-packet gap: 1 ms. paretoAlpha is
// typed so that -1/paretoAlpha divides the float64 nearest 1.3, as the
// division of a float64 variable does, and not the exact 13/10: the two
// exponents differ in the last bit, and so may the flow sizes drawn.
const (
	paretoAlpha float64 = 1.3
	gapMeanNs           = 1_000_000
)

// paretoCount draws a flow size from a Pareto(paretoAlpha, x_m=1)
// distribution, CAIDA's heavy-tailed flow-size character: most flows are
// mice, a few are elephants.
func paretoCount(rng *rand.Rand, maxPackets int) int {
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	n := int(math.Pow(u, -1/paretoAlpha))
	if n < 1 {
		n = 1
	}
	if n > maxPackets {
		n = maxPackets
	}
	return n
}

// Expand turns flows into a time-sorted packet trace with exponential
// inter-packet gaps.
func Expand(cfg Config, flows []Flow) []Packet {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	total := 0
	for _, f := range flows {
		total += f.Packets
	}
	pkts := make([]Packet, 0, total)
	for _, f := range flows {
		t := f.Start
		for i := 0; i < f.Packets; i++ {
			size := 64 + rng.Intn(1437) // 64..1500 bytes
			pkts = append(pkts, Packet{Key: f.Key, Time: t, Size: size, FlowID: f.ID})
			gap := rng.ExpFloat64() * gapMeanNs
			t += int64(gap) + 1
		}
	}
	sort.Slice(pkts, func(i, j int) bool {
		if pkts[i].Time != pkts[j].Time {
			return pkts[i].Time < pkts[j].Time
		}
		return pkts[i].FlowID < pkts[j].FlowID
	})
	return pkts
}

// ShiftStarts returns a copy of flows with all start times offset by
// deltaNs — used to model a second workload arriving mid-run (Fig. 18).
func ShiftStarts(flows []Flow, deltaNs int64) []Flow {
	out := make([]Flow, len(flows))
	copy(out, flows)
	for i := range out {
		out[i].Start += deltaNs
	}
	return out
}

// Merge combines multiple traces into one time-sorted trace, renumbering
// flow IDs to stay unique.
func Merge(traces ...[]Packet) []Packet {
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	out := make([]Packet, 0, total)
	idBase := 0
	for _, tr := range traces {
		maxID := -1
		for _, p := range tr {
			p.FlowID += idBase
			out = append(out, p)
			if p.FlowID-idBase > maxID {
				maxID = p.FlowID - idBase
			}
		}
		idBase += maxID + 1
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].FlowID < out[j].FlowID
	})
	return out
}
