package sim

import (
	"fmt"

	"gigaflow"
	"gigaflow/internal/flow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/traffic"
)

// BuildTrace generates a packet trace over a workload: numFlows flows with
// the given locality, expanded with CAIDA-style sizes and gaps.
func BuildTrace(w *pipebench.Workload, numFlows int, loc traffic.Locality, seed int64) []traffic.Packet {
	tcfg := traffic.Config{Seed: seed, NumFlows: numFlows}
	flows := w.Flows(tcfg, loc)
	return traffic.Expand(tcfg, flows)
}

// ConfigLatency is one row of the §6.3.6 deployment-latency comparison.
type ConfigLatency struct {
	Name      string
	LatencyNs int64
}

// LatencyTable returns the §6.3.6 per-configuration cache-hit latencies.
// The offload rows are produced by the device model; the CPU rows are the
// paper's measured constants for the corresponding OVS deployments.
func LatencyTable(m CostModel) []ConfigLatency {
	if m.CPUGHz == 0 {
		m = DefaultCostModel()
	}
	return []ConfigLatency{
		{Name: "OVS/Gigaflow-Offload (FPGA)", LatencyNs: m.HWHitNs},
		{Name: "OVS/Megaflow-Offload (FPGA)", LatencyNs: m.HWHitNs},
		{Name: "OVS/DPDK (host CPU)", LatencyNs: m.DPDKHostNs},
		{Name: "OVS/DPDK (BlueField ARM)", LatencyNs: m.DPDKARMNs},
		{Name: "OVS/Kernel (host)", LatencyNs: m.KernelHostNs},
		{Name: "OVS/Kernel (BlueField ARM)", LatencyNs: m.KernelARMNs},
	}
}

// RevalResult reports one cache's revalidation cost after a rule update
// (§6.3.6: Gigaflow revalidates ~2× faster than Megaflow because
// sub-traversals are shorter than full traversals and shared entries are
// validated once).
type RevalResult struct {
	Label   string
	Entries int
	Evicted int
	Work    int // pipeline table lookups replayed
	TimeMs  float64
}

// RevalidationExperiment feeds the workload's flows to a Gigaflow
// (numTables×tableCap) and a Megaflow (mfCap) switch, perturbs the pipeline
// (forcing every entry to be re-derived), and measures full-cache
// revalidation cost under the model.
func RevalidationExperiment(w *pipebench.Workload, numFlows int, numTables, tableCap, mfCap int, m CostModel) (gfRes, mfRes RevalResult, err error) {
	if m.CPUGHz == 0 {
		m = DefaultCostModel()
	}
	trace := BuildTrace(w, numFlows, traffic.HighLocality, 7)
	feed := func(cfg Config) (*gigaflow.VSwitch, error) {
		v := newSwitch(w, cfg)
		for i := range trace {
			if _, err := v.Process(trace[i].Key, trace[i].Time); err != nil {
				return nil, err
			}
		}
		return v, nil
	}
	gf, err := feed(Config{Kind: Gigaflow, NumTables: numTables, TableCapacity: tableCap})
	if err != nil {
		return gfRes, mfRes, err
	}
	mf, err := feed(Config{Kind: Megaflow, MegaflowCapacity: mfCap})
	if err != nil {
		return gfRes, mfRes, err
	}

	// Perturb the pipeline: any rule change bumps the version, forcing a
	// full revalidation pass over both caches.
	perturbPipeline(w)

	reval := func(label string, v *gigaflow.VSwitch) RevalResult {
		r := RevalResult{Label: label, Entries: v.CacheEntries()}
		r.Evicted, r.Work = v.Revalidate()
		r.TimeMs = float64(m.CyclesToNs(int64(r.Work)*m.CyclesPerRevalStep)) / 1e6
		return r
	}
	return reval(fmt.Sprintf("gigaflow(%dx%d)", numTables, tableCap), gf),
		reval(fmt.Sprintf("megaflow(%d)", mfCap), mf), nil
}

// perturbPipeline bumps the pipeline version with a benign rule so that
// revalidation must re-derive every cached entry (the common case after a
// controller pushes an update).
func perturbPipeline(w *pipebench.Workload) {
	first := w.Spec.Tables[0]
	m := flow.MatchAll().WithField(flow.FieldInPort, 0xfffe)
	w.Pipeline.MustAddRule(first.ID, m, 1, []flow.Action{flow.Drop()}, -1)
}
