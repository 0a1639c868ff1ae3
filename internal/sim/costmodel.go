// Package sim is the end-to-end simulator: a driver and an observer of
// the datapath the service ships. It feeds a packet trace to a
// gigaflow.VSwitch (Gigaflow or Megaflow main cache, as a SmartNIC would
// host it) at the trace's virtual time, and charges latency and CPU cycles
// for what the switch's own counters say it did, from a model calibrated
// to the paper's testbed measurements. It reproduces the evaluation's
// end-to-end figures (hit rate, misses, entries, latency, CPU breakdown,
// dynamic workloads, core scaling) and, beside the cost model, the FPGA
// resource envelope of the device that hosts the cache.
package sim

// CostModel holds the calibrated latency/cycle constants. All latencies
// are nanoseconds; cycle costs are converted at CPUGHz.
type CostModel struct {
	// CPUGHz converts slowpath cycles to nanoseconds (testbed: Xeon
	// 8358P @ 2.6 GHz).
	CPUGHz float64

	// HWHitNs is the hardware-cache hit latency (paper §6.3.6: 8.62 µs on
	// the Alveo U250 for both Megaflow and Gigaflow offloads).
	HWHitNs int64
	// PuntNs is the extra PCIe/punt cost a miss pays before software sees
	// the packet.
	PuntNs int64
	// SlowBaseNs is the DPDK userspace per-upcall base cost (paper:
	// OVS/DPDK ≈ 12.61 µs on the host CPU).
	SlowBaseNs int64
	// SwCacheBaseNs is the per-lookup base cost of a CPU-resident cache
	// (software configurations of Fig. 17).
	SwCacheBaseNs int64

	// Reference latencies for the §6.3.6 configuration table.
	KernelHostNs int64
	KernelARMNs  int64
	DPDKHostNs   int64
	DPDKARMNs    int64

	// Per-unit cycle costs.
	CyclesPerTupleProbe int64 // one TSS tuple hash probe (hash + compare)
	CyclesPerNMUnit     int64 // one RQ-RMI work unit (model eval / window validation)
	CyclesPerTableVisit int64 // per pipeline table visited (actions etc.)
	CyclesPerDPCell     int64 // per dynamic-program cell in partitioning
	CyclesPerRuleGen    int64 // per cache rule composed/installed
	CyclesPerRevalStep  int64 // per table lookup during revalidation
}

// DefaultCostModel returns the model calibrated to the paper's testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		CPUGHz:  2.6,
		HWHitNs: 8620,
		PuntNs:  2000,
		// The DPDK slowpath and the CPU-resident cache base reflect the
		// paper's OVS/DPDK measurements (§6.3.6, Fig. 17): a software
		// cache hit costs most of the DPDK per-packet path before the
		// classifier search itself.
		SlowBaseNs:          12610,
		SwCacheBaseNs:       9500,
		KernelHostNs:        671480,
		KernelARMNs:         3606370,
		DPDKHostNs:          12610,
		DPDKARMNs:           51260,
		CyclesPerTupleProbe: 90,
		// An RQ-RMI unit is a fused multiply-add plus a bounded-window
		// touch — an order cheaper than hashing a 10-field key, which is
		// NuevoMatch's entire advantage.
		CyclesPerNMUnit:     18,
		CyclesPerTableVisit: 260,
		// Calibrated so the partition+rulegen overhead over the userspace
		// pipeline reproduces Fig. 13's ordering: larger pipelines
		// (OLS/ANT, with N²·K dynamic programs over longer traversals)
		// pay proportionally more than small ones (PSC/OTL/OFD).
		CyclesPerDPCell:    4,
		CyclesPerRuleGen:   100,
		CyclesPerRevalStep: 350,
	}
}

// CyclesToNs converts cycles at the model's CPU frequency.
func (m CostModel) CyclesToNs(cycles int64) int64 {
	return int64(float64(cycles) / m.CPUGHz)
}

// CycleBreakdown accumulates slowpath CPU work by phase — the Fig. 13
// decomposition: the userspace forwarding pipeline, sub-traversal
// partitioning, and LTM rule generation (the latter two are Gigaflow-only
// overheads; Megaflow pays only pipeline + its single-rule generation).
type CycleBreakdown struct {
	Pipeline  int64
	Partition int64
	RuleGen   int64
}

// Total sums all phases.
func (c CycleBreakdown) Total() int64 { return c.Pipeline + c.Partition + c.RuleGen }

// Add accumulates another breakdown.
func (c *CycleBreakdown) Add(o CycleBreakdown) {
	c.Pipeline += o.Pipeline
	c.Partition += o.Partition
	c.RuleGen += o.RuleGen
}

// Resources is the FPGA resource envelope of an LTM cache configuration
// on the paper's SmartNIC (an RMT-style feed-forward pipeline of ternary
// match-action tables on the Alveo U250 / OpenNIC prototype), scaled
// linearly from the measured prototype (§5: 4 tables × 8K entries ⇒ 47%
// LUTs, 33% FFs, 49% BRAM/URAM, 38 W on-chip at 100 G). The scaling is a
// first-order model: TCAM emulation dominates, and its cost grows with
// total ternary entry bits.
type Resources struct {
	LUTPct   float64
	FFPct    float64
	BRAMPct  float64
	PowerW   float64
	Feasible bool // within the device (≤100% resources, ≤75 W PCIe budget)
}

// EstimateResources models the synthesis cost of numTables × tableCapacity
// ternary entries.
func EstimateResources(numTables, tableCapacity int) Resources {
	scale := float64(numTables*tableCapacity) / float64(4*8192)
	// A fixed fraction of the prototype's utilisation is shell/datapath
	// overhead independent of cache size.
	const shellLUT, shellFF, shellBRAM, shellPower = 12, 10, 8, 20
	r := Resources{
		LUTPct:  shellLUT + (47-shellLUT)*scale,
		FFPct:   shellFF + (33-shellFF)*scale,
		BRAMPct: shellBRAM + (49-shellBRAM)*scale,
		PowerW:  shellPower + (38-shellPower)*scale,
	}
	r.Feasible = r.LUTPct <= 100 && r.FFPct <= 100 && r.BRAMPct <= 100 && r.PowerW <= 75
	return r
}
