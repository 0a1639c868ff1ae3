// Package nic models the resource envelope of the P4-programmable SmartNIC
// that hosts the hardware flow cache: an RMT-style feed-forward pipeline of
// ternary match-action tables (the paper's Alveo U250 / OpenNIC prototype,
// §5). The cache it hosts is the VSwitch's main cache; its latency
// constants live with the simulator's cost model.
package nic

// Resources estimates the FPGA resource envelope for an LTM cache
// configuration, scaled linearly from the paper's measured prototype
// (§5: 4 tables × 8K entries ⇒ 47% LUTs, 33% FFs, 49% BRAM/URAM, 38 W
// on-chip at 100 G). The scaling is a first-order model: TCAM emulation
// dominates, and its cost grows with total ternary entry bits.
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
