// Rule-space coverage (Table 2 in miniature): how K cache tables turn N
// cached sub-traversals into a cross product of megaflow-equivalent rules,
// and what that costs on the SmartNIC (§5's resource model).
//
//	go run ./examples/coverage
package main

import (
	"fmt"

	"gigaflow"
	"gigaflow/internal/sim"
)

func main() {
	const (
		macs    = 16
		subnets = 16
		ports   = 16
	)
	p := gigaflow.NewPipeline("coverage-demo")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "l4", gigaflow.NewFieldSet(gigaflow.FieldTpDst))
	for i := uint64(0); i < macs; i++ {
		p.MustAddRule(0, gigaflow.MatchAll().WithField(gigaflow.FieldEthDst, 0x0200+i), 10, nil, 1)
	}
	for i := uint64(0); i < subnets; i++ {
		m := gigaflow.MatchAll().WithMaskedField(gigaflow.FieldIPDst, 0x0a000000|i<<16,
			gigaflow.PrefixMask(gigaflow.FieldIPDst, 16))
		p.MustAddRule(1, m, 10, nil, 2)
	}
	for i := uint64(0); i < ports; i++ {
		p.MustAddRule(2, gigaflow.MatchAll().WithField(gigaflow.FieldTpDst, 8000+i), 10,
			[]gigaflow.Action{gigaflow.Output(uint16(i))}, gigaflow.NoTable)
	}

	vs := gigaflow.NewVSwitch(p, gigaflow.CacheConfig{NumTables: 3, TableCapacity: 64})

	// Seed the cache so every rule appears in at least one traversal: walk
	// the "diagonal" — macs[i] × subnets[i] × ports[i].
	key := func(mac, subnet, port uint64) gigaflow.Key {
		return gigaflow.Key{}.
			With(gigaflow.FieldEthDst, 0x0200+mac).
			With(gigaflow.FieldEthType, 0x0800).
			With(gigaflow.FieldIPDst, 0x0a000000|subnet<<16|7).
			With(gigaflow.FieldTpDst, 8000+port)
	}
	for i := uint64(0); i < macs; i++ {
		if _, err := vs.Process(key(i, i%subnets, i%ports), int64(i)); err != nil {
			panic(err)
		}
	}

	fmt.Printf("seeded %d flows -> %d cache entries\n", macs, vs.CacheEntries())
	fmt.Printf("rule-space coverage: %d megaflow-equivalent rules (%d × %d × %d)\n",
		vs.Coverage(), macs, subnets, ports)
	fmt.Printf("a Megaflow cache would need %d entries for the same coverage\n\n", macs*subnets*ports)

	// Prove the coverage is real: every combination hits in hardware.
	probes, hits := 0, 0
	for m := uint64(0); m < macs; m++ {
		for s := uint64(0); s < subnets; s++ {
			for pt := uint64(0); pt < ports; pt++ {
				res, err := vs.Process(key(m, s, pt), 1000)
				if err != nil {
					panic(err)
				}
				probes++
				if res.CacheHit {
					hits++
				}
			}
		}
	}
	fmt.Printf("probed all %d combinations: %d hardware hits (%.1f%%)\n\n",
		probes, hits, 100*float64(hits)/float64(probes))

	// What would this cache shape cost on the FPGA?
	fmt.Println("SmartNIC resource model (scaled from the paper's Alveo U250 prototype):")
	fmt.Printf("%8s %10s %8s %8s %8s %9s\n", "tables", "cap/table", "LUT%", "FF%", "BRAM%", "power W")
	for _, cfg := range [][2]int{{1, 32768}, {4, 8192}, {4, 32768}, {8, 65536}} {
		r := sim.EstimateResources(cfg[0], cfg[1])
		note := ""
		if !r.Feasible {
			note = "  (exceeds the 75 W PCIe budget or chip resources)"
		}
		fmt.Printf("%8d %10d %8.1f %8.1f %8.1f %9.1f%s\n",
			cfg[0], cfg[1], r.LUTPct, r.FFPct, r.BRAMPct, r.PowerW, note)
	}
}
