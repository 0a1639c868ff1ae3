// Dynamic workloads (the paper's Fig. 18 scenario in miniature): a second
// wave of fresh flows arrives mid-run. The Megaflow baseline needs one
// cache entry per flow and collapses; Gigaflow's sub-traversal coverage
// absorbs the newcomers without slowpath trips.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"gigaflow"
)

const sec = int64(1_000_000_000)

// tenantKey synthesises a flow for tenant t (MAC + subnet) on service port.
func tenantKey(tenant, host, port uint64) gigaflow.Key {
	return gigaflow.MustParseKey("in_port=1,eth_type=0x0800,ip_proto=6").
		With(gigaflow.FieldEthDst, 0x020000000000|tenant).
		With(gigaflow.FieldIPDst, 0x0a000000|tenant<<16|host).
		With(gigaflow.FieldTpDst, port)
}

func buildPipeline(tenants, services int) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("multi-tenant")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "svc", gigaflow.NewFieldSet(gigaflow.FieldTpDst))
	for t := 0; t < tenants; t++ {
		p.MustAddRule(0, gigaflow.MatchAll().WithField(gigaflow.FieldEthDst, 0x020000000000|uint64(t)), 10, nil, 1)
		m := gigaflow.MatchAll().WithMaskedField(gigaflow.FieldIPDst, 0x0a000000|uint64(t)<<16,
			gigaflow.PrefixMask(gigaflow.FieldIPDst, 16))
		p.MustAddRule(1, m, 10, nil, 2)
	}
	for s := 0; s < services; s++ {
		p.MustAddRule(2, gigaflow.MatchAll().WithField(gigaflow.FieldTpDst, uint64(8000+s)), 10,
			[]gigaflow.Action{gigaflow.Output(uint16(s))}, gigaflow.NoTable)
	}
	return p
}

// drive runs the two-wave workload against one vSwitch, prints its
// final occupancy to w and returns the windowed hit-rate series.
func drive(w io.Writer, vs *gigaflow.VSwitch, label string) []float64 {
	const (
		tenants  = 32
		services = 64
		window   = 10 // seconds per sample
		duration = 120
		arrival  = 60 // second wave starts here
		perSec   = 400
	)
	rng := rand.New(rand.NewSource(7))
	var series []float64
	hits, total := 0, 0
	for s := 0; s < duration; s++ {
		for i := 0; i < perSec; i++ {
			now := int64(s)*sec + int64(i)*(sec/perSec)
			var tenant uint64
			if s < arrival {
				tenant = uint64(rng.Intn(tenants / 2)) // wave 1: tenants 0-15
			} else {
				tenant = uint64(rng.Intn(tenants)) // wave 2 adds tenants 16-31
			}
			k := tenantKey(tenant, uint64(rng.Intn(200)), uint64(8000+rng.Intn(services)))
			res, err := vs.Process(k, now)
			if err != nil {
				panic(err)
			}
			total++
			if res.CacheHit {
				hits++
			}
		}
		if (s+1)%window == 0 {
			series = append(series, float64(hits)/float64(total))
			hits, total = 0, 0
		}
	}
	fmt.Fprintf(w, "%-28s entries=%-6d coverage=%d\n", label, vs.CacheEntries(), vs.Coverage())
	return series
}

func main() { run(os.Stdout) }

// run drives both caches and prints their hit-rate series to w.
func run(w io.Writer) {
	const cacheBudget = 2048 // total entries for either cache

	gfVS := gigaflow.NewVSwitch(buildPipeline(32, 64),
		gigaflow.CacheConfig{NumTables: 4, TableCapacity: cacheBudget / 4})
	mfVS := gigaflow.NewVSwitch(buildPipeline(32, 64),
		gigaflow.CacheConfig{NumTables: 4, TableCapacity: cacheBudget / 4},
		gigaflow.WithMegaflowBackend(cacheBudget))

	fmt.Fprintln(w, "two-wave workload: 16 tenants, then 32 tenants from t=60s")
	fmt.Fprintf(w, "equal cache budget: %d entries\n\n", cacheBudget)
	gf := drive(w, gfVS, "gigaflow (4 tables)")
	mf := drive(w, mfVS, "megaflow (single table)")

	fmt.Fprintln(w, "\nwindowed hit rate (%):")
	fmt.Fprintln(w, "  t(s)   gigaflow   megaflow")
	for i := range gf {
		marker := ""
		if (i+1)*10 > 60 && i*10 <= 60 {
			marker = "   <- second wave arrives"
		}
		fmt.Fprintf(w, "  %3d    %6.1f     %6.1f%s\n", (i+1)*10, 100*gf[i], 100*mf[i], marker)
	}
}
