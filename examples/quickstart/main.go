// Quickstart: build a three-stage vSwitch pipeline, attach a Gigaflow
// cache, and watch sub-traversal sharing serve flows the cache never saw.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"gigaflow"
)

func main() { run(os.Stdout) }

// run walks the demo flows, printing each verdict and the totals to w.
func run(w io.Writer) {
	// A miniature L2 → L3 → ACL pipeline: forward by MAC, route /24
	// prefixes (rewriting the source MAC), then filter by port.
	p := gigaflow.NewPipeline("quickstart")
	p.AddTable(0, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "acl", gigaflow.NewFieldSet(gigaflow.FieldTpDst))

	p.MustAddRule(0, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:01"), 10, nil, 1)
	p.MustAddRule(1, gigaflow.MustParseMatch("ip_dst=10.0.1.0/24"), 10,
		[]gigaflow.Action{gigaflow.SetField(gigaflow.FieldEthSrc, 0x02aa)}, 2)
	p.MustAddRule(1, gigaflow.MustParseMatch("ip_dst=10.0.2.0/24"), 10,
		[]gigaflow.Action{gigaflow.SetField(gigaflow.FieldEthSrc, 0x02bb)}, 2)
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=80"), 10,
		[]gigaflow.Action{gigaflow.Output(1)}, gigaflow.NoTable)
	p.MustAddRule(2, gigaflow.MustParseMatch("tp_dst=443"), 10,
		[]gigaflow.Action{gigaflow.Output(2)}, gigaflow.NoTable)

	// The vSwitch pairs the pipeline with a 3-table Gigaflow LTM cache.
	vs := gigaflow.NewVSwitch(p, gigaflow.CacheConfig{NumTables: 3, TableCapacity: 1024})

	key := func(subnet, host, port uint64) gigaflow.Key {
		return gigaflow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800").
			With(gigaflow.FieldIPDst, 0x0a000000|subnet<<8|host).
			With(gigaflow.FieldTpDst, port)
	}

	show := func(label string, k gigaflow.Key, now int64) {
		res, err := vs.Process(k, now)
		if err != nil {
			panic(err)
		}
		src := "hit (SmartNIC)"
		if !res.CacheHit {
			src = "miss (slowpath)"
		}
		fmt.Fprintf(w, "%-34s -> %-10s %s\n", label, res.Verdict, src)
	}

	fmt.Fprintln(w, "two seed flows take the slowpath and install sub-traversals:")
	show("flow A: 10.0.1.5:80", key(1, 5, 80), 0)
	show("flow B: 10.0.2.9:443", key(2, 9, 443), 1)

	fmt.Fprintln(w, "\nrepeat packets hit in hardware:")
	show("flow A again", key(1, 5, 80), 2)

	fmt.Fprintln(w, "\nand so do flows the cache has NEVER seen, by recombining")
	fmt.Fprintln(w, "cached sub-traversals (the purple paths of the paper's Fig. 5):")
	show("new flow: 10.0.1.77:443", key(1, 77, 443), 3)
	show("new flow: 10.0.2.42:80", key(2, 42, 80), 4)

	st := vs.Stats()
	fmt.Fprintf(w, "\n%d packets, %d slowpath traversals, hit rate %.0f%%\n",
		st.Packets, st.CacheMisses, 100*st.HitRate())
	fmt.Fprintf(w, "cache entries: %d  rule-space coverage: %d megaflow-equivalents\n",
		vs.CacheEntries(), vs.Coverage())
}
