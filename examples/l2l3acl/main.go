// L2/L3/ACL policy switch: a PISCES-style pipeline under live policy
// churn. Demonstrates rule updates with selective revalidation (§4.3.1)
// and idle-timeout eviction (§4.3.2) through the public API.
//
//	go run ./examples/l2l3acl
package main

import (
	"fmt"
	"io"
	"os"

	"gigaflow"
)

const (
	milli = int64(1_000_000)
	sec   = int64(1_000_000_000)
)

func main() { run(os.Stdout) }

// run plays the scenario, printing each phase to w.
func run(w io.Writer) {
	p := buildPipeline()
	vs := gigaflow.NewVSwitch(p, gigaflow.CacheConfig{NumTables: 4, TableCapacity: 4096})

	// Tenant traffic: web and ssh flows to two subnets.
	var clock int64
	send := func(host, port uint64) gigaflow.ProcessResult {
		clock += 5 * milli
		k := gigaflow.MustParseKey("in_port=1,eth_dst=02:00:00:00:00:aa,eth_type=0x0800,ip_proto=6").
			With(gigaflow.FieldIPDst, 0x0a000100|host).
			With(gigaflow.FieldTpDst, port)
		res, err := vs.Process(k, clock)
		if err != nil {
			panic(err)
		}
		return res
	}

	fmt.Fprintln(w, "== warm up: 20 web flows + 5 ssh flows ==")
	for h := uint64(1); h <= 20; h++ {
		send(h, 80)
	}
	for h := uint64(1); h <= 5; h++ {
		send(h, 22)
	}
	report(w, vs, "after warm-up")

	fmt.Fprintln(w, "\n== repeat traffic: everything should hit in hardware ==")
	before := vs.Stats()
	for h := uint64(1); h <= 20; h++ {
		send(h, 80)
	}
	after := vs.Stats()
	fmt.Fprintf(w, "20 packets, %d hits\n", after.CacheHits-before.CacheHits)

	fmt.Fprintln(w, "\n== policy change: block ssh (tp_dst=22) ==")
	// Find and replace the ssh-accept rule with a deny.
	for _, r := range p.Table(3).Rules() {
		if r.Match.Key.Get(gigaflow.FieldTpDst) == 22 {
			p.DeleteRule(r)
		}
	}
	p.MustAddRule(3, gigaflow.MustParseMatch("tp_dst=22"), 20,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)

	evicted, work := vs.Revalidate()
	fmt.Fprintf(w, "revalidation: %d stale sub-traversals evicted with %d table lookups\n", evicted, work)
	fmt.Fprintf(w, "(web sub-traversals survive: only the ssh segment was re-derived)\n")

	res := send(3, 22)
	fmt.Fprintf(w, "ssh packet now: %s (cache hit: %v)\n", res.Verdict, res.CacheHit)
	res = send(3, 80)
	fmt.Fprintf(w, "web packet still: %s (cache hit: %v)\n", res.Verdict, res.CacheHit)

	fmt.Fprintln(w, "\n== idle expiry: advance the clock 30s and sweep ==")
	clock += 30 * sec
	n := vs.ExpireIdle(clock, 10*sec, 0) // entries idle over 10s; no connections to expire
	fmt.Fprintf(w, "%d idle sub-traversals expired; %d entries remain\n", n, vs.CacheEntries())

	report(w, vs, "final")
}

func buildPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("l2l3acl")
	p.AddTable(0, "ingress", gigaflow.NewFieldSet(gigaflow.FieldInPort))
	p.AddTable(1, "l2", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(2, "l3", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(3, "acl", gigaflow.NewFieldSet(gigaflow.FieldIPProto, gigaflow.FieldTpDst))

	p.MustAddRule(0, gigaflow.MustParseMatch("in_port=1"), 10, nil, 1)
	p.MustAddRule(1, gigaflow.MustParseMatch("eth_dst=02:00:00:00:00:aa"), 10, nil, 2)
	p.MustAddRule(2, gigaflow.MustParseMatch("ip_dst=10.0.1.0/24"), 10,
		[]gigaflow.Action{gigaflow.SetField(gigaflow.FieldEthDst, 0x02ee)}, 3)
	p.MustAddRule(3, gigaflow.MustParseMatch("tp_dst=80"), 20,
		[]gigaflow.Action{gigaflow.Output(10)}, gigaflow.NoTable)
	p.MustAddRule(3, gigaflow.MustParseMatch("tp_dst=22"), 20,
		[]gigaflow.Action{gigaflow.Output(11)}, gigaflow.NoTable)
	p.SetMiss(3, gigaflow.NoTable, gigaflow.Drop())
	return p
}

func report(w io.Writer, vs *gigaflow.VSwitch, label string) {
	st := vs.Stats()
	fmt.Fprintf(w, "[%s] packets=%d hits=%d slowpath=%d entries=%d coverage=%d\n",
		label, st.Packets, st.CacheHits, st.CacheMisses, vs.CacheEntries(), vs.Coverage())
}
