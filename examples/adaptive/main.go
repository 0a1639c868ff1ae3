// Profile-guided adaptation (the paper's §7 future work, implemented):
// when traffic offers no sub-traversal sharing, partitioning pays entry
// overhead for nothing — the cache notices and falls back to
// Megaflow-style whole-traversal entries, then returns to partitioning
// when sharing recovers.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"io"
	"os"

	"gigaflow"
)

func buildPipeline(n uint64) *gigaflow.Pipeline {
	// Three stages whose rules never share anything across flows: the
	// adversarial zero-sharing case (each flow hits a unique rule chain).
	p := gigaflow.NewPipeline("adaptive-demo")
	p.AddTable(0, "a", gigaflow.NewFieldSet(gigaflow.FieldEthDst))
	p.AddTable(1, "b", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "c", gigaflow.NewFieldSet(gigaflow.FieldTpSrc))
	for i := uint64(0); i < n; i++ {
		p.MustAddRule(0, gigaflow.MatchAll().WithField(gigaflow.FieldEthDst, i), 10, nil, 1)
		p.MustAddRule(1, gigaflow.MatchAll().WithField(gigaflow.FieldIPDst, i), 10, nil, 2)
		p.MustAddRule(2, gigaflow.MatchAll().WithField(gigaflow.FieldTpSrc, i), 10,
			[]gigaflow.Action{gigaflow.Output(1)}, gigaflow.NoTable)
	}
	// Plus a shared service family: one L2/L3 prefix shared by hundreds of
	// per-port tails — classic pipeline-aware locality.
	p.MustAddRule(0, gigaflow.MatchAll().WithField(gigaflow.FieldEthDst, 0xffff), 10, nil, 1)
	p.MustAddRule(1, gigaflow.MatchAll().WithMaskedField(gigaflow.FieldIPDst, 0x0a000000,
		gigaflow.PrefixMask(gigaflow.FieldIPDst, 8)), 10, nil, 2)
	for port := uint64(0); port < 200; port++ {
		p.MustAddRule(2, gigaflow.MatchAll().WithField(gigaflow.FieldTpSrc, 20000+port), 10,
			[]gigaflow.Action{gigaflow.Output(2)}, gigaflow.NoTable)
	}
	return p
}

func main() { run(os.Stdout) }

// run plays both phases, writing the report to w, and returns whether the
// cache was degraded at the end of each.
func run(w io.Writer) (degraded [2]bool) {
	const uniqueFlows = 2000
	p := buildPipeline(uniqueFlows)
	vs := gigaflow.NewVSwitch(p, gigaflow.CacheConfig{NumTables: 3, TableCapacity: 8192, Adaptive: true})
	cache := vs.Cache()
	process := func(k gigaflow.Key, now int64) {
		if _, err := vs.Process(k, now); err != nil {
			panic(err)
		}
	}

	unique := func(i uint64) gigaflow.Key {
		return gigaflow.Key{}.
			With(gigaflow.FieldEthDst, i).
			With(gigaflow.FieldIPDst, i).
			With(gigaflow.FieldTpSrc, i)
	}
	shared := func(host, port uint64) gigaflow.Key {
		return gigaflow.Key{}.
			With(gigaflow.FieldEthDst, 0xffff).
			With(gigaflow.FieldIPDst, 0x0a000000|host).
			With(gigaflow.FieldTpSrc, 20000+port)
	}

	report := func(phase string) {
		mode := "partitioning (sub-traversals)"
		if cache.Degraded() {
			mode = "degraded (whole-traversal entries)"
		}
		fmt.Fprintf(w, "%-34s sharing=%.3f  mode=%s  entries=%d\n",
			phase, cache.SharingEstimate(), mode, cache.Len())
	}

	fmt.Fprintln(w, "phase 1: zero-sharing traffic — every flow needs unique rules")
	now := int64(0)
	for i := uint64(0); i < uniqueFlows; i++ {
		now++
		process(unique(i), now)
		if i == 400 || i == uniqueFlows-1 {
			report(fmt.Sprintf("  after %d unique flows", i+1))
		}
	}
	degraded[0] = cache.Degraded()

	fmt.Fprintln(w, "\nphase 2: a hot shared service appears — periodic probation")
	fmt.Fprintln(w, "samples (§7's traffic sampling) notice the returning locality")
	for i := uint64(0); i < 3000; i++ {
		now++
		process(shared(i%97, i%200), now)
		if i == 500 || i == 2999 {
			report(fmt.Sprintf("  after %d shared-service flows", i+1))
		}
	}
	degraded[1] = cache.Degraded()

	st := cache.Stats()
	fmt.Fprintf(w, "\ntotals: %d traversals installed, %d entries created, %d shared reuses\n",
		st.InsertedTraversals, st.EntriesCreated, st.SharedReuse)
	fmt.Fprintln(w, "the cache switched itself to Megaflow behaviour under zero sharing")
	fmt.Fprintln(w, "and back to sub-traversal partitioning when locality returned (§7).")
	return degraded
}
