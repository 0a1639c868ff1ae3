package gigaflow

import (
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// buildNoShareChain builds a pipeline where every flow takes a distinct
// rule at every table — zero sharing opportunity, the adversarial case for
// sub-traversal caching.
func buildNoSharePipeline(n int) *pipeline.Pipeline {
	p := pipeline.New("noshare")
	p.AddTable(0, "a", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(1, "b", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(2, "c", flow.NewFieldSet(flow.FieldTpSrc))
	for i := 0; i < n; i++ {
		v := uint64(i)
		p.MustAddRule(0, flow.MatchAll().WithField(flow.FieldEthDst, v), 10, nil, 1)
		p.MustAddRule(1, flow.MatchAll().WithField(flow.FieldIPDst, v), 10, nil, 2)
		p.MustAddRule(2, flow.MatchAll().WithField(flow.FieldTpSrc, v), 10, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	}
	return p
}

func noShareKey(i uint64) flow.Key {
	return flow.Key{}.
		With(flow.FieldEthDst, i).
		With(flow.FieldIPDst, i).
		With(flow.FieldTpSrc, i)
}

func TestAdaptiveFallsBackUnderZeroSharing(t *testing.T) {
	// Past the warm-up, and the insert after the loop is not a probation
	// sample, which would be partitioned.
	const n = adaptWarmup + 300
	if (n+1)%adaptSampleEvery == 0 {
		t.Fatalf("insert %d is a probation sample", n+1)
	}
	p := buildNoSharePipeline(n)
	c := New(p, Config{NumTables: 3, TableCapacity: 4096, Adaptive: true})
	for i := uint64(0); i < n; i++ {
		tr := p.MustProcess(noShareKey(i))
		if _, err := c.Insert(tr, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Degraded() {
		t.Fatalf("zero-sharing workload must trigger fallback (sharing=%.3f)", c.SharingEstimate())
	}
	// Degraded inserts are whole traversals: 1 entry each in table 0. Add
	// a fresh 3-step flow and install it.
	before0, before1 := c.TableLen(0), c.TableLen(1)
	p.MustAddRule(0, flow.MatchAll().WithField(flow.FieldEthDst, 9000), 10, nil, 1)
	p.MustAddRule(1, flow.MatchAll().WithField(flow.FieldIPDst, 9000), 10, nil, 2)
	p.MustAddRule(2, flow.MatchAll().WithField(flow.FieldTpSrc, 9000), 10, []flow.Action{flow.Output(1)}, pipeline.NoTable)
	trNew := p.MustProcess(noShareKey(9000))
	if _, err := c.Insert(trNew, n); err != nil {
		t.Fatal(err)
	}
	if c.TableLen(0) != before0+1 || c.TableLen(1) != before1 {
		t.Errorf("degraded insert should add exactly one whole-traversal entry to table 0: %d->%d, %d->%d",
			before0, c.TableLen(0), before1, c.TableLen(1))
	}
	// And the whole-traversal entry must serve lookups.
	if res := c.Peek(noShareKey(9000)); !res.Hit || len(res.Path) != 1 {
		t.Errorf("whole-traversal entry broken: %+v", res)
	}
}

func TestAdaptiveStaysPartitionedUnderSharing(t *testing.T) {
	p := buildChainPipeline() // high-sharing pipeline from ltm_test
	c := New(p, Config{NumTables: 3, TableCapacity: 4096, Adaptive: true})
	// Flows sharing MAC and subnet segments, well past the warm-up:
	// sharing stays high.
	for i := uint64(0); i < 2*adaptWarmup; i++ {
		port := uint64(1000)
		if i%2 == 1 {
			port = 2000
		}
		tr := p.MustProcess(chainKey(1+i%2, i%200, port))
		if _, err := c.Insert(tr, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Degraded() {
		t.Fatalf("high-sharing workload must stay partitioned (sharing=%.3f)", c.SharingEstimate())
	}
	if c.SharingEstimate() < 0.5 {
		t.Errorf("sharing estimate %.3f implausibly low", c.SharingEstimate())
	}
}

func TestAdaptiveRecovers(t *testing.T) {
	// After degradation, renewed sharing must lift the cache back into
	// partitioned mode: degraded single-segment inserts of recurring
	// traversals dedupe against each other, raising the estimate.
	const n = adaptWarmup + 100
	p := buildNoSharePipeline(n)
	c := New(p, Config{NumTables: 3, TableCapacity: 8192, Adaptive: true})
	for i := uint64(0); i < n; i++ {
		c.Insert(p.MustProcess(noShareKey(i)), int64(i))
	}
	if !c.Degraded() {
		t.Fatal("setup: expected degradation")
	}
	// Re-insert one hot traversal repeatedly (e.g. after idle expiry and
	// re-miss): its whole-traversal entry is reused every time.
	tr := p.MustProcess(noShareKey(7))
	for i := 0; i < 200; i++ {
		c.Insert(tr, int64(1000+i))
	}
	if c.Degraded() {
		t.Errorf("sharing recovered but cache still degraded (%.3f)", c.SharingEstimate())
	}
}

func TestAdaptiveDisabledByDefault(t *testing.T) {
	p := buildNoSharePipeline(50)
	c := New(p, Config{NumTables: 3, TableCapacity: 1024})
	for i := uint64(0); i < 50; i++ {
		c.Insert(p.MustProcess(noShareKey(i)), int64(i))
	}
	if c.Degraded() || c.SharingEstimate() != 0 {
		t.Error("adaptation must be off unless configured")
	}
}
