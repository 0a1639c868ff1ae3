package sim

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// toggles one mechanism and reports the effect as benchmark metrics:
//
//	go test -run xxx -bench=Ablation -v ./internal/sim
import (
	"testing"

	"gigaflow"
	"gigaflow/internal/flow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

func ablationWorkload(b *testing.B, ctxs int) (*pipebench.Workload, []traffic.Packet) {
	b.Helper()
	cfg := pipebench.PaperConfig(pipelines.PSC, 1)
	cfg.NumChains = 30000
	if ctxs > 0 {
		cfg.Contexts = ctxs
	}
	w, err := pipebench.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w, BuildTrace(w, 20000, traffic.HighLocality, 3)
}

// BenchmarkAblation_EvictionPolicy compares LRU eviction against
// reject-on-full under capacity pressure: LRU keeps hot sub-traversals
// resident; rejection freezes whatever arrived first.
func BenchmarkAblation_EvictionPolicy(b *testing.B) {
	w, trace := ablationWorkload(b, 0)
	run := func(noLRU bool) float64 {
		vs := gigaflow.NewVSwitch(w.Pipeline, gigaflow.CacheConfig{NumTables: 4, TableCapacity: 512, NoLRUEviction: noLRU})
		for i := range trace {
			// A rejected install is an acceptable outcome, and not an error.
			if _, err := vs.Process(trace[i].Key, trace[i].Time); err != nil {
				b.Fatal(err)
			}
		}
		st := vs.Cache().Stats()
		return 100 * st.HitRate()
	}
	lru, reject := run(false), run(true)
	b.Logf("tiny cache (4x512): LRU hit %.1f%% vs reject-on-full %.1f%%", lru, reject)
	b.ReportMetric(lru, "lru_hit_%")
	b.ReportMetric(reject, "reject_hit_%")
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkAblation_AdaptiveFallback measures §7's profile-guided fallback
// on a zero-sharing workload: adaptation should cut entry consumption
// (whole traversals need 1 entry instead of K) without losing hits.
func BenchmarkAblation_AdaptiveFallback(b *testing.B) {
	p := buildNoSharePipeline(3000)
	run := func(adaptive bool) (hitPct float64, entries int) {
		vs := gigaflow.NewVSwitch(p, gigaflow.CacheConfig{
			NumTables: 3, TableCapacity: 8192, Adaptive: adaptive,
			AdaptiveTuning: gigaflow.AdaptiveTuning{WarmupInstalls: 200, Alpha: 0.05},
		})
		for rep := 0; rep < 2; rep++ {
			for i := uint64(0); i < 3000; i++ {
				if _, err := vs.Process(noShareKey(i), int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		st := vs.Cache().Stats()
		return 100 * st.HitRate(), vs.CacheEntries()
	}
	offHit, offEntries := run(false)
	onHit, onEntries := run(true)
	b.Logf("zero-sharing: adaptive off %.1f%% / %d entries, on %.1f%% / %d entries",
		offHit, offEntries, onHit, onEntries)
	b.ReportMetric(float64(offEntries), "entries_off")
	b.ReportMetric(float64(onEntries), "entries_on")
	if onEntries >= offEntries {
		b.Errorf("adaptation should reduce entries under zero sharing: %d vs %d", onEntries, offEntries)
	}
	if onHit < offHit-1 {
		b.Errorf("adaptation lost hits: %.1f vs %.1f", onHit, offHit)
	}
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkAblation_ContextDiversity sweeps the L2-context pool size: the
// workload-structure knob behind the cross-product (DESIGN.md "Key design
// decisions"). More contexts multiply Megaflow demand while Gigaflow entry
// demand grows only additively.
func BenchmarkAblation_ContextDiversity(b *testing.B) {
	for _, ctxs := range []int{8, 64, 512} {
		w, trace := ablationWorkload(b, ctxs)
		gf, err := Run(w, trace, Config{Cache: gigaflow.CacheConfig{NumTables: 4, TableCapacity: 8192}, Offloaded: true})
		if err != nil {
			b.Fatal(err)
		}
		mf, err := Run(w, trace, Config{MegaflowCapacity: 32768, Offloaded: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("contexts=%3d: GF %.1f%% (%d entries) vs MF %.1f%% (%d entries)",
			ctxs, 100*gf.HitRate(), gf.Entries, 100*mf.HitRate(), mf.Entries)
	}
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkAblation_EthTypeExclusion quantifies the AnalysisFields rule on
// two contrasting pipelines. Including eth_type has two pipeline-dependent
// failure modes: on ANT (where IP/proto/ACL stages all match the
// EtherType) it glues the whole traversal into one oversized segment,
// concentrating all diversity into one table; on PSC it does the opposite
// — narrow ethtype-only "validate" stages become hard boundaries instead
// of merging freely, inflating the partition. Excluding it avoids both.
func BenchmarkAblation_EthTypeExclusion(b *testing.B) {
	for _, name := range []string{"PSC", "ANT"} {
		spec, _ := pipelines.ByName(name)
		cfg := pipebench.PaperConfig(spec, 1)
		cfg.NumChains = 20000
		w, err := pipebench.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		avgSegments := func(analysis flow.FieldSet) (segs float64, maxSeg float64) {
			total, n, maxLen := 0, 0, 0
			for i, c := range w.Chains {
				if i >= 500 {
					break
				}
				tr := w.Pipeline.MustProcess(c.Rep)
				fields := make([]flow.FieldSet, tr.Len())
				for s := 0; s < tr.Len(); s++ {
					fields[s] = tr.StepFields(s).Intersect(analysis)
				}
				part := gfcache.DisjointPartition(fields, 4)
				total += len(part)
				for _, seg := range part {
					if seg.Len() > maxLen {
						maxLen = seg.Len()
					}
				}
				n++
			}
			return float64(total) / float64(n), float64(maxLen)
		}
		with, withMax := avgSegments(flow.HeaderFields) // eth_type included
		without, woMax := avgSegments(gfcache.AnalysisFields)
		b.Logf("%s: avg segments %.2f (max span %.0f) without eth_type vs %.2f (max span %.0f) with it",
			name, without, woMax, with, withMax)
	}
	for i := 0; i < b.N; i++ {
	}
}

// --- zero-sharing fixture shared with the adaptive ablation ---

func buildNoSharePipeline(n uint64) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("noshare")
	p.AddTable(0, "a", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(1, "b", flow.NewFieldSet(flow.FieldIPDst))
	p.AddTable(2, "c", flow.NewFieldSet(flow.FieldTpSrc))
	for i := uint64(0); i < n; i++ {
		p.MustAddRule(0, flow.MatchAll().WithField(flow.FieldEthDst, i), 10, nil, 1)
		p.MustAddRule(1, flow.MatchAll().WithField(flow.FieldIPDst, i), 10, nil, 2)
		p.MustAddRule(2, flow.MatchAll().WithField(flow.FieldTpSrc, i), 10, []flow.Action{flow.Output(1)}, gigaflow.NoTable)
	}
	return p
}

func noShareKey(i uint64) flow.Key {
	return flow.Key{}.With(flow.FieldEthDst, i).With(flow.FieldIPDst, i).With(flow.FieldTpSrc, i)
}

// BenchmarkAblation_PreciseUnwildcarding compares OVS's tuple-union
// unwildcarding against minimal-bit (§4.2.3-example) unwildcarding:
// precise megaflows are wider, so the Megaflow baseline needs fewer
// entries and hits more — at the cost of O(outranking rules) slowpath
// work per lookup. The Gigaflow-vs-Megaflow ordering must survive either
// way.
func BenchmarkAblation_PreciseUnwildcarding(b *testing.B) {
	for _, precise := range []bool{false, true} {
		cfg := pipebench.PaperConfig(pipelines.PSC, 1)
		cfg.NumChains = 20000
		cfg.NativePrefixes = true // prefix chains give precise mode room to matter
		cfg.PreciseWildcards = precise
		w, err := pipebench.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		trace := BuildTrace(w, 15000, traffic.HighLocality, 3)
		gf, err := Run(w, trace, Config{Cache: gigaflow.CacheConfig{NumTables: 4, TableCapacity: 8192}, Offloaded: true})
		if err != nil {
			b.Fatal(err)
		}
		mf, err := Run(w, trace, Config{MegaflowCapacity: 32768, Offloaded: true})
		if err != nil {
			b.Fatal(err)
		}
		mode := "tuple-union"
		if precise {
			mode = "minimal-bit"
		}
		b.Logf("%-12s GF hit %.1f%% (%d entries) | MF hit %.1f%% (%d entries)",
			mode, 100*gf.HitRate(), gf.Entries, 100*mf.HitRate(), mf.Entries)
		if gf.HitRate() < mf.HitRate()-0.02 {
			b.Errorf("%s: gigaflow lost its edge: %.3f vs %.3f", mode, gf.HitRate(), mf.HitRate())
		}
	}
	for i := 0; i < b.N; i++ {
	}
}
