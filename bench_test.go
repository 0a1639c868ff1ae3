package gigaflow

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its artifact through internal/experiments at a
// reduced-but-faithful scale (the gigabench command runs the same
// harnesses at full paper scale), logs the rows the paper reports, and
// exposes the headline numbers as benchmark metrics.
//
//	go test -bench=. -benchmem           # everything
//	go test -bench=Fig8 -v               # one figure, with its table

import (
	"fmt"
	"sync"
	"testing"

	"gigaflow/internal/experiments"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/traffic"
)

// benchParams is the reduced scale used by the benchmarks: ~20K flows over
// ~30K rule chains reproduce every shape in seconds instead of minutes.
func benchParams() experiments.Params {
	return experiments.Params{Seed: 1, NumFlows: 20000, NumChains: 30000}
}

var (
	e2eOnce sync.Once
	e2eVal  *experiments.EndToEnd
	e2eErr  error
)

// sharedEndToEnd runs the §6.2 grid once and shares it across the Fig 8-13
// and Table 2 benchmarks.
func sharedEndToEnd(b *testing.B) *experiments.EndToEnd {
	b.Helper()
	e2eOnce.Do(func() { e2eVal, e2eErr = experiments.RunEndToEnd(benchParams()) })
	if e2eErr != nil {
		b.Fatal(e2eErr)
	}
	return e2eVal
}

var (
	sweepOnce sync.Once
	sweepVal  *experiments.TableSweep
	sweepErr  error
)

func sharedTableSweep(b *testing.B) *experiments.TableSweep {
	b.Helper()
	sweepOnce.Do(func() {
		p := benchParams()
		// The 2–5 table sweep over every pipeline is the most expensive
		// harness; two contrasting pipelines cover the trend.
		p.Pipelines = []*pipelines.Spec{pipelines.PSC, pipelines.OLS}
		sweepVal, sweepErr = experiments.RunTableSweep(p)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

func BenchmarkTable1_PipelineInventory(b *testing.B) {
	tab := experiments.Table1()
	b.Logf("\n%s", tab.Render())
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1()
	}
}

func BenchmarkFig3_TablesVsMissesEntries(b *testing.B) {
	tab, err := experiments.Fig3(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tab.Render())
	var k1, k4 float64
	fmt.Sscan(tab.Rows[0][1], &k1)
	fmt.Sscan(tab.Rows[len(tab.Rows)-1][1], &k4)
	b.ReportMetric(k1, "misses_K1")
	b.ReportMetric(k4, "misses_K4")
	for i := 0; i < b.N; i++ {
		_ = tab.Render()
	}
}

func BenchmarkFig4_TupleSharing(b *testing.B) {
	tab := experiments.Fig4(benchParams())
	b.Logf("\n%s", tab.Render())
	var k1, k5 float64
	fmt.Sscan(tab.Rows[4][1], &k1) // rows are k=5..1
	fmt.Sscan(tab.Rows[0][1], &k5)
	b.ReportMetric(k1, "sharing_k1")
	b.ReportMetric(k5, "sharing_k5")
	for i := 0; i < b.N; i++ {
		_ = tab.Render()
	}
}

// e2eMeans aggregates a metric over the end-to-end grid's high-locality
// cells.
func e2eMeans(e *experiments.EndToEnd, f func(c experiments.Cell) (gf, mf float64)) (gfMean, mfMean float64) {
	n := 0
	for _, c := range e.Cells {
		if c.Locality != traffic.HighLocality {
			continue
		}
		gf, mf := f(c)
		gfMean += gf
		mfMean += mf
		n++
	}
	return gfMean / float64(n), mfMean / float64(n)
}

func BenchmarkFig8_HitRate(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Fig8().Render())
	gf, mf := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		return 100 * c.GF.HitRate(), 100 * c.MF.HitRate()
	})
	b.ReportMetric(gf, "gf_hit_%")
	b.ReportMetric(mf, "mf_hit_%")
	for i := 0; i < b.N; i++ {
		_ = e.Fig8()
	}
}

func BenchmarkFig9_Misses(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Fig9().Render())
	gf, mf := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		return float64(c.GF.Misses), float64(c.MF.Misses)
	})
	b.ReportMetric(100*(mf-gf)/mf, "miss_reduction_%")
	for i := 0; i < b.N; i++ {
		_ = e.Fig9()
	}
}

func BenchmarkFig10_Entries(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Fig10().Render())
	gf, mf := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		return 100 * float64(c.GF.Entries) / float64(c.GF.Capacity),
			100 * float64(c.MF.Entries) / float64(c.MF.Capacity)
	})
	b.ReportMetric(gf, "gf_util_%")
	b.ReportMetric(mf, "mf_util_%")
	for i := 0; i < b.N; i++ {
		_ = e.Fig10()
	}
}

func BenchmarkFig11_Sharing(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Fig11().Render())
	gf, _ := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		return c.GF.MeanSharing, 1
	})
	b.ReportMetric(gf, "installs/entry")
	for i := 0; i < b.N; i++ {
		_ = e.Fig11()
	}
}

func BenchmarkFig12_Latency(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Fig12().Render())
	gf, mf := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		return c.GF.Latency.Mean() / 1000, c.MF.Latency.Mean() / 1000
	})
	b.ReportMetric(gf, "gf_µs")
	b.ReportMetric(mf, "mf_µs")
	for i := 0; i < b.N; i++ {
		_ = e.Fig12()
	}
}

func BenchmarkFig13_CPUBreakdown(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Fig13().Render())
	gfOver, _ := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		if c.GF.Cycles.Pipeline == 0 {
			return 0, 0
		}
		return 100 * float64(c.GF.Cycles.Partition+c.GF.Cycles.RuleGen) / float64(c.GF.Cycles.Pipeline), 0
	})
	b.ReportMetric(gfOver, "gf_overhead_%")
	for i := 0; i < b.N; i++ {
		_ = e.Fig13()
	}
}

func BenchmarkFig14_TableSweepMisses(b *testing.B) {
	s := sharedTableSweep(b)
	b.Logf("\n%s", s.Fig14().Render())
	for i := 0; i < b.N; i++ {
		_ = s.Fig14()
	}
}

func BenchmarkFig15_TableSweepEntries(b *testing.B) {
	s := sharedTableSweep(b)
	b.Logf("\n%s", s.Fig15().Render())
	for i := 0; i < b.N; i++ {
		_ = s.Fig15()
	}
}

func BenchmarkTable2_Coverage(b *testing.B) {
	e := sharedEndToEnd(b)
	b.Logf("\n%s", e.Table2().Render())
	factor, _ := e2eMeans(e, func(c experiments.Cell) (float64, float64) {
		return float64(c.GF.Coverage) / float64(c.MF.Coverage), 0
	})
	b.ReportMetric(factor, "coverage_factor")
	for i := 0; i < b.N; i++ {
		_ = e.Table2()
	}
}

func BenchmarkFig16_PartitionSchemes(b *testing.B) {
	tab, err := experiments.Fig16(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tab.Render())
	for i := 0; i < b.N; i++ {
		_ = tab.Render()
	}
}

func BenchmarkFig17_SearchAlgorithms(b *testing.B) {
	tab, err := experiments.Fig17(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tab.Render())
	for i := 0; i < b.N; i++ {
		_ = tab.Render()
	}
}

func BenchmarkFig18_DynamicWorkload(b *testing.B) {
	r, err := experiments.Fig18(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", r.Table().Render())
	// Report the post-arrival dip: min windowed hit rate after t=300s.
	gfMin, mfMin := 1.0, 1.0
	for i := range r.GF.Points {
		if r.GF.Points[i].T > r.ArrivalSec && r.GF.Points[i].V < gfMin {
			gfMin = r.GF.Points[i].V
		}
	}
	for i := range r.MF.Points {
		if r.MF.Points[i].T > r.ArrivalSec && r.MF.Points[i].V < mfMin {
			mfMin = r.MF.Points[i].V
		}
	}
	b.ReportMetric(100*gfMin, "gf_min_hit_%")
	b.ReportMetric(100*mfMin, "mf_min_hit_%")
	for i := 0; i < b.N; i++ {
		_ = r.Table()
	}
}

func BenchmarkSec636_LatencyRevalidation(b *testing.B) {
	lat, reval, err := experiments.Sec636(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s\n%s", lat.Render(), reval.Render())
	var mfMs, gfMs float64
	fmt.Sscan(reval.Rows[0][3], &mfMs)
	fmt.Sscan(reval.Rows[1][3], &gfMs)
	b.ReportMetric(mfMs, "mf_reval_ms")
	b.ReportMetric(gfMs, "gf_reval_ms")
	for i := 0; i < b.N; i++ {
		_ = reval.Render()
	}
}

func BenchmarkFig19_CoreScaling(b *testing.B) {
	p := benchParams()
	p.Pipelines = []*pipelines.Spec{pipelines.PSC}
	tab, err := experiments.Fig19(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tab.Render())
	for i := 0; i < b.N; i++ {
		_ = tab.Render()
	}
}

// --- VSwitch hot-path benchmarks -------------------------------------
//
// These guard the telemetry integration: the cache-hit path must stay
// allocation-free and within noise of its pre-telemetry cost, both with
// tracing disabled (the default) and with a tracer attached but sampling
// off.

func BenchmarkVSwitchCacheHit(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})
	k := demoKey(1, 80)
	if _, err := vs.Process(k, 0); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Process(k, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVSwitchProcessBatch measures the batched hot path on warm
// cache hits (ns/op is per 32-packet batch). Like Process, which runs the
// same loop over a batch of one, it must stay at 0 allocs/op.
func BenchmarkVSwitchProcessBatch(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})
	const batch = 32
	keys := make([]Key, batch)
	for i := range keys {
		keys[i] = demoKey(uint64(i%8), 80)
	}
	out := make([]ProcessResult, batch)
	errs := make([]error, batch)
	vs.ProcessBatch(keys, out, errs, 0) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.ProcessBatch(keys, out, errs, int64(i))
	}
}

func BenchmarkVSwitchMicroflowHit(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithMicroflow(128))
	k := demoKey(1, 80)
	if _, err := vs.Process(k, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Process(k, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProcessBatchRec is the batched warm hot path with an optional
// latency recorder attached: the parametrized body behind the pair
// below. ns/op is per 32-packet batch.
func benchProcessBatchRec(b *testing.B, rec *telemetry.LatencyRecorder) {
	opts := []VSwitchOption{WithMicroflow(256)}
	if rec != nil {
		opts = append(opts, WithLatencyRecorder(rec))
	}
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64}, opts...)
	const batch = 32
	keys := make([]Key, batch)
	for i := range keys {
		keys[i] = demoKey(uint64(i%8), 80)
	}
	out := make([]ProcessResult, batch)
	errs := make([]error, batch)
	vs.ProcessBatch(keys, out, errs, 0) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.ProcessBatch(keys, out, errs, int64(i))
	}
}

// BenchmarkVSwitchProcessBatchRecorded runs one batch loop of microflow
// hits without and with latency attribution: the difference between the
// two is the whole per-packet price of the flight recorder and tier
// histograms.
func BenchmarkVSwitchProcessBatchRecorded(b *testing.B) {
	b.Run("recorder=off", func(b *testing.B) { benchProcessBatchRec(b, nil) })
	b.Run("recorder=on", func(b *testing.B) {
		benchProcessBatchRec(b, telemetry.NewLatencyRecorder(0, 0))
	})
}

// BenchmarkVSwitchCacheHitTraced attaches a tracer with sampling disabled:
// the only added cost on the hit path must be one atomic load.
func BenchmarkVSwitchCacheHitTraced(b *testing.B) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithTracer(NewTracer(0, 64)))
	k := demoKey(1, 80)
	if _, err := vs.Process(k, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vs.Process(k, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
