package sim

import (
	"strings"
	"testing"

	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/traffic"
)

func workload(t testing.TB, spec *pipelines.Spec, chains int) *pipebench.Workload {
	t.Helper()
	w, err := pipebench.Generate(pipebench.Config{Spec: spec, Seed: 11, NumChains: chains})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunGigaflowVsMegaflowHighLocality(t *testing.T) {
	w := workload(t, pipelines.PSC, 400)
	trace := BuildTrace(w, 5000, traffic.HighLocality, 3)

	gfRes, err := Run(w, trace, Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 2048, Offloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh workload is needed because Run installs nothing into the
	// pipeline, so reuse is safe — but use a fresh megaflow run anyway.
	mfRes, err := Run(w, trace, Config{Kind: Megaflow, MegaflowCapacity: 8192, Offloaded: true})
	if err != nil {
		t.Fatal(err)
	}

	if gfRes.Packets != uint64(len(trace)) || mfRes.Packets != gfRes.Packets {
		t.Fatalf("packets %d/%d, trace %d", gfRes.Packets, mfRes.Packets, len(trace))
	}
	if gfRes.HitRate() <= 0 || mfRes.HitRate() <= 0 {
		t.Fatal("degenerate run: no hits")
	}
	// The headline claim at equal total capacity: Gigaflow ≥ Megaflow hit
	// rate in high-locality traffic.
	if gfRes.HitRate() < mfRes.HitRate()-0.02 {
		t.Errorf("gigaflow hit rate %.3f below megaflow %.3f", gfRes.HitRate(), mfRes.HitRate())
	}
	// Coverage must exceed entry count for Gigaflow, equal it for Megaflow.
	if gfRes.Coverage < uint64(gfRes.Entries) {
		t.Errorf("gf coverage %d < entries %d", gfRes.Coverage, gfRes.Entries)
	}
	if mfRes.Coverage != uint64(mfRes.Entries) {
		t.Errorf("mf coverage %d != entries %d", mfRes.Coverage, mfRes.Entries)
	}
	// Sub-traversal sharing shows up as installs-per-entry > 1.
	if gfRes.MeanSharing <= 1.0 {
		t.Errorf("gf mean sharing %.2f, expected > 1", gfRes.MeanSharing)
	}
	if mfRes.MeanSharing != 1.0 {
		t.Errorf("mf mean sharing %.2f", mfRes.MeanSharing)
	}
	// Fig. 13 structure: megaflow must charge no partition cycles.
	if mfRes.Cycles.Partition != 0 {
		t.Error("megaflow charged partitioning cycles")
	}
	if gfRes.Cycles.Partition == 0 || gfRes.Cycles.Pipeline == 0 {
		t.Error("gigaflow cycle breakdown incomplete")
	}
}

func TestHitsAgreeWithSlowpath(t *testing.T) {
	// Every packet's simulated fate must be consistent: re-running any
	// packet's key through the pipeline yields a terminal verdict, and the
	// simulation completes with hits+misses == packets.
	w := workload(t, pipelines.OFD, 300)
	trace := BuildTrace(w, 2000, traffic.HighLocality, 5)
	res, err := Run(w, trace, Config{Kind: Gigaflow, Offloaded: true, NumTables: 4, TableCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits+res.Misses != res.Packets {
		t.Errorf("hits %d + misses %d != packets %d", res.Hits, res.Misses, res.Packets)
	}
	if res.Latency.N() != res.Packets {
		t.Errorf("latency samples %d != packets %d", res.Latency.N(), res.Packets)
	}
}

func TestOffloadLatencyStructure(t *testing.T) {
	w := workload(t, pipelines.PSC, 200)
	trace := BuildTrace(w, 1500, traffic.HighLocality, 9)
	res, err := Run(w, trace, Config{Kind: Gigaflow, Offloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultCostModel()
	// Hits cost exactly HWHitNs, so the minimum observed latency bucket
	// must be at or around it, and the mean must exceed it (misses).
	if res.Latency.Mean() <= float64(m.HWHitNs) {
		t.Errorf("mean latency %.0f should exceed the hit latency %d", res.Latency.Mean(), m.HWHitNs)
	}
	if res.Latency.Mean() > 20*float64(m.HWHitNs) {
		t.Errorf("mean latency %.0f implausibly high", res.Latency.Mean())
	}
}

func TestSoftwareSearchCostTSSvsNM(t *testing.T) {
	// Fig. 17: with a CPU-resident Megaflow cache, NM must not be slower
	// than TSS on average (it replaces O(#masks) scans with O(1) model
	// evaluations).
	w := workload(t, pipelines.PSC, 400)
	trace := BuildTrace(w, 6000, traffic.HighLocality, 13)
	tss, err := Run(w, trace, Config{Kind: Megaflow, MegaflowCapacity: 8192, Search: TSS})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := Run(w, trace, Config{Kind: Megaflow, MegaflowCapacity: 8192, Search: NM})
	if err != nil {
		t.Fatal(err)
	}
	if tss.HitRate() != nm.HitRate() {
		t.Errorf("search algorithm must not change hit rate: %.4f vs %.4f", tss.HitRate(), nm.HitRate())
	}
	if nm.Latency.Mean() > tss.Latency.Mean()*1.05 {
		t.Errorf("NM latency %.0f worse than TSS %.0f", nm.Latency.Mean(), tss.Latency.Mean())
	}
}

func TestCoreScalingSpreadsMisses(t *testing.T) {
	w := workload(t, pipelines.PSC, 300)
	trace := BuildTrace(w, 4000, traffic.LowLocality, 17)
	res, err := Run(w, trace, Config{Kind: Megaflow, Offloaded: true, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("per-core entries: %d", len(res.PerCore))
	}
	var total uint64
	busy := 0
	for _, c := range res.PerCore {
		total += c.Misses
		if c.Misses > 0 {
			busy++
		}
	}
	if total != res.Misses {
		t.Errorf("per-core misses %d != total %d", total, res.Misses)
	}
	if busy < 3 {
		t.Errorf("RSS spread misses over only %d/4 cores", busy)
	}
	// No core should carry the vast majority.
	for i, c := range res.PerCore {
		if float64(c.Misses) > 0.6*float64(total) {
			t.Errorf("core %d carries %d of %d misses", i, c.Misses, total)
		}
	}
}

func TestTimeSeriesSampling(t *testing.T) {
	w := workload(t, pipelines.PSC, 200)
	trace := BuildTrace(w, 3000, traffic.HighLocality, 19)
	res, err := Run(w, trace, Config{Kind: Gigaflow, Offloaded: true, SampleEveryNs: 5_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Points) < 5 {
		t.Fatalf("only %d series points over a 60s trace", len(res.Series.Points))
	}
	// Hit rate should improve as the cache warms: last window ≥ first.
	first, last := res.Series.Points[0].V, res.Series.Points[len(res.Series.Points)-1].V
	if last < first {
		t.Errorf("hit rate declined while warming: %.3f -> %.3f", first, last)
	}
}

func TestIdleExpiryRuns(t *testing.T) {
	w := workload(t, pipelines.PSC, 200)
	trace := BuildTrace(w, 2000, traffic.HighLocality, 23)
	res, err := Run(w, trace, Config{
		Kind: Gigaflow, Offloaded: true,
		MaxIdleNs: 5_000_000_000, ExpireEveryNs: 1_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a 5s idle timeout over a 60s trace, entries must be bounded by
	// live flows, not total flows.
	if res.Entries == 0 {
		t.Error("expiry removed everything")
	}
}

func TestLatencyTable(t *testing.T) {
	rows := LatencyTable(CostModel{})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §6.3.6 ordering: offloads fastest, ARM kernel slowest.
	if rows[0].LatencyNs != 8620 || rows[5].LatencyNs != 3606370 {
		t.Errorf("rows = %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].LatencyNs < rows[i-1].LatencyNs {
			t.Errorf("latency table not sorted: %+v", rows)
		}
	}
}

func TestRevalidationExperiment(t *testing.T) {
	w := workload(t, pipelines.PSC, 300)
	gf, mf, err := RevalidationExperiment(w, 3000, 4, 2048, 8192, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if gf.Work == 0 || mf.Work == 0 {
		t.Fatalf("no revalidation work: gf=%+v mf=%+v", gf, mf)
	}
	// §6.3.6: Gigaflow revalidation is cheaper (≈2× in the paper).
	if gf.Work >= mf.Work {
		t.Errorf("gigaflow reval work %d not below megaflow %d", gf.Work, mf.Work)
	}
	if gf.TimeMs <= 0 || mf.TimeMs <= 0 {
		t.Error("times must be positive")
	}
}

func TestRunErrors(t *testing.T) {
	w := workload(t, pipelines.PSC, 50)
	if _, err := Run(w, nil, Config{}); err == nil {
		t.Error("empty trace must fail")
	}
}

func TestConfigLabels(t *testing.T) {
	c := Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 8192, Search: NM}
	if c.Label() != "gigaflow(4x8192)/NM" {
		t.Errorf("label %q", c.Label())
	}
	c = Config{Kind: Megaflow, MegaflowCapacity: 32768}
	if c.Label() != "megaflow(32768)/TSS" {
		t.Errorf("label %q", c.Label())
	}
	if Gigaflow.String() != "gigaflow" || TSS.String() != "TSS" || NM.String() != "NM" {
		t.Error("names wrong")
	}
}

func TestThroughputModel(t *testing.T) {
	w := workload(t, pipelines.PSC, 400)
	trace := BuildTrace(w, 6000, traffic.HighLocality, 29)
	gf, err := Run(w, trace, Config{Kind: Gigaflow, Offloaded: true, NumTables: 4, TableCapacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := Run(w, trace, Config{Kind: Megaflow, MegaflowCapacity: 4096, Offloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{gf, mf} {
		tp := r.Throughput
		if tp.MissRate <= 0 || tp.MissRate >= 1 {
			t.Fatalf("miss rate %v", tp.MissRate)
		}
		if tp.PerMissNs <= 0 || tp.SlowpathPps <= 0 {
			t.Fatalf("throughput model empty: %+v", tp)
		}
		if tp.AggregateGbps <= 0 || tp.AggregateGbps > tp.LineRateGbps {
			t.Fatalf("aggregate %v out of range", tp.AggregateGbps)
		}
	}
	// The paper's motivating claim: the better cache supports more load.
	if gf.HitRate() > mf.HitRate() && gf.Throughput.AggregateGbps < mf.Throughput.AggregateGbps {
		t.Errorf("higher hit rate must not reduce achievable throughput: gf %.1f vs mf %.1f Gbps",
			gf.Throughput.AggregateGbps, mf.Throughput.AggregateGbps)
	}
	// More cores buy proportionally more slowpath capacity.
	mf8, err := Run(w, trace, Config{Kind: Megaflow, MegaflowCapacity: 4096, Offloaded: true, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mf8.Throughput.SlowpathPps < 7*mf.Throughput.SlowpathPps {
		t.Errorf("8 cores should ~8x slowpath capacity: %v vs %v", mf8.Throughput.SlowpathPps, mf.Throughput.SlowpathPps)
	}
}

func TestCollectMetricsKinds(t *testing.T) {
	// Coverage rises and falls with the entries that carry it: the live
	// switch exports it as a gauge, and a run must not disagree.
	w := workload(t, pipelines.PSC, 100)
	res, err := Run(w, BuildTrace(w, 500, traffic.HighLocality, 31), Config{Kind: Gigaflow, Offloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res.CollectMetrics(reg)
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE gigaflow_cache_coverage gauge",
		"# TYPE gigaflow_cache_entries gauge",
		"# TYPE gigaflow_cache_misses_total counter",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

func TestResourceModel(t *testing.T) {
	proto := EstimateResources(4, 8192)
	if proto.LUTPct != 47 || proto.FFPct != 33 || proto.BRAMPct != 49 || proto.PowerW != 38 || !proto.Feasible {
		t.Errorf("the prototype configuration must reproduce §5's feasible report: %+v", proto)
	}
	small := EstimateResources(1, 1024)
	if small.LUTPct >= proto.LUTPct || small.PowerW >= proto.PowerW {
		t.Error("smaller cache must cost less")
	}
	huge := EstimateResources(8, 262144)
	if huge.Feasible {
		t.Errorf("8x256K should blow the envelope: %+v", huge)
	}
	if huge.PowerW <= proto.PowerW {
		t.Error("bigger cache must cost more power")
	}
}
