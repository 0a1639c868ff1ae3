package experiments

import (
	"gigaflow/internal/classbench"
	"gigaflow/internal/gigaflow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// Fig4 reproduces Figure 4: the average number of rules sharing a k-field
// header sub-tuple in a 200K-rule ClassBench-style ruleset, for k = 5..1.
func Fig4(p Params) *stats.Table {
	numRules := 200000
	if p.NumFlows != 0 && p.NumFlows < 100000 {
		numRules = 20000 // reduced-scale mode for quick benches
	}
	rules := classbench.Generate(classbench.Config{Personality: classbench.ACL, Seed: p.Seed, NumRules: numRules})
	sh := classbench.Sharing(rules)
	t := &stats.Table{
		Title:   "Figure 4: avg rules sharing a k-field sub-tuple (ClassBench-style ACL)",
		Headers: []string{"matched fields", "avg sharing"},
	}
	for k := 5; k >= 1; k-- {
		t.AddRow(k, sh[k])
	}
	return t
}

// Table1 renders the pipeline inventory.
func Table1() *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: real-world vSwitch pipelines",
		Headers: []string{"pipeline", "tables", "traversals", "description"},
	}
	for _, s := range pipelines.All() {
		t.AddRow(s.Name, s.NumTables(), s.NumTraversals(), s.Description)
	}
	return t
}

// Fig16 reproduces Figure 16: disjoint partitioning (DP) vs random (RND)
// vs the idealised 1-1 mapping, on the OLS pipeline.
func Fig16(p Params) (*stats.Table, error) {
	p = p.withDefaults()
	w, err := p.workloadFor(pipelines.OLS)
	if err != nil {
		return nil, err
	}
	trace := sim.BuildTrace(w, p.NumFlows, traffic.HighLocality, p.Seed+2)

	// Megaflow baseline for the miss-reduction column.
	mf, err := sim.Run(w, trace, p.mfConfig())
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:   "Figure 16: partitioning schemes on OLS (vs Megaflow misses)",
		Headers: []string{"scheme", "tables", "misses", "miss reduction", "entries"},
	}
	t.AddRow("megaflow", 1, mf.Misses, "-", mf.Entries)

	oneToOneTables := 0
	for _, tr := range pipelines.OLS.Traversals {
		if len(tr.Tables) > oneToOneTables {
			oneToOneTables = len(tr.Tables)
		}
	}
	schemes := []struct {
		scheme gigaflow.Scheme
		tables int
	}{
		{gigaflow.SchemeRandom, p.GFTables},
		{gigaflow.SchemeDisjoint, p.GFTables},
		{gigaflow.SchemeOneToOne, oneToOneTables},
		// Beyond the paper's figure: the §7 profile-guided partitioner.
		{gigaflow.SchemeProfile, p.GFTables},
	}
	for _, s := range schemes {
		cfg := p.gfConfig()
		cfg.Cache.Scheme = s.scheme
		cfg.Cache.NumTables = s.tables
		res, err := sim.Run(w, trace, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.scheme.String(), s.tables, res.Misses,
			stats.Ratio(float64(mf.Misses)-float64(res.Misses), float64(mf.Misses)),
			res.Entries)
	}
	return t, nil
}

// Fig17 reproduces Figure 17's Tuple Space Search rows: Megaflow and
// Gigaflow as CPU-resident caches (PSC pipeline), where a hit pays for
// the tuples its lookup probes. The workload keeps ClassBench's native
// prefix diversity, the classifier-bound regime where search algorithms
// matter. The paper's NuevoMatch rows are not modeled: a learned index
// replaces a scan over tens of masks, and the probes-per-lookup column
// shows how few ours scan.
func Fig17(p Params) (*stats.Table, error) {
	p = p.withDefaults()
	cfg := pipebench.PaperConfig(pipelines.PSC, p.Seed)
	cfg.NativePrefixes = true
	if p.NumChains > 0 {
		cfg.NumChains = p.NumChains
	}
	w, err := pipebench.Generate(cfg)
	if err != nil {
		return nil, err
	}
	trace := sim.BuildTrace(w, p.NumFlows, traffic.HighLocality, p.Seed+2)
	t := &stats.Table{
		Title:   "Figure 17: TSS on CPU-resident caches (PSC, high locality); NuevoMatch not modeled: too few masks to accelerate",
		Headers: []string{"config", "hit%", "mean latency µs", "p99 µs", "TSS probes/lookup"},
	}
	for _, cfg := range []sim.Config{
		{MegaflowCapacity: p.MFCap},
		{Cache: gigaflow.Config{NumTables: p.GFTables, TableCapacity: p.GFTableCap}},
	} {
		res, err := sim.Run(w, trace, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.Label(), 100*res.HitRate(), res.Latency.Mean()/1000, res.Latency.Quantile(0.99)/1000,
			float64(res.TupleProbes)/float64(res.Packets))
	}
	return t, nil
}

// Fig18Result carries the dynamic-workload hit-rate series for both caches.
type Fig18Result struct {
	GF, MF stats.Series
	// ArrivalSec is when the second workload starts.
	ArrivalSec float64
}

// Fig18 reproduces Figure 18: a second workload of fresh flows arrives
// mid-run; Megaflow's hit rate collapses while Gigaflow's rule-space
// coverage absorbs the newcomers (PSC, high locality).
func Fig18(p Params) (*Fig18Result, error) {
	p = p.withDefaults()
	w, err := p.workloadFor(pipelines.PSC)
	if err != nil {
		return nil, err
	}
	half := p.NumFlows / 2
	const arrival = 300_000_000_000 // second workload at t = 5 min

	// The two workloads draw from disjoint halves of the chain population:
	// the second is genuinely new traffic the cache has never seen. It
	// arrives compactly (60 s) against the first's 240 s ramp, producing
	// the paper's cliff.
	mid := len(w.Chains) / 2
	tc1 := traffic.Config{Seed: p.Seed + 2, NumFlows: half, SpreadNs: 240_000_000_000}
	tc2 := traffic.Config{Seed: p.Seed + 3, NumFlows: half, SpreadNs: 60_000_000_000}
	f1 := traffic.GenerateFlows(tc1, w.PickerRange(traffic.HighLocality, 0, mid), w.SampleKey)
	f2 := traffic.GenerateFlows(tc2, w.PickerRange(traffic.HighLocality, mid, len(w.Chains)), w.SampleKey)
	f2 = traffic.ShiftStarts(f2, arrival)
	trace := traffic.Merge(traffic.Expand(tc1, f1), traffic.Expand(tc2, f2))

	sample := int64(15_000_000_000)
	gfCfg := p.gfConfig()
	gfCfg.SampleEveryNs = sample
	mfCfg := p.mfConfig()
	mfCfg.SampleEveryNs = sample

	gf, err := sim.Run(w, trace, gfCfg)
	if err != nil {
		return nil, err
	}
	mf, err := sim.Run(w, trace, mfCfg)
	if err != nil {
		return nil, err
	}
	return &Fig18Result{GF: gf.Series, MF: mf.Series, ArrivalSec: float64(arrival) / 1e9}, nil
}

// Table renders the Fig. 18 series side by side.
func (r *Fig18Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 18: hit rate over time; 2nd workload arrives at t=300s (PSC)",
		Headers: []string{"t (s)", "gigaflow hit%", "megaflow hit%"},
	}
	n := len(r.GF.Points)
	if len(r.MF.Points) < n {
		n = len(r.MF.Points)
	}
	for i := 0; i < n; i++ {
		t.AddRow(r.GF.Points[i].T, 100*r.GF.Points[i].V, 100*r.MF.Points[i].V)
	}
	return t
}

// Sec636 reproduces §6.3.6: per-deployment cache-hit latencies and the
// Gigaflow-vs-Megaflow revalidation comparison on the OLS pipeline.
func Sec636(p Params) (*stats.Table, *stats.Table, error) {
	p = p.withDefaults()
	lat := &stats.Table{
		Title:   "§6.3.6: cache-hit latency by deployment",
		Headers: []string{"configuration", "latency µs"},
	}
	for _, row := range sim.LatencyTable() {
		lat.AddRow(row.Name, float64(row.LatencyNs)/1000)
	}

	w, err := p.workloadFor(pipelines.OLS)
	if err != nil {
		return nil, nil, err
	}
	gf, mf, err := sim.RevalidationExperiment(w, p.NumFlows, p.GFTables, p.GFTableCap, p.MFCap)
	if err != nil {
		return nil, nil, err
	}
	reval := &stats.Table{
		Title:   "§6.3.6: full-cache revalidation after a rule update (OLS)",
		Headers: []string{"cache", "entries", "replayed lookups", "time ms"},
	}
	reval.AddRow(mf.Label, mf.Entries, mf.Work, mf.TimeMs)
	reval.AddRow(gf.Label, gf.Entries, gf.Work, gf.TimeMs)
	return lat, reval, nil
}
