// Package experiments contains the reproduction harness for every table
// and figure in the paper's evaluation (§6). Each experiment builds its
// workload via Pipebench, drives the simulator, and renders the same rows
// or series the paper reports. The gigabench command is a thin wrapper
// over Runner; TestGolden pins every experiment's output at reduced scale.
package experiments

import (
	"fmt"

	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// Params scales an experiment. The zero value uses paper-scale defaults;
// tests and benchmarks shrink NumFlows/NumChains for speed.
type Params struct {
	Seed      int64
	NumFlows  int // unique flows in the trace (paper: 100,000)
	NumChains int // installed rule chains (0: pipebench paper default)

	GFTables   int // K (paper: 4)
	GFTableCap int // per-table entries (paper: 8K)
	MFCap      int // Megaflow entries (paper: 32K)

	// Pipelines restricts the pipeline set (default: all five).
	Pipelines []*pipelines.Spec
}

func (p Params) withDefaults() Params {
	if p.NumFlows == 0 {
		p.NumFlows = 100000
	}
	if p.GFTables == 0 {
		p.GFTables = 4
	}
	if p.GFTableCap == 0 {
		p.GFTableCap = 8192
	}
	if p.MFCap == 0 {
		p.MFCap = 32768
	}
	if len(p.Pipelines) == 0 {
		p.Pipelines = pipelines.All()
	}
	return p
}

// workloadFor builds (and memoizes nothing — callers reuse) the Pipebench
// workload for one pipeline at these params.
func (p Params) workloadFor(spec *pipelines.Spec) (*pipebench.Workload, error) {
	cfg := pipebench.PaperConfig(spec, p.Seed)
	if p.NumChains > 0 {
		cfg.NumChains = p.NumChains
	}
	return pipebench.Generate(cfg)
}

// gfConfig returns the Gigaflow simulator configuration.
func (p Params) gfConfig() sim.Config {
	return sim.Config{Kind: sim.Gigaflow, NumTables: p.GFTables, TableCapacity: p.GFTableCap, Offloaded: true, Seed: p.Seed}
}

// mfConfig returns the Megaflow simulator configuration.
func (p Params) mfConfig() sim.Config {
	return sim.Config{Kind: sim.Megaflow, MegaflowCapacity: p.MFCap, Offloaded: true, Seed: p.Seed}
}

// Cell is one (pipeline, locality) end-to-end comparison.
type Cell struct {
	Pipeline string
	Locality traffic.Locality
	Packets  int
	GF, MF   *sim.Result
}

// EndToEnd holds the shared runs behind Figures 8–13 and Table 2: for each
// pipeline and locality, one Gigaflow (K×cap) and one Megaflow (MFCap) run
// over an identical trace.
type EndToEnd struct {
	Params Params
	Cells  []Cell
}

// RunEndToEnd executes the §6.2 experiment grid.
func RunEndToEnd(p Params) (*EndToEnd, error) {
	p = p.withDefaults()
	out := &EndToEnd{Params: p}
	for _, spec := range p.Pipelines {
		w, err := p.workloadFor(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %v", spec.Name, err)
		}
		for _, loc := range []traffic.Locality{traffic.HighLocality, traffic.LowLocality} {
			trace := sim.BuildTrace(w, p.NumFlows, loc, p.Seed+2)
			gf, err := sim.Run(w, trace, p.gfConfig())
			if err != nil {
				return nil, err
			}
			mf, err := sim.Run(w, trace, p.mfConfig())
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, Cell{
				Pipeline: spec.Name, Locality: loc, Packets: len(trace), GF: gf, MF: mf,
			})
		}
	}
	return out, nil
}

// Fig8 renders end-to-end cache hit rates: Gigaflow (KxC) vs Megaflow in
// high/low locality environments.
func (e *EndToEnd) Fig8() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 8: end-to-end cache hit rate (%)",
		Headers: []string{"pipeline", "locality", "gigaflow", "megaflow", "improvement"},
	}
	for _, c := range e.Cells {
		gf, mf := 100*c.GF.HitRate(), 100*c.MF.HitRate()
		t.AddRow(c.Pipeline, c.Locality.String(), gf, mf, stats.Ratio(gf-mf, mf))
	}
	return t
}

// Fig9 renders end-to-end cache misses.
func (e *EndToEnd) Fig9() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 9: end-to-end cache misses",
		Headers: []string{"pipeline", "locality", "packets", "gigaflow", "megaflow", "reduction"},
	}
	for _, c := range e.Cells {
		t.AddRow(c.Pipeline, c.Locality.String(), c.Packets,
			c.GF.Misses, c.MF.Misses,
			stats.Ratio(float64(c.MF.Misses)-float64(c.GF.Misses), float64(c.MF.Misses)))
	}
	return t
}

// Fig10 renders cache entries used (cache utilisation).
func (e *EndToEnd) Fig10() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 10: cache entries used",
		Headers: []string{"pipeline", "locality", "gf entries", "gf util%", "mf entries", "mf util%"},
	}
	for _, c := range e.Cells {
		t.AddRow(c.Pipeline, c.Locality.String(),
			c.GF.Entries, 100*float64(c.GF.Entries)/float64(c.GF.Capacity),
			c.MF.Entries, 100*float64(c.MF.Entries)/float64(c.MF.Capacity))
	}
	return t
}

// Fig11 renders the sub-traversal sharing frequency (mean traversals
// installed per Gigaflow entry).
func (e *EndToEnd) Fig11() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 11: sub-traversal sharing frequency (mean installs/entry)",
		Headers: []string{"pipeline", "locality", "sharing"},
	}
	for _, c := range e.Cells {
		t.AddRow(c.Pipeline, c.Locality.String(), c.GF.MeanSharing)
	}
	return t
}

// Fig12 renders mean end-to-end per-packet latency.
func (e *EndToEnd) Fig12() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 12: end-to-end latency (µs, mean | p99)",
		Headers: []string{"pipeline", "locality", "gf mean", "gf p99", "mf mean", "mf p99", "improvement"},
	}
	for _, c := range e.Cells {
		gf, mf := c.GF.Latency.Mean()/1000, c.MF.Latency.Mean()/1000
		t.AddRow(c.Pipeline, c.Locality.String(),
			gf, c.GF.Latency.Quantile(0.99)/1000,
			mf, c.MF.Latency.Quantile(0.99)/1000,
			stats.Ratio(mf-gf, mf))
	}
	return t
}

// Fig13 renders the slowpath CPU-cycle breakdown per pipeline (high
// locality cells): userspace forwarding vs partitioning vs rule
// generation, normalised per miss.
func (e *EndToEnd) Fig13() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 13: vSwitch CPU cycle breakdown (cycles per miss)",
		Headers: []string{"pipeline", "cache", "pipeline-cycles", "partition", "rulegen", "overhead%"},
	}
	for _, c := range e.Cells {
		if c.Locality != traffic.HighLocality {
			continue
		}
		for _, r := range []*sim.Result{c.GF, c.MF} {
			if r.Misses == 0 {
				continue
			}
			per := func(v int64) float64 { return float64(v) / float64(r.Misses) }
			over := 100 * float64(r.Cycles.Partition+r.Cycles.RuleGen) / float64(r.Cycles.Pipeline)
			t.AddRow(c.Pipeline, r.Config.Kind.String(),
				per(r.Cycles.Pipeline), per(r.Cycles.Partition), per(r.Cycles.RuleGen), over)
		}
	}
	return t
}

// Table2 renders the maximum rule-space coverage comparison.
func (e *EndToEnd) Table2() *stats.Table {
	t := &stats.Table{
		Title:   "Table 2: rule-space coverage (high locality)",
		Headers: []string{"pipeline", "megaflow", "gigaflow", "factor"},
	}
	for _, c := range e.Cells {
		if c.Locality != traffic.HighLocality {
			continue
		}
		factor := float64(c.GF.Coverage) / float64(c.MF.Coverage)
		t.AddRow(c.Pipeline, c.MF.Coverage, c.GF.Coverage, factor)
	}
	return t
}
