package experiments

import (
	"fmt"

	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// Fig3 reproduces Figure 3: on the OLS pipeline, increasing the number of
// cache tables K (1 = Megaflow-equivalent single table) cuts both cache
// misses and cache entries, at fixed per-table capacity.
func Fig3(p Params) (*stats.Table, error) {
	p = p.withDefaults()
	w, err := p.workloadFor(pipelines.OLS)
	if err != nil {
		return nil, err
	}
	trace := sim.BuildTrace(w, p.NumFlows, traffic.HighLocality, p.Seed+2)
	t := &stats.Table{
		Title:   "Figure 3: misses and entries vs cache tables K (OLS, high locality)",
		Headers: []string{"K", "misses", "entries", "hit%"},
	}
	for k := 1; k <= p.GFTables; k++ {
		cfg := p.gfConfig()
		cfg.Cache.NumTables = k
		res, err := sim.Run(w, trace, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(k, res.Misses, res.Entries, 100*res.HitRate())
	}
	return t, nil
}

// TableSweep holds the shared runs behind Figures 14 and 15: misses and
// entries as the number of Gigaflow tables grows from 2 to 5 with a large
// (100K) per-table limit, for every pipeline in both localities.
type TableSweep struct {
	Params Params
	Rows   []TableSweepRow
}

// TableSweepRow is one (pipeline, locality, K) measurement.
type TableSweepRow struct {
	Pipeline string
	Locality traffic.Locality
	K        int
	Misses   uint64
	Entries  int
}

// RunTableSweep executes the §6.3.1 table-count sweep.
func RunTableSweep(p Params) (*TableSweep, error) {
	p = p.withDefaults()
	out := &TableSweep{Params: p}
	for _, spec := range p.Pipelines {
		w, err := p.workloadFor(spec)
		if err != nil {
			return nil, err
		}
		for _, loc := range []traffic.Locality{traffic.HighLocality, traffic.LowLocality} {
			trace := sim.BuildTrace(w, p.NumFlows, loc, p.Seed+2)
			for k := 2; k <= 5; k++ {
				cfg := p.gfConfig()
				cfg.Cache.NumTables = k
				cfg.Cache.TableCapacity = 100000
				res, err := sim.Run(w, trace, cfg)
				if err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, TableSweepRow{
					Pipeline: spec.Name, Locality: loc, K: k,
					Misses: res.Misses, Entries: res.Entries,
				})
			}
		}
	}
	return out, nil
}

// Fig14 renders cache misses vs number of Gigaflow tables.
func (s *TableSweep) Fig14() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 14: cache misses vs Gigaflow tables (100K entries/table)",
		Headers: []string{"pipeline", "locality", "K=2", "K=3", "K=4", "K=5"},
	}
	s.render(t, func(r TableSweepRow) any { return r.Misses })
	return t
}

// Fig15 renders cache entries vs number of Gigaflow tables.
func (s *TableSweep) Fig15() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 15: cache entries vs Gigaflow tables (100K entries/table)",
		Headers: []string{"pipeline", "locality", "K=2", "K=3", "K=4", "K=5"},
	}
	s.render(t, func(r TableSweepRow) any { return r.Entries })
	return t
}

func (s *TableSweep) render(t *stats.Table, metric func(TableSweepRow) any) {
	type key struct {
		pipe string
		loc  traffic.Locality
	}
	byCell := map[key][]any{}
	var order []key
	for _, r := range s.Rows {
		k := key{r.Pipeline, r.Locality}
		if _, ok := byCell[k]; !ok {
			order = append(order, k)
		}
		byCell[k] = append(byCell[k], metric(r))
	}
	for _, k := range order {
		cells := append([]any{k.pipe, k.loc.String()}, byCell[k]...)
		t.AddRow(cells...)
	}
}

// Fig19 reproduces Appendix A: slowpath misses per core as the vSwitch is
// given more CPU cores (RSS-distributed), for both caches.
func Fig19(p Params) (*stats.Table, error) {
	p = p.withDefaults()
	spec := p.Pipelines[0]
	w, err := p.workloadFor(spec)
	if err != nil {
		return nil, err
	}
	trace := sim.BuildTrace(w, p.NumFlows, traffic.HighLocality, p.Seed+2)
	t := &stats.Table{
		Title:   fmt.Sprintf("Figure 19: misses per core vs CPU cores (%s, high locality)", spec.Name),
		Headers: []string{"cache", "cores", "misses/core", "total Mcycles"},
	}
	for _, kind := range []sim.Config{p.gfConfig(), p.mfConfig()} {
		for _, cores := range []int{1, 2, 4, 8} {
			cfg := kind
			cfg.Cores = cores
			res, err := sim.Run(w, trace, cfg)
			if err != nil {
				return nil, err
			}
			var maxMisses uint64
			for _, c := range res.PerCore {
				if c.Misses > maxMisses {
					maxMisses = c.Misses
				}
			}
			t.AddRow(cfg.Name(), cores, maxMisses, float64(res.Cycles.Total())/1e6)
		}
	}
	return t, nil
}
