package experiments

import (
	"fmt"
	"io"

	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/stats"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/traffic"
)

// Report runs one simulator configuration on each of p's pipelines and
// writes the single-configuration report gigabench prints when no -exp is
// given: hit rate, misses, entries, coverage, sharing, latency
// distribution, CPU-cycle breakdown and the throughput model, then, with
// telem, the run's metrics registry as Prometheus text. cfg chooses the
// cache kind, scheme, search, offload and cores; the cache sizes and the
// seed come from p, as they do for every experiment.
func Report(w io.Writer, p Params, cfg sim.Config, loc traffic.Locality, telem bool) error {
	p = p.withDefaults()
	for _, spec := range p.Pipelines {
		if err := report(w, p, spec, cfg, loc, telem); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	return nil
}

func report(w io.Writer, p Params, spec *pipelines.Spec, cfg sim.Config, loc traffic.Locality, telem bool) error {
	wl, err := p.workloadFor(spec)
	if err != nil {
		return err
	}
	trace := sim.BuildTrace(wl, p.NumFlows, loc, p.Seed+2)
	cfg.Seed = p.Seed
	if cfg.Kind == sim.Gigaflow {
		cfg.NumTables, cfg.TableCapacity = p.GFTables, p.GFTableCap
	} else {
		cfg.MegaflowCapacity = p.MFCap
	}
	res, err := sim.Run(wl, trace, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "pipeline    %s (%d tables, %d traversals, %d rules installed)\n",
		spec.Name, spec.NumTables(), spec.NumTraversals(), wl.Pipeline.NumRules())
	fmt.Fprintf(w, "trace       %d flows, %d packets, %s locality\n", p.NumFlows, len(trace), loc)
	fmt.Fprintf(w, "cache       %s offloaded=%v\n\n", cfg.Label(), cfg.Offloaded)

	t := &stats.Table{Headers: []string{"metric", "value"}}
	t.AddRow("packets", res.Packets)
	t.AddRow("hits", res.Hits)
	t.AddRow("misses", res.Misses)
	t.AddRow("hit rate", fmt.Sprintf("%.2f%%", 100*res.HitRate()))
	t.AddRow("stalled chains", res.Stalls)
	t.AddRow("entries used", fmt.Sprintf("%d / %d", res.Entries, res.Capacity))
	t.AddRow("rule-space coverage", res.Coverage)
	t.AddRow("mean sharing (installs/entry)", res.MeanSharing)
	t.AddRow("insert failures", res.InsertFailures)
	t.AddRow("latency mean", fmt.Sprintf("%.2f µs", res.Latency.Mean()/1000))
	t.AddRow("latency p50", fmt.Sprintf("%.2f µs", res.Latency.Quantile(0.5)/1000))
	t.AddRow("latency p99", fmt.Sprintf("%.2f µs", res.Latency.Quantile(0.99)/1000))
	t.AddRow("cycles: pipeline", res.Cycles.Pipeline)
	t.AddRow("cycles: partitioning", res.Cycles.Partition)
	t.AddRow("cycles: rule generation", res.Cycles.RuleGen)
	t.AddRow("slowpath capacity", fmt.Sprintf("%.2f Mpps (%d cores)", res.Throughput.SlowpathPps/1e6, res.Config.Cores))
	t.AddRow("max loss-free offered load", fmt.Sprintf("%.2f Mpps", res.Throughput.MaxOfferedPps/1e6))
	t.AddRow("aggregate throughput", fmt.Sprintf("%.1f Gbps (line rate %.0f)", res.Throughput.AggregateGbps, res.Throughput.LineRateGbps))
	if res.Config.Cores > 1 {
		for i, c := range res.PerCore {
			t.AddRow(fmt.Sprintf("core %d misses", i), c.Misses)
		}
	}
	fmt.Fprintln(w, t.Render())

	if !telem {
		return nil
	}
	reg := telemetry.NewRegistry()
	res.CollectMetrics(reg)
	fmt.Fprintln(w, "--- telemetry ---")
	return reg.WritePrometheus(w)
}
