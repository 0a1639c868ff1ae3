// Command gigabench regenerates the paper's tables and figures. Each
// experiment builds its workload with Pipebench, runs the simulator, and
// prints the same rows/series the paper reports. With no -exp it runs one
// simulator configuration per pipeline in -pipelines instead and prints
// its full report: hit rate, misses, entries, coverage, sharing, latency
// distribution, and CPU-cycle breakdown.
//
// Usage:
//
//	gigabench -exp fig8                # one experiment
//	gigabench -exp all                 # everything (several minutes)
//	gigabench -exp fig8 -flows 20000   # reduced scale
//	gigabench -list                    # list experiment IDs
//	gigabench -pipelines OLS -cache megaflow -locality low   # one configuration
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gigaflow"
	"gigaflow/internal/experiments"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/traffic"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (or 'all')")
		list      = flag.Bool("list", false, "list experiment ids")
		seed      = flag.Int64("seed", 1, "workload seed")
		flows     = flag.Int("flows", 100000, "unique flows per trace")
		chains    = flag.Int("chains", 0, "rule chains (0: paper default)")
		gfTables  = flag.Int("gf-tables", 4, "Gigaflow tables (K)")
		gfCap     = flag.Int("gf-cap", 8192, "Gigaflow per-table capacity")
		mfCap     = flag.Int("mf-cap", 32768, "Megaflow capacity")
		pipeNames = flag.String("pipelines", "", "comma-separated pipeline subset (e.g. PSC,OLS)")
		telem     = flag.Bool("telemetry", false, "dump metrics (Prometheus text): per experiment at exit, or the run's after each report")

		// One configuration (no -exp).
		cache    = flag.String("cache", "gigaflow", "cache kind (gigaflow|megaflow)")
		scheme   = flag.String("scheme", "dp", "partitioning scheme (dp|rnd|1-1|prof)")
		search   = flag.String("search", "tss", "software search algorithm (tss|nm)")
		offload  = flag.Bool("offload", true, "cache on the SmartNIC (false: CPU-resident)")
		locality = flag.String("locality", "high", "traffic locality (high|low)")
		cores    = flag.Int("cores", 1, "slowpath CPU cores")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs, "\n"))
		return
	}
	p := experiments.Params{
		Seed:       *seed,
		NumFlows:   *flows,
		NumChains:  *chains,
		GFTables:   *gfTables,
		GFTableCap: *gfCap,
		MFCap:      *mfCap,
	}
	if *pipeNames != "" {
		for _, name := range strings.Split(*pipeNames, ",") {
			spec, ok := pipelines.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "gigabench: unknown pipeline %q\n", name)
				os.Exit(2)
			}
			p.Pipelines = append(p.Pipelines, spec)
		}
	}

	if *exp == "" {
		cfg := sim.Config{
			Kind:      choose("cache", *cache, map[string]sim.CacheKind{"gigaflow": sim.Gigaflow, "megaflow": sim.Megaflow}),
			Scheme:    choose("scheme", *scheme, map[string]gigaflow.Scheme{"dp": gigaflow.SchemeDisjoint, "rnd": gigaflow.SchemeRandom, "1-1": gigaflow.SchemeOneToOne, "prof": gigaflow.SchemeProfile}),
			Search:    choose("search", *search, map[string]sim.SearchAlgo{"tss": sim.TSS, "nm": sim.NM}),
			Offloaded: *offload,
			Cores:     *cores,
		}
		loc := choose("locality", *locality, map[string]traffic.Locality{"high": traffic.HighLocality, "low": traffic.LowLocality})
		if err := experiments.Report(os.Stdout, p, cfg, loc, *telem); err != nil {
			fmt.Fprintf(os.Stderr, "gigabench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs
	}
	reg := telemetry.NewRegistry()
	durations := reg.HistogramVec("gigabench_experiment_duration_ns",
		"Wall-clock duration per experiment.", "experiment")
	completed := reg.Counter("gigabench_experiments_total", "Experiments completed.")
	runner := experiments.Runner{Params: p}
	for _, id := range ids {
		start := time.Now()
		tables, err := runner.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gigabench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		durations.With(id).Observe(float64(time.Since(start).Nanoseconds()))
		completed.Inc()
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
	if *telem {
		fmt.Println("--- telemetry ---")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gigabench: %v\n", err)
			os.Exit(1)
		}
	}
}

// choose resolves a flag's value among its named choices; an unknown
// value exits 2, as an unknown flag does.
func choose[T any](name, value string, choices map[string]T) T {
	v, ok := choices[value]
	if !ok {
		fmt.Fprintf(os.Stderr, "gigabench: unknown -%s %q\n", name, value)
		os.Exit(2)
	}
	return v
}
