// Command gigabench regenerates the paper's tables and figures. Each
// experiment builds its workload with Pipebench, runs the simulator, and
// prints the same rows/series the paper reports.
//
// Usage:
//
//	gigabench -exp fig8                # one experiment
//	gigabench -exp all                 # everything (several minutes)
//	gigabench -exp fig8 -flows 20000   # reduced scale
//	gigabench -list                    # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gigaflow/internal/experiments"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/telemetry"
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
		telem     = flag.Bool("telemetry", false, "dump a per-experiment metrics registry (Prometheus text) at exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs, "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: gigabench -exp <id|all> (use -list for ids)")
		os.Exit(2)
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
