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
	var o options
	exp := flag.String("exp", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.flows, "flows", 100000, "unique flows per trace")
	flag.IntVar(&o.chains, "chains", 0, "rule chains (0: paper default)")
	flag.IntVar(&o.gfTables, "gf-tables", 4, "Gigaflow tables (K)")
	flag.IntVar(&o.gfCap, "gf-cap", 8192, "Gigaflow per-table capacity")
	flag.IntVar(&o.mfCap, "mf-cap", 32768, "Megaflow capacity")
	flag.StringVar(&o.pipelines, "pipelines", "", "comma-separated pipeline subset (e.g. PSC,OLS)")
	telem := flag.Bool("telemetry", false, "dump metrics (Prometheus text): per experiment at exit, or the run's after each report")
	// One configuration (no -exp).
	flag.StringVar(&o.cache, "cache", "gigaflow", "cache kind (gigaflow|megaflow)")
	flag.StringVar(&o.scheme, "scheme", "dp", "partitioning scheme (dp|rnd|1-1|prof)")
	flag.BoolVar(&o.offload, "offload", true, "cache on the SmartNIC (false: CPU-resident)")
	flag.StringVar(&o.locality, "locality", "high", "traffic locality (high|low)")
	flag.IntVar(&o.cores, "cores", 1, "slowpath CPU cores")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs, "\n"))
		return
	}
	p, cfg, loc, err := configure(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gigabench: %v\n", err)
		os.Exit(2)
	}

	if *exp == "" {
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

// options is the scale and the configuration gigabench's command line
// asks for.
type options struct {
	seed                                  int64
	flows, chains, gfTables, gfCap, mfCap int
	pipelines                             string
	cache, scheme, locality               string
	offload                               bool
	cores                                 int
}

// configure builds the experiments' scale and the one configuration
// Report runs from the flags, its cache sizes included; an error is a
// usage error. Every size must be positive, as the simulator would
// otherwise replace it with its default or fail on it, and -chains 0 is
// the paper's default.
func configure(o options) (p experiments.Params, cfg sim.Config, loc traffic.Locality, err error) {
	for _, n := range []struct {
		name  string
		value int
	}{{"flows", o.flows}, {"gf-tables", o.gfTables}, {"gf-cap", o.gfCap}, {"mf-cap", o.mfCap}, {"cores", o.cores}} {
		if n.value < 1 {
			return p, cfg, loc, fmt.Errorf("-%s %d: must be positive", n.name, n.value)
		}
	}
	if o.chains < 0 {
		return p, cfg, loc, fmt.Errorf("-chains %d: must not be negative", o.chains)
	}
	p = experiments.Params{
		Seed:       o.seed,
		NumFlows:   o.flows,
		NumChains:  o.chains,
		GFTables:   o.gfTables,
		GFTableCap: o.gfCap,
		MFCap:      o.mfCap,
	}
	if o.pipelines != "" {
		for _, name := range strings.Split(o.pipelines, ",") {
			spec, ok := pipelines.ByName(strings.TrimSpace(name))
			if !ok {
				return p, cfg, loc, fmt.Errorf("unknown pipeline %q", name)
			}
			p.Pipelines = append(p.Pipelines, spec)
		}
	}
	cfg = sim.Config{
		Cache:     gigaflow.CacheConfig{NumTables: o.gfTables, TableCapacity: o.gfCap, Seed: o.seed},
		Offloaded: o.offload,
		Cores:     o.cores,
	}
	// -cache megaflow sets the Megaflow capacity, which is what chooses it.
	if cfg.MegaflowCapacity, err = choose("cache", o.cache, map[string]int{"gigaflow": 0, "megaflow": o.mfCap}); err != nil {
		return p, cfg, loc, err
	}
	if cfg.Cache.Scheme, err = choose("scheme", o.scheme, map[string]gigaflow.Scheme{"dp": gigaflow.SchemeDisjoint, "rnd": gigaflow.SchemeRandom, "1-1": gigaflow.SchemeOneToOne, "prof": gigaflow.SchemeProfile}); err != nil {
		return p, cfg, loc, err
	}
	loc, err = choose("locality", o.locality, map[string]traffic.Locality{"high": traffic.HighLocality, "low": traffic.LowLocality})
	return p, cfg, loc, err
}

// choose resolves a flag's value among its named choices.
func choose[T any](name, value string, choices map[string]T) (T, error) {
	v, ok := choices[value]
	if !ok {
		return v, fmt.Errorf("unknown -%s %q", name, value)
	}
	return v, nil
}
