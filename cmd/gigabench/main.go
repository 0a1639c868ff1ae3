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
	"gigaflow/internal/stats"
	"gigaflow/internal/telemetry"
)

var experimentOrder = []string{
	"tab1", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "tab2", "fig16", "fig17", "fig18",
	"sec636", "fig19",
}

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
		fmt.Println(strings.Join(experimentOrder, "\n"))
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
		ids = experimentOrder
	}
	reg := telemetry.NewRegistry()
	durations := reg.HistogramVec("gigabench_experiment_duration_ns",
		"Wall-clock duration per experiment.", "experiment")
	completed := reg.Counter("gigabench_experiments_total", "Experiments completed.")
	for _, id := range ids {
		start := time.Now()
		if err := run(id, p); err != nil {
			fmt.Fprintf(os.Stderr, "gigabench: %s: %v\n", id, err)
			os.Exit(1)
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

// endToEndCache shares the §6.2 grid across fig8..fig13/tab2 in an
// `-exp all` run.
var endToEndCache *experiments.EndToEnd

func endToEnd(p experiments.Params) (*experiments.EndToEnd, error) {
	if endToEndCache != nil {
		return endToEndCache, nil
	}
	e, err := experiments.RunEndToEnd(p)
	if err == nil {
		endToEndCache = e
	}
	return e, err
}

var tableSweepCache *experiments.TableSweep

func tableSweep(p experiments.Params) (*experiments.TableSweep, error) {
	if tableSweepCache != nil {
		return tableSweepCache, nil
	}
	s, err := experiments.RunTableSweep(p)
	if err == nil {
		tableSweepCache = s
	}
	return s, err
}

func run(id string, p experiments.Params) error {
	emit := func(t *stats.Table) { fmt.Println(t.Render()) }
	switch id {
	case "tab1":
		emit(experiments.Table1())
	case "fig3":
		t, err := experiments.Fig3(p)
		if err != nil {
			return err
		}
		emit(t)
	case "fig4":
		emit(experiments.Fig4(p))
	case "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "tab2":
		e, err := endToEnd(p)
		if err != nil {
			return err
		}
		switch id {
		case "fig8":
			emit(e.Fig8())
		case "fig9":
			emit(e.Fig9())
		case "fig10":
			emit(e.Fig10())
		case "fig11":
			emit(e.Fig11())
		case "fig12":
			emit(e.Fig12())
		case "fig13":
			emit(e.Fig13())
		case "tab2":
			emit(e.Table2())
		}
	case "fig14", "fig15":
		s, err := tableSweep(p)
		if err != nil {
			return err
		}
		if id == "fig14" {
			emit(s.Fig14())
		} else {
			emit(s.Fig15())
		}
	case "fig16":
		t, err := experiments.Fig16(p)
		if err != nil {
			return err
		}
		emit(t)
	case "fig17":
		t, err := experiments.Fig17(p)
		if err != nil {
			return err
		}
		emit(t)
	case "fig18":
		r, err := experiments.Fig18(p)
		if err != nil {
			return err
		}
		emit(r.Table())
	case "sec636":
		lat, reval, err := experiments.Sec636(p)
		if err != nil {
			return err
		}
		emit(lat)
		emit(reval)
	case "fig19":
		t, err := experiments.Fig19(p)
		if err != nil {
			return err
		}
		emit(t)
	default:
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return nil
}
