// Command bench is the repository's one benchmark: a closed-loop,
// wire-to-verdict drive of service.SubmitFrameBatch over four workloads,
// reporting end-to-end metrics (tracing off) or per-layer metrics (a
// separate traced run). BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory defines them.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload warm-ltm --seed 1 --seconds 10 --trace 0
//
// The result is one JSON object on the last line of standard output;
// progress and warnings go to standard error. Nothing here is modeled:
// every number is measured in this process, on in-process byte slices (no
// sockets), with GOMAXPROCS=2 — one generator thread and one worker.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		seconds = flag.Int("seconds", 10, "nominal measuring time; sets the number of fixed-size rounds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		outPath = flag.String("out", "", "append the run as one JSON record to this file (for -compare)")
		check   = flag.String("check", "", "validate a file of run records against BENCHMARK.json and exit")
		compare = flag.Bool("compare", false, "compare two files of run records: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *check != "":
		return checkFile(spec, *check, os.Stdout, os.Stderr)
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout, os.Stderr)
	}

	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		fmt.Fprint(os.Stderr, "workloads:")
		for _, w := range workloads {
			fmt.Fprint(os.Stderr, " ", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}

	// One generator thread plus one worker: the load model. Set here, not
	// inherited, so a run means the same thing on any box with ≥2 CPUs.
	runtime.GOMAXPROCS(2)
	env := currentEnv()
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d trace=%d env=%s (frames are in-process byte slices, no sockets)\n",
		w.name, *seed, *seconds, *trace, env.json())

	ctx := context.Background()
	var out *outcome
	if *trace == 0 {
		out, err = runEndToEnd(ctx, w, *seed, *seconds)
	} else {
		out, err = runTraced(ctx, w, *seed, env, filepath.Join("bench", "out"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "bench: invariant violated:", n)
	}

	// Self-check before printing: a document that does not match
	// BENCHMARK.json is a benchmark bug and must not reach the driver.
	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Env: env,
		Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if errs := spec.validate(&rec); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "bench: output self-check:", e)
		}
		return 1
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, &rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
