// Command gflint runs Gigaflow's project-specific static-analysis suite:
// hotalloc (//gf:hotpath functions stay allocation-free), hotcall (the
// transitive closure of every hot function is certified allocation- and
// block-free), goroleak (every goroutine has a termination path, every
// WaitGroup.Add a matching Done), atomicmix (no mixed atomic/plain field
// access), lockdiscipline (locks released on all paths, no channel ops
// under a lock), detrand (simulation code uses injected seeded
// randomness and virtual time only), and deadcode (every declaration is
// referenced by non-test code or by another package's test; it runs on
// whole-module loads only, and is silent for pattern-limited runs).
//
// Usage:
//
//	gflint [-C dir] [-run names] [-json] [-summary] [-hotcert file] [pattern ...]
//
// With no pattern (or the conventional "./..."), every package in the
// module containing dir (default: the working directory) is analyzed.
// Findings print as "file:line: [analyzer] message" (or as a JSON
// document with -json) and make the exit status 1; load or parse
// failures exit 2, so CI can distinguish "the code has findings" from
// "the tool could not run". Individual findings can be waived with a
// "//gflint:ignore <analyzer> <reason>" comment on or directly above the
// offending line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gigaflow/internal/analysis"
)

// Exit codes: 0 clean, 1 findings, 2 the tool itself failed to run.
const (
	exitFindings = 1
	exitFatal    = 2
)

func main() {
	dir := flag.String("C", ".", "analyze the module containing this directory")
	list := flag.Bool("list", false, "list the analyzers and exit")
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings and coverage as JSON on stdout")
	summary := flag.Bool("summary", false, "print a one-line per-analyzer coverage summary")
	hotcert := flag.String("hotcert", "", "write the HOTPATH.md certification report to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gflint [-C dir] [-list] [-run names] [-json] [-summary] [-hotcert file] [pattern ...]\n\n")
		fmt.Fprintf(os.Stderr, "Runs Gigaflow's invariant checks over every package in the module.\n")
		fmt.Fprintf(os.Stderr, "Patterns other than \"./...\" select module-relative package directories.\n")
		fmt.Fprintf(os.Stderr, "Exit status: 0 clean, 1 findings, 2 load/parse failure.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *runNames != "" {
		var err error
		analyzers, err = analysis.AnalyzersNamed(strings.Split(*runNames, ","))
		if err != nil {
			fatal(err)
		}
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}

	var rels []string
	for _, arg := range flag.Args() {
		if arg == "./..." || arg == "..." {
			rels = nil // whole module
			break
		}
		// Relative patterns are relative to -C, like the go tool's.
		abs := arg
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(*dir, arg)
		}
		abs, err := filepath.Abs(abs)
		if err != nil {
			fatal(err)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			fatal(fmt.Errorf("gflint: %s is outside module %s", arg, root))
		}
		rels = append(rels, rel)
	}

	var prog *analysis.Program
	if len(rels) == 0 {
		prog, err = analysis.LoadModule(root)
	} else {
		prog, err = analysis.LoadDirs(root, rels...)
	}
	if err != nil {
		fatal(err)
	}

	findings := analysis.Run(prog, analyzers)

	if *hotcert != "" {
		if err := os.WriteFile(*hotcert, []byte(analysis.HotpathReport(prog)), 0o644); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		emitJSON(root, prog, analyzers, findings)
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", relName(root, f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
		if *summary {
			printSummary(prog, analyzers, findings)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gflint: %d finding(s)\n", len(findings))
		os.Exit(exitFindings)
	}
}

// jsonReport is gflint's -json document: the findings plus a coverage
// block so CI artifacts show what each analyzer actually looked at.
type jsonReport struct {
	Findings []jsonFinding  `json:"findings"`
	Coverage []jsonCoverage `json:"coverage"`
}

type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonCoverage struct {
	Analyzer string `json:"analyzer"`
	Findings int    `json:"findings"`
	Summary  string `json:"summary,omitempty"`
}

func emitJSON(root string, prog *analysis.Program, analyzers []*analysis.Analyzer, findings []analysis.Finding) {
	rep := jsonReport{Findings: []jsonFinding{}}
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.Analyzer]++
		rep.Findings = append(rep.Findings, jsonFinding{
			File:     relName(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	for _, a := range analyzers {
		cov := jsonCoverage{Analyzer: a.Name, Findings: counts[a.Name]}
		if a.Summary != nil {
			cov.Summary = a.Summary(prog)
		}
		rep.Coverage = append(rep.Coverage, cov)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

func printSummary(prog *analysis.Program, analyzers []*analysis.Analyzer, findings []analysis.Finding) {
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	for _, a := range analyzers {
		status := "ok"
		if n := counts[a.Name]; n > 0 {
			status = fmt.Sprintf("%d finding(s)", n)
		}
		line := fmt.Sprintf("gflint: %-16s %s", a.Name, status)
		if a.Summary != nil {
			line += " — " + a.Summary(prog)
		}
		fmt.Println(line)
	}
}

// relName renders a finding path module-relative when possible.
func relName(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("gflint: no go.mod found above %s", abs)
		}
	}
}

// fatal reports a tool failure — not a finding — and exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(exitFatal)
}
