// Package analysis is gflint's engine: a stdlib-only static-analysis
// driver (go/ast, go/parser, go/types — no x/tools) that loads every
// package in the module and runs a suite of project-specific analyzers
// enforcing Gigaflow's hot-path, concurrency, determinism and dead-code
// invariants.
//
// The invariants it checks live at the heart of the paper's results: the
// packet fast path must stay allocation-free (hotalloc), worker counters
// must never mix atomic and plain access (atomicmix), locks must be
// released on every path and never held across channel operations
// (lockdiscipline), simulation code must draw randomness only from
// injected seeded sources so runs replay bit-for-bit (detrand), and every
// declaration must be reached by shipped code or another package's test
// (deadcode).
//
// Individual findings can be waived inline with
//
//	//gflint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a directive without one is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in gflint's output format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Reporter emits findings during an analyzer run.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one named check over a loaded program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, report Reporter)
	// Summary, when non-nil, describes what the analyzer covered in prog
	// in a short clause ("47 hot functions"), for gflint's per-analyzer
	// summary lines and the -json coverage block.
	Summary func(prog *Program) string
}

// Analyzers returns the full gflint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotAlloc, HotCall, GoroLeak, AtomicMix, LockDiscipline, DetRand, DeadCode}
}

// AnalyzersNamed selects analyzers from the suite by name.
func AnalyzersNamed(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the program, applies //gflint:ignore
// suppressions, and returns the surviving findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		a := a
		report := func(pos token.Pos, format string, args ...any) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Pos:      prog.Fset.Position(pos),
				Message:  fmt.Sprintf(format, args...),
			})
		}
		a.Run(prog, report)
	}
	sup, bad := collectSuppressions(prog, analyzers)
	findings = append(findings, bad...)
	kept := findings[:0]
	for _, f := range findings {
		if sup.covers(f) {
			continue
		}
		kept = append(kept, f)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// suppressions maps file:line to the set of analyzer names waived there.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(file string, line int, analyzer string) {
	byLine := s[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	names := byLine[line]
	if names == nil {
		names = make(map[string]bool)
		byLine[line] = names
	}
	names[analyzer] = true
}

// covers reports whether a directive on the finding's line or the line
// directly above waives it.
func (s suppressions) covers(f Finding) bool {
	byLine := s[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if byLine[line][f.Analyzer] {
			return true
		}
	}
	return false
}

const ignoreDirective = "gflint:ignore"

// collectSuppressions scans every file's comments for ignore directives.
// Malformed directives (missing analyzer or reason, or naming an analyzer
// that does not exist) are returned as findings of the pseudo-analyzer
// "gflint" so typos never silently waive real diagnostics.
func collectSuppressions(prog *Program, analyzers []*Analyzer) (suppressions, []Finding) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := make(suppressions)
	var bad []Finding
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, ignoreDirective) {
						continue
					}
					pos := prog.Fset.Position(c.Slash)
					fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
					switch {
					case len(fields) < 2:
						bad = append(bad, Finding{Analyzer: "gflint", Pos: pos,
							Message: "malformed //gflint:ignore: want \"//gflint:ignore <analyzer> <reason>\""})
					case !known[fields[0]]:
						bad = append(bad, Finding{Analyzer: "gflint", Pos: pos,
							Message: fmt.Sprintf("//gflint:ignore names unknown analyzer %q", fields[0])})
					default:
						sup.add(pos.Filename, pos.Line, fields[0])
					}
				}
			}
		}
	}
	return sup, bad
}

// hasDirective reports whether any comment in the group carries the given
// standalone directive (e.g. "//gf:hotpath"), optionally followed by text.
func hasDirective(group *ast.CommentGroup, directive string) bool {
	ok, _ := directiveText(group, directive)
	return ok
}

// directiveText reports whether the comment group carries the directive,
// and the trimmed text following it (the reason for directives that
// require one).
func directiveText(group *ast.CommentGroup, directive string) (bool, string) {
	if group == nil {
		return false, ""
	}
	for _, c := range group.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == directive {
			return true, ""
		}
		if rest, ok := strings.CutPrefix(text, directive+" "); ok {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}
