package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the contract this program's output is
// checked against before it is printed.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory (the
// repository root, where the benchmark is run) or its parent (where
// `go test ./bench/` runs).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if errs := s.validateSelf(); len(errs) > 0 {
		return nil, fmt.Errorf("BENCHMARK.json: %s", errs[0])
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSelf checks the limits the benchmark contract puts on the
// specification itself.
func (s *benchSpec) validateSelf() []string {
	var errs []string
	bad := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			bad("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			bad("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
	}
	hasSetup := false
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				bad("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				bad("metric %s: better is %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				bad("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
			}
			if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		bad("no setup_s end-to-end metric")
	}
	return errs
}

// envRecord says where a run's numbers came from. Measured is always
// true: nothing in this benchmark is modeled.
type envRecord struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Measured   bool   `json:"measured"`
}

func currentEnv() envRecord {
	e := envRecord{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Measured: true}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

func (e envRecord) json() string {
	b, err := json.Marshal(e)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// record is one run, as -out appends it and -check/-compare read it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Env       envRecord         `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the record cut down to exactly the four keys the last stdout
// line must have.
func (r *record) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// validate checks one run against the specification: a declared
// workload, exactly the declared metrics for its mode with their declared
// units, every value finite, end-to-end values non-zero.
func (s *benchSpec) validate(r *record) []string {
	var errs []string
	bad := func(format string, a ...any) {
		errs = append(errs, fmt.Sprintf("%s seed %d: ", r.Workload, r.Seed)+fmt.Sprintf(format, a...))
	}
	declared := false
	for _, w := range s.Workloads {
		declared = declared || w.Name == r.Workload
	}
	if !declared {
		bad("workload not declared in BENCHMARK.json")
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		bad("attempted=%d failed=%d", r.Attempted, r.Failed)
	}
	want := s.EndToEnd
	if r.Trace == 1 {
		want = s.PerLayer
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			bad("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			bad("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			bad("metric %s is not finite", m.Name)
		case r.Trace == 0 && got.Value == 0:
			bad("end-to-end metric %s is zero", m.Name)
		}
	}
	if len(r.Metrics) != len(want) {
		for n := range r.Metrics {
			found := false
			for _, m := range want {
				found = found || m.Name == n
			}
			if !found {
				bad("metric %s not declared for trace=%d", n, r.Trace)
			}
		}
	}
	sort.Strings(errs)
	return errs
}

func appendRecord(path string, r *record) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return err
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// checkFile validates every record of a result set and that the set
// covers every declared workload for each mode it contains, so every
// (metric × workload) pair is present.
func checkFile(s *benchSpec, path string, stdout, stderr io.Writer) int {
	recs, err := readRecords(path)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var errs []string
	covered := [2]map[string]bool{{}, {}}
	for i := range recs {
		r := &recs[i]
		errs = append(errs, s.validate(r)...)
		if r.Trace == 0 || r.Trace == 1 {
			covered[r.Trace][r.Workload] = true
		}
	}
	if len(recs) == 0 {
		errs = append(errs, "no records")
	}
	for mode, c := range covered {
		for _, w := range s.Workloads {
			if len(c) > 0 && !c[w.Name] {
				errs = append(errs, fmt.Sprintf("no trace=%d record for workload %s", mode, w.Name))
			}
		}
	}
	for _, e := range errs {
		fmt.Fprintln(stderr, "bench: check:", e)
	}
	if len(errs) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d records ok\n", path, len(recs))
	return 0
}

// sample collects one (workload, metric)'s end-to-end values from a
// result set.
func sample(recs []record, workload, name string) []float64 {
	var v []float64
	for i := range recs {
		if r := &recs[i]; r.Trace == 0 && r.Workload == workload {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise the bounds are judged against. Fewer than two samples
// have no measurable spread.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians, how much worse b is than a, each side's spread and the bound.
// A row is "exceeds" when b is worse than a by more than the bound (and
// by more than the noise), "unresolved" when either side's spread is
// wider than the bound, else "ok". Exit status 1 on any "exceeds".
func compareFiles(s *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\ta\tb\tworse\tspread a\tspread b\tbound\tverdict\t")
	exceeds := 0
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := sample(a, w.Name, m.Name), sample(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t\t\t\t\t\t%.3f\tmissing\t\n", w.Name, m.Name, m.Unit, len(va), len(vb), m.Bound)
				exceeds++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch noise := math.Max(sa, sb); {
			case worse > m.Bound && worse > noise:
				verdict = "exceeds"
				exceeds++
			case noise > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.1f%%\t%s\t\n",
				w.Name, m.Name, m.Unit, len(va), len(vb), ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if exceeds > 0 {
		return 1
	}
	return 0
}
