package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestGolden renders every experiment gigabench lists, and its
// single-configuration report, at reduced scale, and compares each
// against its checked-in output. Seed 1 is deterministic, so any
// difference is a change in what the datapath or the cost model did:
// every hit, miss, entry, coverage and latency figure is pinned to the
// digit. After an intended change, regenerate with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and say in the commit which cells moved and why.
func TestGolden(t *testing.T) {
	p := Params{Seed: 1, NumFlows: 8000, NumChains: 12000}
	check := func(name, got string) {
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s\n--- got\n%s--- want\n%s", name, path, got, want)
		}
	}

	r := &Runner{Params: p}
	for _, id := range IDs {
		tables, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got strings.Builder
		for _, tab := range tables {
			got.WriteString(tab.Render())
			got.WriteByte('\n')
		}
		check(id, got.String())
	}

	// The single-configuration report, twice: gigabench's defaults on PSC
	// with the run's metrics, and the other cache, search, locality and
	// offload choices on OLS with two cores.
	var got strings.Builder
	p.Pipelines = []*pipelines.Spec{pipelines.PSC}
	if err := Report(&got, p, sim.Config{Kind: sim.Gigaflow, Offloaded: true}, traffic.HighLocality, true); err != nil {
		t.Fatal(err)
	}
	p.Pipelines = []*pipelines.Spec{pipelines.OLS}
	mf := sim.Config{Kind: sim.Megaflow, Search: sim.NM, Cores: 2}
	if err := Report(&got, p, mf, traffic.LowLocality, false); err != nil {
		t.Fatal(err)
	}
	check("report", got.String())
}
