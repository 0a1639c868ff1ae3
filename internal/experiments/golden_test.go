package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestGolden renders every experiment gigabench lists, at reduced scale,
// and compares each against its checked-in output. Seed 1 is
// deterministic, so any difference is a change in what the datapath or
// the cost model did: every hit, miss, entry, coverage and latency figure
// is pinned to the digit. After an intended change, regenerate with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and say in the commit which cells moved and why.
func TestGolden(t *testing.T) {
	r := &Runner{Params: Params{Seed: 1, NumFlows: 8000, NumChains: 12000}}
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
		path := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s differs from %s\n--- got\n%s--- want\n%s", id, path, got.String(), want)
		}
	}
}
