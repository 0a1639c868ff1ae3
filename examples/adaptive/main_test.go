package main

import (
	"strings"
	"testing"
)

// TestScenario pins what the scenario produces with the adaptation's
// constant thresholds: zero-sharing traffic leaves the cache degraded,
// the shared service brings it back to partitioning, and the totals are
// the ones the example prints.
func TestScenario(t *testing.T) {
	var out strings.Builder
	if degraded := run(&out); degraded != [2]bool{true, false} {
		t.Errorf("degraded after each phase: %v, want [true false]", degraded)
	}
	const totals = "totals: 2200 traversals installed, 3578 entries created, 314 shared reuses\n"
	if !strings.Contains(out.String(), totals) {
		t.Errorf("output lacks %q:\n%s", totals, out.String())
	}
}
