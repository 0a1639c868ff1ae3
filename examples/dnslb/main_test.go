package main

import (
	"strings"
	"testing"

	"gigaflow"
)

// TestScenario pins what the scenario produces on both backends: every
// connection costs one slow-path walk per direction (2 of 8 packets), every
// other packet is served from the result its direction's walk left on the
// connection (6 of 8), none is refused and nothing is invalidated, and
// the pool hash spreads 4000 clients 942/1008/1018/1032.
func TestScenario(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		rep, err := run(backend, buildPipeline())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		st := rep.stats
		if st.Packets != 2*rounds*clients || st.TotalHitRate() != 0.75 ||
			st.MicroflowHits*8 != st.Packets*6 ||
			st.CtFastpath != 24000 || st.CtGuardFails != 0 || st.CtInvalidated != 0 {
			t.Errorf("%s: stats %+v", backend, st)
		}
		if rep.pinned != [poolSize]int{942, 1008, 1018, 1032} {
			t.Errorf("%s: pool distribution %v", backend, rep.pinned)
		}
	}
}

// TestBrokenPipelineFails: a rule that shadows the un-NAT, or one that
// sends a backend's queries out of the wrong port, must fail the run.
func TestBrokenPipelineFails(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		table      int
		match      string
		port       uint16
	}{
		{"no un-NAT", "leaked backend address", 3, "*", clientPort},
		{"wrong egress port", "want backend", 2, "ip_dst=10.20.0.2", 100},
	} {
		p := buildPipeline()
		p.MustAddRule(tc.table, gigaflow.MustParseMatch(tc.match), 99,
			[]gigaflow.Action{gigaflow.Output(tc.port)}, gigaflow.NoTable)
		_, err := run("gigaflow", p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
