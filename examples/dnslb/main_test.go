package main

import (
	"strings"
	"testing"

	"gigaflow"
	"gigaflow/service"
)

// TestScenario pins what the scenario has always produced on both
// backends: every connection costs one slow-path walk per direction
// (2 of 8 packets), the first reply retires the query's memo (one guard
// failure per client) and nothing in the main cache, and the pool hash
// spreads 4000 clients 942/1008/1018/1032.
func TestScenario(t *testing.T) {
	for _, backend := range []service.Backend{service.BackendGigaflow, service.BackendMegaflow} {
		rep, err := run(backend, buildPipeline())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		st := rep.stats
		if st.Packets != 2*rounds*clients || st.TotalHitRate() != 0.75 ||
			st.MicroflowHits*8 != st.Packets*5 ||
			st.CtFastpath != 20000 || st.CtGuardFails != clients || st.CtInvalidated != 0 {
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
		_, err := run(service.BackendGigaflow, p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
