package service

import (
	"strings"
	"testing"
	"time"

	"gigaflow"
)

// TestConntrackConfigValidation covers the stateful section's contract.
func TestConntrackConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // error substring; "" means valid
	}{
		{"enable ok",
			Config{Conntrack: ConntrackConfig{Enable: true}}, ""},
		{"negative maxconns",
			Config{Conntrack: ConntrackConfig{Enable: true, MaxConns: -1}}, "MaxConns"},
		{"negative ct maxidle",
			Config{Conntrack: ConntrackConfig{Enable: true, MaxIdle: -time.Second}}, "Conntrack.MaxIdle"},
		{"knobs without enable",
			Config{Conntrack: ConntrackConfig{MaxConns: 10}}, "Enable is false"},
		{"ct excludes upcall offload",
			Config{Upcall: UpcallConfig{Workers: 1}, Conntrack: ConntrackConfig{Enable: true}},
			"mutually exclusive"},
		// The idle sweep runs for a ct MaxIdle alone.
		{"expiry driven by ct idle alone",
			Config{Conntrack: ConntrackConfig{Enable: true, MaxIdle: time.Minute}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(buildPipeline(), tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestConntrackDefaults: enabling conntrack without sizing it gets the
// documented default budget, split across workers.
func TestConntrackDefaults(t *testing.T) {
	s, err := New(buildPipeline(), Config{
		Workers:   2,
		Cache:     gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
		Conntrack: ConntrackConfig{Enable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Conntrack.MaxConns != 65536 {
		t.Errorf("default Conntrack.MaxConns = %d, want 65536", s.cfg.Conntrack.MaxConns)
	}
	for i, w := range s.workers {
		if w.vs.Conntrack() == nil {
			t.Fatalf("worker %d has no conntrack table", i)
		}
	}
}
