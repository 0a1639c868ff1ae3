package service

import (
	"reflect"
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

// TestCacheChoice: the capacity that is set chooses the main cache. A
// MegaflowCapacity gives every shard a Megaflow cache, the capacity split
// across shards; without one every shard runs Gigaflow, at the 4×8192
// default split when no shape is set; a MegaflowCapacity together with
// any Cache field is refused.
func TestCacheChoice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		cache  string // the main cache every shard runs
		shards []int  // each shard's main-cache capacity
		err    string // error substring; "" means valid
	}{
		{"megaflow capacity set", Config{Workers: 3, MegaflowCapacity: 1000}, "megaflow", []int{334, 333, 333}, ""},
		{"nothing set", Config{Workers: 3}, "gigaflow", []int{4 * 2731, 4 * 2731, 4 * 2730}, ""},
		{"gigaflow shape set", Config{Workers: 2, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256}},
			"gigaflow", []int{3 * 384, 3 * 384}, ""},
		{"megaflow capacity and a shape",
			Config{MegaflowCapacity: 1000, Cache: gigaflow.CacheConfig{TableCapacity: 8192}}, "", nil, "MegaflowCapacity"},
		{"megaflow capacity and a scheme",
			Config{MegaflowCapacity: 1000, Cache: gigaflow.CacheConfig{Scheme: gigaflow.SchemeRandom}}, "", nil, "MegaflowCapacity"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(buildPipeline(), tc.cfg)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want substring %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var shards []int
			for i, w := range s.workers {
				cache, capacity := "megaflow", 0
				if gf := w.vs.Cache(); gf != nil {
					cache, capacity = "gigaflow", gf.Capacity()
				} else {
					capacity = w.vs.Megaflow().Snapshot().Capacity
				}
				if cache != tc.cache {
					t.Errorf("shard %d runs %s, want %s", i, cache, tc.cache)
				}
				shards = append(shards, capacity)
			}
			if !reflect.DeepEqual(shards, tc.shards) {
				t.Errorf("shard capacities %v, want %v", shards, tc.shards)
			}
		})
	}
}
