package main

import (
	"reflect"
	"testing"

	"gigaflow"
	"gigaflow/internal/experiments"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/traffic"
)

// defaults is the command line with no flags set.
func defaults() options {
	return options{
		seed: 1, flows: 100000, gfTables: 4, gfCap: 8192, mfCap: 32768,
		cache: "gigaflow", scheme: "dp", locality: "high", offload: true, cores: 1,
	}
}

func TestConfigure(t *testing.T) {
	o := defaults()
	o.pipelines, o.cache, o.scheme, o.locality, o.offload, o.cores = "PSC, OLS", "megaflow", "rnd", "low", false, 2
	p, cfg, loc, err := configure(o)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.Params{
		Seed: 1, NumFlows: 100000, GFTables: 4, GFTableCap: 8192, MFCap: 32768,
		Pipelines: []*pipelines.Spec{pipelines.PSC, pipelines.OLS},
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("params %+v, want %+v", p, want)
	}
	wantCfg := sim.Config{
		Cache:            gigaflow.CacheConfig{NumTables: 4, TableCapacity: 8192, Scheme: gigaflow.SchemeRandom, Seed: 1},
		MegaflowCapacity: 32768,
		Cores:            2,
	}
	if cfg != wantCfg || loc != traffic.LowLocality {
		t.Errorf("config %+v %v, want %+v low", cfg, loc, wantCfg)
	}
}

// TestConfigureRefuses: a size the simulator would silently replace, or
// panic on, is a usage error, as an unknown choice is.
func TestConfigureRefuses(t *testing.T) {
	for name, set := range map[string]func(*options){
		"-flows -5":       func(o *options) { o.flows = -5 },
		"-flows 0":        func(o *options) { o.flows = 0 },
		"-gf-tables 0":    func(o *options) { o.gfTables = 0 },
		"-gf-cap -5":      func(o *options) { o.gfCap = -5 },
		"-mf-cap -1":      func(o *options) { o.mfCap = -1 },
		"-cores -3":       func(o *options) { o.cores = -3 },
		"-chains -1":      func(o *options) { o.chains = -1 },
		"-cache nm":       func(o *options) { o.cache = "nm" },
		"-scheme x":       func(o *options) { o.scheme = "x" },
		"-locality mid":   func(o *options) { o.locality = "mid" },
		"-pipelines PSC,": func(o *options) { o.pipelines = "PSC," },
	} {
		o := defaults()
		set(&o)
		if _, _, _, err := configure(o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	o := defaults()
	o.chains = 0
	if _, _, _, err := configure(o); err != nil {
		t.Errorf("-chains 0 (the paper default) refused: %v", err)
	}
}
