package main

import (
	"testing"

	"gigaflow"
)

const program = `
pipeline demo
table 0 l2 fields=eth_dst miss=drop
rule table=0 priority=10, eth_dst=02:00:00:00:00:01, actions=output(1)
`

// TestNewSwitchCapacity: -cap is the main cache's total on either
// backend, and a shape no cache can take is a usage error, not a panic.
func TestNewSwitchCapacity(t *testing.T) {
	p, err := gigaflow.LoadPipelineString(program)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := newSwitch(p, options{cache: "gigaflow", tables: 4, capacity: 32768})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := newSwitch(p, options{cache: "megaflow", tables: 4, capacity: 32768})
	if err != nil {
		t.Fatal(err)
	}
	if gf.Cache().Capacity() != 32768 || gf.Cache().NumTables() != 4 || mf.Megaflow().Snapshot().Capacity != 32768 {
		t.Errorf("-cap 32768: gigaflow %d over %d tables, megaflow %d",
			gf.Cache().Capacity(), gf.Cache().NumTables(), mf.Megaflow().Snapshot().Capacity)
	}
	for _, o := range []options{
		{cache: "gigaflow", tables: 0, capacity: 32768},
		{cache: "gigaflow", tables: 4, capacity: 0},
		{cache: "gigaflow", tables: 4, capacity: 3},
		{cache: "megaflow", tables: 4, capacity: -3},
		{cache: "megaflow", tables: 4, capacity: 0},
		{cache: "nm", tables: 4, capacity: 32768},
	} {
		if _, err := newSwitch(p, o); err == nil {
			t.Errorf("%+v accepted", o)
		}
	}
}
