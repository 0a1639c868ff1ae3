package nic

import "testing"

func TestResourceModel(t *testing.T) {
	proto := EstimateResources(4, 8192)
	if proto.LUTPct != 47 || proto.BRAMPct != 49 || proto.PowerW != 38 {
		t.Errorf("prototype config must reproduce §5's report: %+v", proto)
	}
	if !proto.Feasible {
		t.Error("prototype must be feasible")
	}
	small := EstimateResources(1, 1024)
	if small.LUTPct >= proto.LUTPct || small.PowerW >= proto.PowerW {
		t.Error("smaller cache must cost less")
	}
	huge := EstimateResources(8, 262144)
	if huge.Feasible {
		t.Errorf("8x256K should blow the envelope: %+v", huge)
	}
	if huge.PowerW <= proto.PowerW {
		t.Error("bigger cache must cost more power")
	}
}
