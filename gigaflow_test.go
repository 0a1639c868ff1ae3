package gigaflow

import (
	"reflect"
	"testing"
)

// buildDemoPipeline creates the facade-level L2→L3→L4 pipeline used across
// the public API tests.
func buildDemoPipeline() *Pipeline {
	p := NewPipeline("demo")
	p.AddTable(0, "l2", NewFieldSet(FieldEthDst))
	p.AddTable(1, "l3", NewFieldSet(FieldIPDst))
	p.AddTable(2, "l4", NewFieldSet(FieldTpDst))
	p.MustAddRule(0, MustParseMatch("eth_dst=02:00:00:00:00:01"), 10, nil, 1)
	p.MustAddRule(1, MustParseMatch("ip_dst=10.0.0.0/24"), 10,
		[]Action{SetField(FieldEthSrc, 0x02aa)}, 2)
	p.MustAddRule(2, MustParseMatch("tp_dst=80"), 10, []Action{Output(1)}, NoTable)
	p.MustAddRule(2, MustParseMatch("tp_dst=22"), 20, []Action{Drop()}, NoTable)
	return p
}

func demoKey(ipLow, port uint64) Key {
	return MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800").
		With(FieldIPDst, 0x0a000000|ipLow).
		With(FieldTpDst, port)
}

func TestVSwitchEndToEnd(t *testing.T) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})

	// First packet: slowpath.
	r1, err := vs.Process(demoKey(1, 80), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("cold cache cannot hit")
	}
	if r1.Verdict.Kind != 1 /* output */ || r1.Verdict.Port != 1 {
		t.Fatalf("verdict = %v", r1.Verdict)
	}

	// Second packet of the same megaflow: cache hit with identical result.
	r2, err := vs.Process(demoKey(2, 80), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("expected cache hit")
	}
	if r2.Verdict != r1.Verdict {
		t.Error("cache verdict diverges")
	}
	if r2.Final.Get(FieldEthSrc) != 0x02aa {
		t.Error("rewrite lost through the cache")
	}

	st := vs.Stats()
	if st.Packets != 2 || st.CacheHits != 1 || st.Slowpath != 1 || st.Installs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %v", st.HitRate())
	}
	if vs.CacheEntries() == 0 || vs.Coverage() == 0 {
		t.Error("cache should be populated")
	}
	if vs.Pipeline() == nil || vs.Cache() == nil {
		t.Error("accessors broken")
	}
}

func TestVSwitchCrossProductSharing(t *testing.T) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})
	if _, err := vs.Process(demoKey(1, 80), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := vs.Process(demoKey(2, 22), 1); err != nil {
		t.Fatal(err)
	}
	// A flow combining the first flow's port with fresh bits must hit via
	// shared sub-traversals.
	r, err := vs.Process(demoKey(99, 22), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("cross-product flow should hit")
	}
	if r.Verdict.Kind != 2 /* drop */ {
		t.Errorf("verdict = %v", r.Verdict)
	}
}

func TestVSwitchMegaflowBackend(t *testing.T) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithMegaflowBackend(128))
	if vs.Cache() != nil {
		t.Fatal("megaflow backend should disable the gigaflow cache")
	}
	if _, err := vs.Process(demoKey(1, 80), 0); err != nil {
		t.Fatal(err)
	}
	r, err := vs.Process(demoKey(2, 80), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("megaflow backend should hit within the wildcard")
	}
	if vs.Coverage() != uint64(vs.CacheEntries()) {
		t.Error("megaflow coverage must equal entries")
	}
}

func TestVSwitchRevalidation(t *testing.T) {
	p := buildDemoPipeline()
	vs := NewVSwitch(p, CacheConfig{NumTables: 3, TableCapacity: 64})
	if _, err := vs.Process(demoKey(1, 80), 0); err != nil {
		t.Fatal(err)
	}
	// Repoint the HTTP rule at a new port; the stale sub-traversal must go.
	old := p.Table(2).Rules()[1] // priority 10 = tp_dst 80 (22 has prio 20)
	if !p.DeleteRule(old) {
		t.Fatal("delete failed")
	}
	p.MustAddRule(2, MustParseMatch("tp_dst=80"), 10, []Action{Output(7)}, NoTable)

	evicted, work := vs.Revalidate()
	if evicted != 1 || work == 0 {
		t.Fatalf("evicted=%d work=%d", evicted, work)
	}
	r, err := vs.Process(demoKey(1, 80), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Error("stale entry served after revalidation")
	}
	if r.Verdict.Port != 7 {
		t.Errorf("new rule not in effect: %v", r.Verdict)
	}
}

func TestVSwitchIdleExpiry(t *testing.T) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithMaxIdle(100))
	if _, err := vs.Process(demoKey(1, 80), 0); err != nil {
		t.Fatal(err)
	}
	if n := vs.ExpireIdle(50); n != 0 {
		t.Errorf("premature expiry: %d", n)
	}
	if n := vs.ExpireIdle(500); n == 0 {
		t.Error("stale entries must expire")
	}
	// Without WithMaxIdle it is a no-op.
	vs2 := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64})
	vs2.Process(demoKey(1, 80), 0)
	if vs2.ExpireIdle(1<<60) != 0 {
		t.Error("expiry without max-idle must be a no-op")
	}
}

func TestVSwitchMicroflowTier(t *testing.T) {
	vs := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 3, TableCapacity: 64},
		WithMicroflow(128))
	// First packet: slowpath, memoized.
	if _, err := vs.Process(demoKey(1, 80), 0); err != nil {
		t.Fatal(err)
	}
	// Exact repeat: microflow hit.
	r, err := vs.Process(demoKey(1, 80), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MicroflowHit || !r.CacheHit {
		t.Errorf("expected microflow hit: %+v", r)
	}
	// Same megaflow, different host: main cache hit, then memoized.
	r, err = vs.Process(demoKey(2, 80), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.MicroflowHit || !r.CacheHit {
		t.Errorf("expected main-cache hit: %+v", r)
	}
	r, _ = vs.Process(demoKey(2, 80), 3)
	if !r.MicroflowHit {
		t.Error("second exact packet should hit microflow")
	}
	st := vs.Stats()
	// Tiers are disjoint: 4 packets = 2 microflow hits + 1 main-cache hit
	// + 1 miss.
	if st.MicroflowHits != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5 (main cache only)", got)
	}
	if got := st.TotalHitRate(); got != 0.75 {
		t.Errorf("TotalHitRate = %v, want 0.75 (any cache tier)", got)
	}
	// Rule change: revalidation must also flush the microflow tier.
	p := vs.Pipeline()
	old := p.Table(2).Rules()[1]
	p.DeleteRule(old)
	p.MustAddRule(2, MustParseMatch("tp_dst=80"), 10, []Action{Output(7)}, NoTable)
	vs.Revalidate()
	r, err = vs.Process(demoKey(1, 80), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.MicroflowHit {
		t.Error("stale microflow entry served after revalidation")
	}
	if r.Verdict.Port != 7 {
		t.Errorf("new rule not in effect: %v", r.Verdict)
	}
}

// TestVSwitchStatsAddSub sets every counter to a distinct value through
// reflection: a counter added to the struct but not to its field list is
// silently zero in the service's per-shard sum, a replay's delta and the
// simulator's per-packet charge, and fails here.
func TestVSwitchStatsAddSub(t *testing.T) {
	var a, b VSwitchStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if k := av.Field(i).Kind(); k != reflect.Uint64 {
			t.Fatalf("%s is a %s: Add and Sub carry uint64 counters only", av.Type().Field(i).Name, k)
		}
		av.Field(i).SetUint(uint64(100 * (i + 1)))
		bv.Field(i).SetUint(uint64(i + 1))
	}
	sum, diff := reflect.ValueOf(a.Add(b)), reflect.ValueOf(a.Sub(b))
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := sum.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Add leaves %s at %d, want %d", name, got, want)
		}
		if got, want := diff.Field(i).Uint(), uint64(99*(i+1)); got != want {
			t.Errorf("Sub leaves %s at %d, want %d", name, got, want)
		}
	}
	if a.Packets != 100 || b.Packets != 1 {
		t.Errorf("Add or Sub wrote through to an operand: %+v, %+v", a, b)
	}
}
