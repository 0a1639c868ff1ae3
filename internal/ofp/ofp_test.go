package ofp

import (
	"strings"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/pipelines"
)

// dump is Dump into a string.
func dump(p *pipeline.Pipeline) string {
	var b strings.Builder
	Dump(&b, p) // strings.Builder writes cannot fail
	return b.String()
}

const demo = `
# A miniature L2/L3/ACL program.
pipeline demo
table 0 l2 fields=eth_dst miss=drop
table 1 l3 fields=eth_type,ip_dst miss=goto(2)
table 2 acl fields=ip_proto,tp_dst miss=output(99)

rule table=0 priority=10, eth_dst=02:00:00:00:00:01, actions=goto(1)
rule table=1 priority=20, eth_type=0x0800, ip_dst=10.0.0.0/24, actions=set_field(eth_src=02:aa:00:00:00:01),goto(2)
rule table=2 priority=30, tp_dst=80, actions=output(1)
rule table=2 priority=40, tp_dst=22, actions=drop
`

func TestLoadBasics(t *testing.T) {
	p, err := LoadString(demo)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" || p.NumTables() != 3 || p.NumRules() != 4 {
		t.Fatalf("loaded %s: %d tables, %d rules", p.Name, p.NumTables(), p.NumRules())
	}
	if p.Table(0).Name != "l2" || !p.Table(0).MatchFields.Contains(flow.FieldEthDst) {
		t.Error("table 0 wrong")
	}
	if p.Table(1).MissNext != 2 {
		t.Error("miss goto lost")
	}
	if len(p.Table(2).MissActions) != 1 || p.Table(2).MissActions[0].Type != flow.ActionOutput {
		t.Error("miss output lost")
	}

	// Behaviour end to end.
	k := flow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_dst=10.0.0.5,tp_dst=80")
	tr := p.MustProcess(k)
	if tr.Verdict.Kind != flow.VerdictOutput || tr.Verdict.Port != 1 {
		t.Fatalf("verdict = %v", tr.Verdict)
	}
	if tr.FinalKey().Get(flow.FieldEthSrc) != 0x02aa000000001&^0xF000000000000 { // 02:aa:00:00:00:01
		// Compute expected directly to avoid constant confusion.
		want := flow.MustParseKey("eth_src=02:aa:00:00:00:01").Get(flow.FieldEthSrc)
		if tr.FinalKey().Get(flow.FieldEthSrc) != want {
			t.Errorf("set_field lost: %s", tr.FinalKey())
		}
	}
	if p.MustProcess(k.With(flow.FieldTpDst, 22)).Verdict.Kind != flow.VerdictDrop {
		t.Error("drop rule lost")
	}
	if p.MustProcess(k.With(flow.FieldTpDst, 1234)).Verdict.Port != 99 {
		t.Error("acl miss output lost")
	}
}

func TestRoundTripBehaviour(t *testing.T) {
	orig, err := LoadString(demo)
	if err != nil {
		t.Fatal(err)
	}
	text := dump(orig)
	re, err := LoadString(text)
	if err != nil {
		t.Fatalf("re-load failed: %v\n%s", err, text)
	}
	if re.NumTables() != orig.NumTables() || re.NumRules() != orig.NumRules() {
		t.Fatalf("shape changed: %d/%d tables, %d/%d rules",
			re.NumTables(), orig.NumTables(), re.NumRules(), orig.NumRules())
	}
	keys := []flow.Key{
		flow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_dst=10.0.0.5,tp_dst=80"),
		flow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_dst=10.0.0.5,tp_dst=22"),
		flow.MustParseKey("eth_dst=02:00:00:00:00:01,eth_type=0x0800,ip_dst=10.9.0.5,tp_dst=80"),
		flow.MustParseKey("eth_dst=02:00:00:00:00:09"),
	}
	for _, k := range keys {
		a, b := orig.MustProcess(k), re.MustProcess(k)
		if a.Verdict != b.Verdict || a.FinalKey() != b.FinalKey() {
			t.Fatalf("behaviour diverges for %s: %v vs %v", k, a.Verdict, b.Verdict)
		}
	}
	// Dump must be stable (idempotent on re-loaded pipelines).
	if dump(re) != text {
		t.Error("dump not round-trip stable")
	}
}

func TestRoundTripStandardPipelines(t *testing.T) {
	// The five Table 1 pipeline skeletons survive dump/load.
	for _, spec := range pipelines.All() {
		p := spec.Build()
		p.MustAddRule(spec.Tables[0].ID, flow.MatchAll(), 1, []flow.Action{flow.Drop()}, pipeline.NoTable)
		re, err := LoadString(dump(p))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if re.NumTables() != p.NumTables() || re.NumRules() != p.NumRules() {
			t.Errorf("%s: shape changed", spec.Name)
		}
	}
}

func TestMaskedSetFieldRoundTrip(t *testing.T) {
	p := pipeline.New("m")
	p.AddTable(0, "t", flow.AllFields)
	p.MustAddRule(0, flow.MatchAll(), 1,
		[]flow.Action{flow.SetFieldMasked(flow.FieldIPDst, 0xc0a80000, 0xffff0000), flow.Output(3)}, pipeline.NoTable)
	re, err := LoadString(dump(p))
	if err != nil {
		t.Fatal(err)
	}
	k := flow.MustParseKey("ip_dst=10.1.2.3")
	a, b := p.MustProcess(k), re.MustProcess(k)
	if a.FinalKey() != b.FinalKey() {
		t.Errorf("masked set_field changed: %s vs %s", a.FinalKey(), b.FinalKey())
	}
}

func TestImplicitAllFieldsTable(t *testing.T) {
	p, err := LoadString("table 0 any\nrule table=0 actions=drop\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Table(0).MatchFields != flow.AllFields {
		t.Error("fields should default to all")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		in, wantSub string
	}{
		{"bogus stuff", "unknown statement"},
		{"pipeline p\npipeline q\ntable 0 t", "duplicate pipeline"},
		{"table x t", "bad table id"},
		{"table 0 t\ntable 0 u", "duplicate table"},
		{"table 0 t fields=nosuch", "unknown field"},
		{"table 0 t miss=fly", "bad miss"},
		{"table 0 t\nrule actions=drop", "needs table="},
		{"table 0 t\nrule table=0, tp_dst=80", "needs actions"},
		{"table 0 t\nrule table=0 actions=launch(1)", "unknown action"},
		{"table 0 t\nrule table=0 actions=goto(1),drop", "goto must be the last"},
		{"table 0 t\nrule table=0 actions=goto(7)", "unknown table 7"},
		{"table 0 t\nrule table=0, zork=1, actions=drop", "bad match"},
		{"rule table=0 actions=drop", "rule before any table"},
		{"table 0 t\nrule table=0 priority=zz actions=drop", "bad priority"},
	}
	for _, c := range bad {
		_, err := LoadString(c.in)
		if err == nil {
			t.Errorf("LoadString(%q) should fail", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("LoadString(%q) error %q, want substring %q", c.in, err, c.wantSub)
		}
	}
	if _, err := LoadString(""); err == nil {
		t.Error("empty program should fail")
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := LoadString("pipeline p\ntable 0 t\nrule table=0 actions=warp(1)\n")
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 3 {
		t.Errorf("err = %v, want ParseError on line 3", err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p, err := LoadString("# header\n\npipeline p # trailing\ntable 0 t # comment\nrule table=0 actions=drop # yep\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRules() != 1 {
		t.Error("comment handling broken")
	}
}

const statefulProgram = `
# A stateful VIP load balancer: ct_state classification, a NAT pool,
# and the full stateful action set.
pipeline lb
table 0 classify fields=eth_type,ip_proto,ip_dst,tp_dst,ct_state miss=drop
table 1 rewrite fields=ip_dst miss=drop
table 2 reverse fields=ip_src miss=drop

pool 1 10.20.0.1:8080,10.20.0.2:8080,10.20.0.3:8081

rule table=0 priority=30, eth_type=0x0800, ct_state=0x11/0x31, actions=goto(2)
rule table=0 priority=20, eth_type=0x0800, ip_dst=10.9.0.1, ct_state=0x01/0x31, actions=goto(1)
rule table=1 priority=10, actions=dnat(1),output(2)
rule table=2 priority=10, actions=ct_nat,snat(1),output(1)
`

// TestNATPoolRoundTrip: pool declarations and the stateful actions
// (dnat/snat/ct_nat, ct_state matches) survive load -> dump -> load
// with identical pools and a byte-stable second dump.
func TestNATPoolRoundTrip(t *testing.T) {
	orig, err := LoadString(statefulProgram)
	if err != nil {
		t.Fatal(err)
	}
	pool := orig.NATPool(1)
	if len(pool) != 3 {
		t.Fatalf("pool 1 has %d targets", len(pool))
	}
	if want := flow.MustParseKey("ip_dst=10.20.0.3").Get(flow.FieldIPDst); pool[2].IP != want || pool[2].Port != 8081 {
		t.Fatalf("pool target 2 = %+v", pool[2])
	}

	text := dump(orig)
	re, err := LoadString(text)
	if err != nil {
		t.Fatalf("re-load failed: %v\n%s", err, text)
	}
	if got := re.NATPool(1); len(got) != len(pool) || got[0] != pool[0] || got[2] != pool[2] {
		t.Fatalf("pool changed across round trip: %+v vs %+v", got, pool)
	}
	if len(re.NATPoolIDs()) != 1 || re.NATPoolIDs()[0] != 1 {
		t.Fatalf("pool ids = %v", re.NATPoolIDs())
	}

	// The stateful actions themselves survive: table 1 carries dnat(1),
	// table 2 carries ct_nat then snat(1).
	findActions := func(p *pipeline.Pipeline, table int) []flow.Action {
		for _, r := range p.Table(table).Rules() {
			return r.Actions
		}
		t.Fatalf("table %d has no rules", table)
		return nil
	}
	acts := findActions(re, 1)
	if len(acts) != 2 || acts[0].Type != flow.ActionDNAT || acts[0].Value != 1 {
		t.Fatalf("table 1 actions = %+v", acts)
	}
	acts = findActions(re, 2)
	if len(acts) != 3 || acts[0].Type != flow.ActionCtNAT ||
		acts[1].Type != flow.ActionSNAT || acts[1].Value != 1 {
		t.Fatalf("table 2 actions = %+v", acts)
	}

	if dump(re) != text {
		t.Error("dump not round-trip stable")
	}
}
