package flow

import (
	"strings"
	"testing"
)

func TestFieldWidthsAndMax(t *testing.T) {
	cases := []struct {
		f     FieldID
		width uint
		max   uint64
	}{
		{FieldInPort, 16, 0xffff},
		{FieldEthSrc, 48, 0xffffffffffff},
		{FieldEthDst, 48, 0xffffffffffff},
		{FieldEthType, 16, 0xffff},
		{FieldIPSrc, 32, 0xffffffff},
		{FieldIPDst, 32, 0xffffffff},
		{FieldIPProto, 8, 0xff},
		{FieldTpSrc, 16, 0xffff},
		{FieldTpDst, 16, 0xffff},
		{FieldMeta, 16, 0xffff},
	}
	for _, c := range cases {
		if got := c.f.Width(); got != c.width {
			t.Errorf("%s.Width() = %d, want %d", c.f, got, c.width)
		}
		if got := c.f.MaxValue(); got != c.max {
			t.Errorf("%s.MaxValue() = %#x, want %#x", c.f, got, c.max)
		}
	}
}

func TestFieldByName(t *testing.T) {
	for f := FieldID(0); f < NumFields; f++ {
		got, ok := FieldByName(f.String())
		if !ok || got != f {
			t.Errorf("FieldByName(%q) = %v, %v; want %v, true", f.String(), got, ok, f)
		}
	}
	if _, ok := FieldByName("vlan_vid"); ok {
		t.Error("FieldByName accepted unknown field")
	}
}

func TestFieldSetOps(t *testing.T) {
	s := NewFieldSet(FieldIPDst, FieldTpDst)
	if !s.Contains(FieldIPDst) || !s.Contains(FieldTpDst) || s.Contains(FieldIPSrc) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	o := NewFieldSet(FieldTpDst, FieldTpSrc)
	if !s.Overlaps(o) {
		t.Error("expected overlap via tp_dst")
	}
	if s.Overlaps(NewFieldSet(FieldEthSrc)) {
		t.Error("unexpected overlap with eth_src")
	}
	u := s.Union(o)
	if u.Len() != 3 {
		t.Errorf("union Len = %d, want 3", u.Len())
	}
	if got := s.Intersect(o); got != NewFieldSet(FieldTpDst) {
		t.Errorf("intersect = %v, want {tp_dst}", got)
	}
	if got := s.Remove(FieldIPDst); got != NewFieldSet(FieldTpDst) {
		t.Errorf("remove = %v", got)
	}
	if !FieldSet(0).Empty() || s.Empty() {
		t.Error("Empty() wrong")
	}
	if AllFields.Len() != NumFields {
		t.Errorf("AllFields.Len() = %d, want %d", AllFields.Len(), NumFields)
	}
	fields := u.Fields()
	if len(fields) != 3 {
		t.Fatalf("Fields() returned %d members", len(fields))
	}
	for i := 1; i < len(fields); i++ {
		if fields[i] <= fields[i-1] {
			t.Errorf("Fields() not in canonical order: %v", fields)
		}
	}
}

func TestKeyWithTruncates(t *testing.T) {
	var k Key
	k = k.With(FieldIPProto, 0x1ff) // 9 bits into an 8-bit field
	if k.Get(FieldIPProto) != 0xff {
		t.Errorf("With did not truncate: %#x", k.Get(FieldIPProto))
	}
}

func TestKeyWithMasked(t *testing.T) {
	k := MustParseKey("ip_dst=10.1.2.3")
	k = k.WithMasked(FieldIPDst, MustParseKey("ip_dst=192.168.0.0").Get(FieldIPDst), PrefixMask(FieldIPDst, 16))
	want := MustParseKey("ip_dst=192.168.2.3")
	if k != want {
		t.Errorf("WithMasked = %s, want %s", k, want)
	}
}

func TestPrefixMask(t *testing.T) {
	if got := PrefixMask(FieldIPDst, 24); got != 0xffffff00 {
		t.Errorf("/24 = %#x", got)
	}
	if got := PrefixMask(FieldIPDst, 0); got != 0 {
		t.Errorf("/0 = %#x", got)
	}
	if got := PrefixMask(FieldIPDst, 32); got != 0xffffffff {
		t.Errorf("/32 = %#x", got)
	}
	if got := PrefixMask(FieldIPDst, 99); got != 0xffffffff {
		t.Errorf("/99 should clamp: %#x", got)
	}
}

func TestMaskOps(t *testing.T) {
	a := ExactFields(FieldEthSrc, FieldEthDst)
	b := ExactFields(FieldEthDst, FieldIPDst)
	u := a.Union(b)
	if u.Fields() != NewFieldSet(FieldEthSrc, FieldEthDst, FieldIPDst) {
		t.Errorf("union fields = %v", u.Fields())
	}
	if !u.Covers(a) || !u.Covers(b) || a.Covers(u) {
		t.Error("Covers wrong")
	}
	if FullMask().BitCount() != 16+48+48+16+32+32+8+16+16+16+8 {
		t.Errorf("FullMask BitCount = %d", FullMask().BitCount())
	}
	if HeaderFields.Contains(FieldMeta) || HeaderFields.Contains(FieldCtState) ||
		HeaderFields.Len() != NumFields-2 {
		t.Error("HeaderFields must exclude only metadata and ct_state")
	}
	if !EmptyMask.IsEmpty() || FullMask().IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestMatchBasics(t *testing.T) {
	m := MustParseMatch("eth_type=0x0800,ip_dst=10.0.0.0/24")
	hit := MustParseKey("eth_type=0x0800,ip_dst=10.0.0.42,tp_dst=443")
	miss := MustParseKey("eth_type=0x0800,ip_dst=10.0.1.42")
	if !m.MatchesKey(&hit) {
		t.Errorf("%s should match %s", m, hit)
	}
	if m.MatchesKey(&miss) {
		t.Errorf("%s should not match %s", m, miss)
	}
	if m.Mask.Fields() != NewFieldSet(FieldEthType, FieldIPDst) {
		t.Errorf("Fields = %v", m.Mask.Fields())
	}
	if all := MatchAll(); !all.MatchesKey(&hit) {
		t.Error("MatchAll should match anything")
	}
}

func TestMatchNormalization(t *testing.T) {
	// Key bits outside the mask must be canonicalized away.
	k := MustParseKey("ip_dst=10.0.0.99")
	m := NewMatch(k, Mask{}.With(FieldIPDst, PrefixMask(FieldIPDst, 24)))
	if m.Key.Get(FieldIPDst) != MustParseKey("ip_dst=10.0.0.0").Get(FieldIPDst) {
		t.Errorf("not normalized: %s", m)
	}
	m2 := NewMatch(MustParseKey("ip_dst=10.0.0.1"), m.Mask)
	if !m.EqualTo(&m2) {
		t.Error("predicates equal under mask must compare Equal")
	}
}

func TestExactMatch(t *testing.T) {
	k := MustParseKey("in_port=3,eth_type=0x0800,ip_src=1.2.3.4")
	m := ExactMatch(k)
	if !m.MatchesKey(&k) {
		t.Error("exact match must match its own key")
	}
	if k2 := k.With(FieldTpSrc, 1); m.MatchesKey(&k2) {
		t.Error("exact match must reject any differing bit")
	}
}

func TestApplyActions(t *testing.T) {
	k := MustParseKey("ip_dst=10.0.0.1,tp_dst=80")
	acts := []Action{
		SetField(FieldIPDst, MustParseKey("ip_dst=192.168.1.1").Get(FieldIPDst)),
		Output(7),
		SetField(FieldTpDst, 9999), // must be ignored after terminal
	}
	out, v := Apply(k, acts)
	if v.Kind != VerdictOutput || v.Port != 7 {
		t.Fatalf("verdict = %v", v)
	}
	if out.Get(FieldIPDst) != MustParseKey("ip_dst=192.168.1.1").Get(FieldIPDst) {
		t.Error("set-field not applied")
	}
	if out.Get(FieldTpDst) != 80 {
		t.Error("action after terminal executed")
	}

	_, v = Apply(k, []Action{Drop()})
	if v.Kind != VerdictDrop {
		t.Errorf("drop verdict = %v", v)
	}
	_, v = Apply(k, []Action{SetField(FieldTpSrc, 1)})
	if v.Terminal() {
		t.Error("set-field alone must not be terminal")
	}
}

func TestSetFieldMasked(t *testing.T) {
	k := MustParseKey("ip_dst=10.1.2.3")
	a := SetFieldMasked(FieldIPDst, MustParseKey("ip_dst=172.16.0.0").Get(FieldIPDst), PrefixMask(FieldIPDst, 12))
	out, _ := Apply(k, []Action{a})
	// Top 12 bits replaced with 172.16's, rest kept: 172.17.2.3
	// 10.1.2.3 = 0x0A010203; low 20 bits = 0x10203. 172.16/12 top = 0xAC1.
	want := MustParseKey("ip_dst=172.17.2.3")
	if out != want {
		t.Errorf("masked set = %s, want %s", out, want)
	}
}

func TestActionsEqual(t *testing.T) {
	a := []Action{SetField(FieldEthDst, 1), Output(2)}
	b := []Action{SetField(FieldEthDst, 1), Output(2)}
	c := []Action{SetField(FieldEthDst, 1), Output(3)}
	if !ActionsEqual(a, b) || ActionsEqual(a, c) || ActionsEqual(a, a[:1]) {
		t.Error("ActionsEqual wrong")
	}
}

func TestParseFormatsRoundTrip(t *testing.T) {
	cases := []string{
		"eth_type=0x0800,ip_dst=10.0.0.0/24",
		"eth_src=aa:bb:cc:dd:ee:ff",
		"in_port=3,tp_dst=443",
		"ip_src=192.168.0.0/16,ip_proto=6",
		"*",
	}
	for _, s := range cases {
		m, err := ParseMatch(s)
		if err != nil {
			t.Fatalf("ParseMatch(%q): %v", s, err)
		}
		m2, err := ParseMatch(m.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", m.String(), s, err)
		}
		if !m.EqualTo(&m2) {
			t.Errorf("round trip changed %q -> %q", s, m2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"nosuchfield=1",
		"ip_dst",
		"ip_dst=10.0.0.0/zz",
		"tp_dst=70000", // overflows 16 bits
		"eth_src=aa:bb:cc",
		"ip_dst=1.2.3.4.5",
	}
	for _, s := range bad {
		if _, err := ParseMatch(s); err == nil {
			t.Errorf("ParseMatch(%q) should fail", s)
		}
	}
	if _, err := ParseKey("eth_src=zz:bb:cc:dd:ee:ff"); err == nil {
		t.Error("ParseKey bad MAC should fail")
	}
}

func TestValueFormatting(t *testing.T) {
	if got := FormatValue(FieldIPDst, 0x0a000001); got != "10.0.0.1" {
		t.Errorf("ip fmt = %q", got)
	}
	if got := FormatValue(FieldEthSrc, 0xaabbccddeeff); got != "aa:bb:cc:dd:ee:ff" {
		t.Errorf("mac fmt = %q", got)
	}
	if got := FormatValue(FieldEthType, 0x800); got != "0x0800" {
		t.Errorf("ethtype fmt = %q", got)
	}
	if got := FormatValue(FieldTpDst, 443); got != "443" {
		t.Errorf("port fmt = %q", got)
	}
}

func TestMatchStringPrefixNotation(t *testing.T) {
	m := MustParseMatch("ip_dst=10.0.0.0/24")
	if !strings.Contains(m.String(), "/24") {
		t.Errorf("prefix notation lost: %q", m.String())
	}
	if got := MatchAll().String(); got != "*" {
		t.Errorf("MatchAll string = %q", got)
	}
}

func TestVerdictString(t *testing.T) {
	if (Verdict{Kind: VerdictOutput, Port: 5}).String() != "output(5)" {
		t.Error("output verdict string")
	}
	if (Verdict{Kind: VerdictDrop}).String() != "drop" {
		t.Error("drop verdict string")
	}
	if (Verdict{}).String() != "continue" {
		t.Error("none verdict string")
	}
}

// TestSymHash: the symmetric flow hash must be invariant under endpoint
// reversal (both directions of a conversation shard to the same
// worker), sensitive to everything else, and must agree with itself on
// already-canonical tuples.
func TestSymHash(t *testing.T) {
	mk := func(ipSrc, ipDst, tpSrc, tpDst, proto uint64) Key {
		var k Key
		return k.With(FieldIPSrc, ipSrc).With(FieldIPDst, ipDst).
			With(FieldTpSrc, tpSrc).With(FieldTpDst, tpDst).
			With(FieldIPProto, proto)
	}
	fwd := mk(0x0a000001, 0x0a000002, 4000, 443, 6)
	rev := mk(0x0a000002, 0x0a000001, 443, 4000, 6)
	if fwd.SymHash() != rev.SymHash() {
		t.Fatal("SymHash not symmetric under endpoint reversal")
	}
	if fwd.FlowHash() == rev.FlowHash() {
		t.Fatal("FlowHash unexpectedly symmetric — SymHash would be redundant")
	}

	// Same addresses, swapped ports only: a DIFFERENT conversation, and
	// the ordering canonicalizes on (ip, port) pairs, so it must not
	// collide with fwd by construction.
	cross := mk(0x0a000001, 0x0a000002, 443, 4000, 6)
	if cross.SymHash() == fwd.SymHash() {
		t.Error("distinct conversations collide")
	}
	// Equal IPs: ports alone decide the canonical order.
	p1 := mk(7, 7, 100, 200, 17)
	p2 := mk(7, 7, 200, 100, 17)
	if p1.SymHash() != p2.SymHash() {
		t.Error("equal-IP reversal not symmetric")
	}
	// Sensitivity: protocol and each endpoint perturb the hash.
	udp := fwd.With(FieldIPProto, 17)
	if fwd.SymHash() == udp.SymHash() {
		t.Error("insensitive to protocol")
	}
	moved := fwd.With(FieldIPDst, 0x0a000003)
	if fwd.SymHash() == moved.SymHash() {
		t.Error("insensitive to address")
	}
	// Fields outside the 5-tuple must not matter (hash feeds sharding
	// before any rewrite).
	dressed := fwd.With(FieldEthSrc, 42).With(FieldMeta, 9)
	if fwd.SymHash() != dressed.SymHash() {
		t.Error("non-tuple fields leak into SymHash")
	}
}
