package tss

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// LookupWildPrecise is LookupWildPreciseInto by value, with a fresh
// scratch: the form these tests read best.
func (c *Classifier[T]) LookupWildPrecise(k flow.Key) (e *Entry[T], wild flow.Mask, probes int) {
	e, probes = c.LookupWildPreciseInto(&k, &wild, &Probed[T]{})
	return e, wild, probes
}

// preciseFixture builds a classifier with nested prefixes and port rules —
// the mixed-priority geometry where minimal-bit unwildcarding matters.
func preciseFixture() *Classifier[int] {
	c := New[int]()
	add := func(m string, prio, val int) {
		c.Insert(&Entry[int]{Match: flow.MustParseMatch(m), Priority: prio, Value: val})
	}
	add("ip_dst=192.168.14.15", 400, 1)
	add("ip_dst=192.168.14.0/24", 300, 2)
	add("ip_dst=192.168.0.0/16", 200, 3)
	add("ip_dst=192.0.0.0/8", 100, 4)
	add("tp_dst=80", 250, 5)
	add("tp_dst=443,ip_proto=6", 350, 6)
	return c
}

func TestLookupWildPreciseSection423Example(t *testing.T) {
	// The paper's §4.2.3 example: a packet for 192.168.21.27 matches the
	// /16 route under /24 and /32 shadows. Tuple-union unwildcarding pins
	// the whole ip_dst; precise unwildcarding needs only the /16 prefix
	// plus a distinguishing bit against each shadowing rule.
	c := preciseFixture()
	k := flow.MustParseKey("ip_dst=192.168.21.27,tp_dst=8080,ip_proto=17")

	eu, wildUnion, _ := c.LookupWild(k)
	ep, wildPrecise, _ := c.LookupWildPrecise(k)
	if eu == nil || ep == nil || eu.Value != 3 || ep.Value != 3 {
		t.Fatalf("both lookups must hit the /16: %v / %v", eu, ep)
	}
	// Union mode: ip_dst fully significant (the /32 tuple was probed).
	if wildUnion[flow.FieldIPDst] != flow.FieldIPDst.MaxValue() {
		t.Fatalf("union wildcard = %s; expected exact ip_dst", wildUnion)
	}
	// Precise mode: strictly fewer significant bits, still covering /16.
	if got, limit := wildPrecise.BitCount(), wildUnion.BitCount(); got >= limit {
		t.Errorf("precise wildcard not wider: %d vs %d significant bits", got, limit)
	}
	if !wildPrecise.Covers(flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 16))) {
		t.Errorf("precise wildcard %s must include the matched /16 mask", wildPrecise)
	}
	// And it must still exclude the shadowed rules' packets.
	m := flow.NewMatch(k, wildPrecise)
	if m.Matches(flow.MustParseKey("ip_dst=192.168.14.15,tp_dst=8080,ip_proto=17")) {
		t.Error("precise megaflow swallows the /32 rule's packet")
	}
	if m.Matches(flow.MustParseKey("ip_dst=192.168.14.99,tp_dst=8080,ip_proto=17")) {
		t.Error("precise megaflow swallows the /24 rule's packets")
	}
}

// TestLookupWildPreciseSoundness mirrors the tuple-union soundness
// property: any key agreeing with k on the precise wildcard's bits must
// classify identically.
func TestLookupWildPreciseSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	masks := []flow.Mask{
		flow.ExactFields(flow.FieldIPDst),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 24)),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 16)),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 8)),
		flow.ExactFields(flow.FieldTpDst),
		flow.ExactFields(flow.FieldIPProto, flow.FieldTpDst),
	}
	randKey := func() flow.Key {
		var k flow.Key
		k = k.With(flow.FieldIPDst, uint64(rng.Intn(4))<<24|uint64(rng.Intn(8))<<16|uint64(rng.Intn(4)))
		k = k.With(flow.FieldIPProto, uint64(rng.Intn(3)))
		k = k.With(flow.FieldTpDst, uint64(rng.Intn(5))*111)
		return k
	}
	c := New[int]()
	for i := 0; i < 300; i++ {
		m := flow.NewMatch(randKey(), masks[rng.Intn(len(masks))])
		c.Insert(&Entry[int]{Match: m, Priority: rng.Intn(60), Value: i})
	}
	for trial := 0; trial < 4000; trial++ {
		k := randKey()
		e, wild, _ := c.LookupWildPrecise(k)
		k2 := k
		for f := flow.FieldID(0); f < flow.NumFields; f++ {
			k2 = k2.WithMasked(f, rng.Uint64(), f.MaxValue()&^wild[f])
		}
		e2, _ := c.Lookup(k2)
		switch {
		case e == nil && e2 != nil:
			t.Fatalf("k=%s missed but covered k2=%s hit %v (wild=%s)", k, k2, e2.Match, wild)
		case e != nil && e2 == nil:
			t.Fatalf("k=%s hit %v but covered k2=%s missed (wild=%s)", k, e.Match, k2, wild)
		case e != nil && e2 != e:
			t.Fatalf("covered key classified to a different entry: %v vs %v (wild=%s)", e.Match, e2.Match, wild)
		}
	}
}

func TestLookupWildPreciseNeverNarrowerThanUnionIsWrong(t *testing.T) {
	// Precise wildcards use a subset of the union's significant bits for
	// the SAME lookup (never more).
	rng := rand.New(rand.NewSource(43))
	c := preciseFixture()
	for trial := 0; trial < 500; trial++ {
		k := flow.Key{}.
			With(flow.FieldIPDst, 0xc0a80000|uint64(rng.Intn(1<<16))).
			With(flow.FieldTpDst, uint64(rng.Intn(1000))).
			With(flow.FieldIPProto, uint64(rng.Intn(3)))
		_, wu, _ := c.LookupWild(k)
		_, wp, _ := c.LookupWildPrecise(k)
		if !wu.Covers(wp) {
			t.Fatalf("precise wildcard %s has bits outside union %s", wp, wu)
		}
	}
}

func TestLookupWildPreciseOnMiss(t *testing.T) {
	c := preciseFixture()
	k := flow.MustParseKey("ip_dst=10.9.9.9,tp_dst=9999") // misses everything
	e, wild, _ := c.LookupWildPrecise(k)
	if e != nil {
		t.Fatalf("expected miss, got %v", e)
	}
	// A miss megaflow must exclude every rule: no rule's packet may agree
	// with k on wild's bits.
	m := flow.NewMatch(k, wild)
	for _, probe := range []string{
		"ip_dst=192.168.14.15", "ip_dst=192.168.14.1", "ip_dst=192.168.1.1",
		"ip_dst=192.1.1.1", "tp_dst=80", "tp_dst=443,ip_proto=6",
	} {
		pk := flow.MustParseKey(probe)
		if m.Matches(pk) {
			if e2, _ := c.Lookup(pk); e2 != nil {
				t.Errorf("miss megaflow %s covers %s which hits %v", m, probe, e2.Match)
			}
		}
	}
	if e2, _ := c.Lookup(flow.MustParseKey("ip_dst=10.9.9.8,tp_dst=9999")); e2 != nil {
		t.Error("sanity: nearby key should also miss")
	}
}

func TestLookupWildPreciseEmptyClassifier(t *testing.T) {
	c := New[int]()
	e, wild, probes := c.LookupWildPrecise(flow.MustParseKey("tp_dst=80"))
	if e != nil || !wild.IsEmpty() || probes != 0 {
		t.Errorf("empty classifier: %v %s %d", e, wild, probes)
	}
}
