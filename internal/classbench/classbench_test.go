package classbench

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

func TestGenerateCountAndUniqueness(t *testing.T) {
	for _, pers := range []Personality{ACL, FW, IPC} {
		rules := Generate(Config{Personality: pers, Seed: 1, NumRules: 5000})
		if len(rules) != 5000 {
			t.Fatalf("%v: generated %d rules", pers, len(rules))
		}
		seen := make(map[flow.Match]bool)
		for _, r := range rules {
			if seen[r.Match] {
				t.Fatalf("%v: duplicate rule %v", pers, r.Match)
			}
			seen[r.Match] = true
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Personality: ACL, Seed: 7, NumRules: 1000})
	b := Generate(Config{Personality: ACL, Seed: 7, NumRules: 1000})
	for i := range a {
		if !a[i].Match.Equal(b[i].Match) || a[i].Priority != b[i].Priority {
			t.Fatalf("rule %d differs across runs", i)
		}
	}
	c := Generate(Config{Personality: ACL, Seed: 8, NumRules: 1000})
	same := 0
	for i := range a {
		if a[i].Match.Equal(c[i].Match) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical rulesets")
	}
}

func TestRulesUseFiveTupleOnly(t *testing.T) {
	rules := Generate(Config{Personality: ACL, Seed: 2, NumRules: 2000})
	allowed := flow.NewFieldSet(TupleFields...)
	for _, r := range rules {
		if extra := r.Match.Fields().Intersect(allowed ^ flow.AllFields); !extra.Empty() {
			t.Fatalf("rule constrains non-5-tuple fields %v: %v", extra, r.Match)
		}
		if !r.Match.Fields().Contains(flow.FieldIPDst) {
			t.Fatalf("rule must constrain ip_dst: %v", r.Match)
		}
	}
}

func TestMoreSpecificRulesRankHigher(t *testing.T) {
	rules := Generate(Config{Personality: ACL, Seed: 3, NumRules: 2000})
	for _, r := range rules {
		base := r.Match.Mask.BitCount() * 1000
		if r.Priority < base || r.Priority >= base+1000 {
			t.Fatalf("priority %d inconsistent with %d mask bits", r.Priority, r.Match.Mask.BitCount())
		}
	}
}

func TestSharingCurveShape(t *testing.T) {
	// The Figure 4 property: sharing increases monotonically as the
	// sub-tuple shrinks, with near-unique full 5-tuples and sub-tuple
	// sharing orders of magnitude higher at k=1.
	rules := Generate(Config{Personality: ACL, Seed: 4, NumRules: 20000})
	sh := Sharing(rules)
	for k := 1; k < 5; k++ {
		if sh[k] < sh[k+1] {
			t.Errorf("sharing not monotone: sh[%d]=%.2f < sh[%d]=%.2f", k, sh[k], k+1, sh[k+1])
		}
	}
	if sh[5] > 3 {
		t.Errorf("full 5-tuple sharing = %.2f, want ~1", sh[5])
	}
	if sh[1] < 50 {
		t.Errorf("single-field sharing = %.2f, want ≫ 1", sh[1])
	}
}

func TestRuleWeightsFavorSharedTuples(t *testing.T) {
	rules := Generate(Config{Personality: ACL, Seed: 5, NumRules: 5000})
	w := RuleWeights(rules)
	if len(w) != len(rules) {
		t.Fatalf("weights length %d", len(w))
	}
	var min, max float64
	min, max = w[0], w[0]
	for _, x := range w {
		if x <= 0 {
			t.Fatal("weights must be positive")
		}
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max <= min {
		t.Error("weights should be skewed, all equal")
	}
}

func TestSampleKeyMatchesItsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rules := Generate(Config{Personality: FW, Seed: 6, NumRules: 3000})
	for _, r := range rules {
		for i := 0; i < 3; i++ {
			k := SampleKey(r, rng)
			if !r.Match.Matches(k) {
				t.Fatalf("sampled key %s does not match its rule %v", k, r.Match)
			}
			if k.Get(flow.FieldEthType) != 0x0800 {
				t.Fatal("sampled key must be IPv4")
			}
		}
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	if rules := Generate(Config{NumRules: 0}); rules != nil {
		t.Error("zero rules should yield nil")
	}
	rules := Generate(Config{Personality: IPC, Seed: 1, NumRules: 1})
	if len(rules) != 1 {
		t.Errorf("got %d", len(rules))
	}
	if Personality(9).String() == "" {
		t.Error("unknown personality string")
	}
}
