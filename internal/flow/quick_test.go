package flow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate lets testing/quick produce structurally valid keys (values
// truncated to field widths).
func (Key) Generate(r *rand.Rand, _ int) reflect.Value {
	var k Key
	for f := FieldID(0); f < NumFields; f++ {
		k.Set(f, r.Uint64())
	}
	return reflect.ValueOf(k)
}

// Generate produces structurally valid masks.
func (Mask) Generate(r *rand.Rand, _ int) reflect.Value {
	var m Mask
	for f := FieldID(0); f < NumFields; f++ {
		switch r.Intn(4) {
		case 0: // wildcard
		case 1: // exact
			m = m.WithField(f)
		case 2: // prefix
			m = m.With(f, PrefixMask(f, uint(r.Intn(int(f.Width())+1))))
		case 3: // arbitrary ternary
			m = m.With(f, r.Uint64())
		}
	}
	return reflect.ValueOf(m)
}

var quickCfg = &quick.Config{MaxCount: 2000}

func TestQuickMatchAfterApplyMask(t *testing.T) {
	// A key always satisfies the match constructed from itself and any mask.
	prop := func(k Key, m Mask) bool {
		match := NewMatch(k, m)
		return match.MatchesKey(&k)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMaskUnionCoversBoth(t *testing.T) {
	prop := func(a, b Mask) bool {
		u := a.Union(b)
		return u.Covers(a) && u.Covers(b)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMaskUnionCommutativeIdempotent(t *testing.T) {
	prop := func(a, b Mask) bool {
		return a.Union(b) == b.Union(a) && a.Union(a) == a
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsumesImpliesMatchImplication(t *testing.T) {
	// A match narrowed by more mask bits subsumes the original: any key
	// matched by narrow is matched by wide.
	prop := func(k Key, seed Key, mWide, extra Mask) bool {
		wide := NewMatch(seed, mWide)
		narrow := NewMatch(seed, mWide.Union(extra))
		return !narrow.MatchesKey(&k) || wide.MatchesKey(&k)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapWitness(t *testing.T) {
	// When two matches overlap (their keys agree on every bit significant
	// to both), the canonical witness (take a's bits where a is
	// significant, b's where only b is) satisfies both.
	prop := func(a, b Key, ma, mb Mask) bool {
		x, y := NewMatch(a, ma), NewMatch(b, mb)
		var w Key
		for i := range w {
			if (x.Key[i]^y.Key[i])&ma[i]&mb[i] != 0 {
				return true
			}
			w[i] = (x.Key[i] & ma[i]) | (y.Key[i] & mb[i] &^ ma[i])
		}
		return x.MatchesKey(&w) && y.MatchesKey(&w)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickApplyMaskIdempotent(t *testing.T) {
	prop := func(k Key, m Mask) bool {
		once := k.Apply(m)
		return once.Apply(m) == once
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchStringRoundTrip(t *testing.T) {
	// String() output must re-parse to an equal predicate.
	prop := func(k Key, m Mask) bool {
		orig := NewMatch(k, m)
		parsed, err := ParseMatch(orig.String())
		if err != nil {
			return false
		}
		return orig.EqualTo(&parsed)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}
