package tss

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// TestLookupWildSoundness checks THE megaflow-generation invariant: for
// any key k with LookupWild result (e, wild), every key k' that agrees
// with k on wild's bits classifies to the same entry (or both miss).
func TestLookupWildSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	masks := []flow.Mask{
		flow.ExactFields(flow.FieldIPDst),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 16)),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 8)),
		flow.ExactFields(flow.FieldTpDst),
		flow.ExactFields(flow.FieldIPProto, flow.FieldTpSrc),
		flow.EmptyMask.With(flow.FieldIPSrc, flow.PrefixMask(flow.FieldIPSrc, 12)).WithField(flow.FieldTpDst),
	}
	randKey := func() flow.Key {
		var k flow.Key
		k = k.With(flow.FieldIPDst, uint64(rng.Intn(4))<<24|uint64(rng.Intn(16))<<8|uint64(rng.Intn(4)))
		k = k.With(flow.FieldIPSrc, uint64(rng.Intn(4))<<28)
		k = k.With(flow.FieldIPProto, uint64(rng.Intn(3)))
		k = k.With(flow.FieldTpSrc, uint64(rng.Intn(4)))
		k = k.With(flow.FieldTpDst, uint64(rng.Intn(4))*443)
		return k
	}

	c := New[int]()
	for i := 0; i < 400; i++ {
		m := flow.NewMatch(randKey(), masks[rng.Intn(len(masks))])
		c.Insert(&Entry[int]{Match: m, Priority: rng.Intn(50), Value: i})
	}

	for trial := 0; trial < 4000; trial++ {
		k := randKey()
		e, wild, _ := lookupWild(c, k)

		// Perturb k arbitrarily on bits NOT in wild.
		k2 := k
		for f := flow.FieldID(0); f < flow.NumFields; f++ {
			free := f.MaxValue() &^ wild.Get(f)
			k2 = k2.WithMasked(f, rng.Uint64(), free)
		}
		e2, _ := lookup(c, k2)
		switch {
		case e == nil && e2 != nil:
			t.Fatalf("k=%s missed but masked-equal k2=%s hit %v (wild=%s)", k, k2, e2.Match, wild)
		case e != nil && e2 == nil:
			t.Fatalf("k=%s hit %v but masked-equal k2=%s missed (wild=%s)", k, e.Match, k2, wild)
		case e != nil && e2.Priority != e.Priority:
			t.Fatalf("priorities diverge: %d vs %d (wild=%s)", e.Priority, e2.Priority, wild)
		}
	}
}

// TestLookupWildAfterChurn re-validates the invariant while rules are
// inserted and deleted (the maxPrio upper-bound optimisation must stay
// sound under churn).
func TestLookupWildAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := New[int]()
	var live []*Entry[int]
	mkRule := func(i int) *Entry[int] {
		m := flow.MatchAll().
			WithMaskedField(flow.FieldIPDst, uint64(rng.Intn(4))<<24, flow.PrefixMask(flow.FieldIPDst, uint(8*(1+rng.Intn(3))))).
			WithField(flow.FieldTpDst, uint64(rng.Intn(3)))
		return &Entry[int]{Match: m, Priority: rng.Intn(100), Value: i}
	}
	for step := 0; step < 3000; step++ {
		switch {
		case len(live) == 0 || rng.Intn(3) > 0:
			e := mkRule(step)
			if c.GetMatch(&e.Match, e.Priority) == nil {
				c.Insert(e)
				live = append(live, e)
			}
		default:
			i := rng.Intn(len(live))
			c.DeleteMatch(&live[i].Match, live[i].Priority)
			live = append(live[:i], live[i+1:]...)
		}
		if step%10 != 0 {
			continue
		}
		k := flow.Key{}.
			With(flow.FieldIPDst, uint64(rng.Intn(4))<<24|uint64(rng.Intn(1<<16))).
			With(flow.FieldTpDst, uint64(rng.Intn(3)))
		e, wild, _ := lookupWild(c, k)
		k2 := k
		for f := flow.FieldID(0); f < flow.NumFields; f++ {
			k2 = k2.WithMasked(f, rng.Uint64(), f.MaxValue()&^wild.Get(f))
		}
		e2, _ := lookup(c, k2)
		if (e == nil) != (e2 == nil) || (e != nil && e.Priority != e2.Priority) {
			t.Fatalf("step %d: wildcard soundness violated", step)
		}
	}
}
