package flow

import (
	"math/rand"
	"testing"
)

// TestFieldLayoutTiles checks the packed layout itself: every field lies
// inside one word, and the fields, taken in canonical order, tile the
// NumWords*64 bits in ascending (word, bit) order with no gap or overlap.
// The tss distinguishing-bit search relies on that order: the first
// differing bit of two packed keys lies in the first differing field.
func TestFieldLayoutTiles(t *testing.T) {
	next := uint(0) // absolute bit offset the next field must start at
	for f := FieldID(0); f < NumFields; f++ {
		w, s := uint(fieldWord[f]), uint(fieldShift[f])
		if w >= NumWords || s+f.Width() > 64 {
			t.Fatalf("%s at word %d bit %d, width %d, leaves its word", f, w, s, f.Width())
		}
		if at := w*64 + s; at != next {
			t.Fatalf("%s starts at bit %d, want %d (the end of the previous field)", f, at, next)
		}
		next += f.Width()
	}
	if next != NumWords*64 {
		t.Fatalf("fields cover %d bits, want %d", next, NumWords*64)
	}
	if FullMask() != ExactFields(AllFields.Fields()...) {
		t.Fatalf("FullMask %v is not every field exact", FullMask())
	}
}

// randWords returns a key with every bit random: every field holds a
// random in-width value.
func randWords(rng *rand.Rand) Key {
	return Key{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
}

// checkIsolated fails unless after differs from before on field f alone,
// where it reads want.
func checkIsolated(t *testing.T, op string, f FieldID, before, after interface{ Get(FieldID) uint64 }, want uint64) {
	t.Helper()
	if got := after.Get(f); got != want {
		t.Fatalf("%s(%s): Get = %#x, want %#x", op, f, got, want)
	}
	for g := FieldID(0); g < NumFields; g++ {
		if g != f && after.Get(g) != before.Get(g) {
			t.Fatalf("%s(%s) moved %s: %#x -> %#x", op, f, g, before.Get(g), after.Get(g))
		}
	}
}

// TestKeyAccessorsIsolated: Set, SetMasked and With on one field change
// that field alone, to the value truncated to its width.
func TestKeyAccessorsIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f := FieldID(rng.Intn(NumFields))
		k, v, mask := randWords(rng), rng.Uint64(), rng.Uint64()
		want := v & f.MaxValue()

		set := k
		set.Set(f, v)
		checkIsolated(t, "Set", f, k, set, want)
		checkIsolated(t, "With", f, k, k.With(f, v), want)

		masked := k
		masked.SetMasked(f, v, f.MaxValue())
		checkIsolated(t, "SetMasked/full", f, k, masked, want)
		masked = k
		masked.SetMasked(f, v, mask)
		checkIsolated(t, "SetMasked", f, k, masked, (k.Get(f)&^mask|v&mask)&f.MaxValue())
		checkIsolated(t, "WithMasked", f, k, k.WithMasked(f, v, mask), masked.Get(f))
	}
}

// TestMaskAccessorsIsolated: With, WithField and OrField on
// one field change that field alone.
func TestMaskAccessorsIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		f := FieldID(rng.Intn(NumFields))
		m, bits := Mask(randWords(rng)), rng.Uint64()

		checkIsolated(t, "Mask.With", f, m, m.With(f, bits), bits&f.MaxValue())
		checkIsolated(t, "WithField", f, m, m.WithField(f), f.MaxValue())
		or := m
		or.OrField(f, bits)
		checkIsolated(t, "OrField", f, m, or, (m.Get(f)|bits)&f.MaxValue())
	}
}
