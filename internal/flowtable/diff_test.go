package flowtable

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// mapModel is the reference the fused table is differentially checked
// against: exactly what every tier did before flowtable existed — a Go
// map keyed by the Apply-normalized key.
type mapModel struct {
	mask    flow.Mask
	entries map[flow.Key]int
}

func newMapModel(mask flow.Mask) *mapModel {
	return &mapModel{mask: mask, entries: map[flow.Key]int{}}
}

func (m *mapModel) put(k flow.Key, v int) bool {
	nk := k.Apply(m.mask)
	_, existed := m.entries[nk]
	m.entries[nk] = v
	return existed
}

func (m *mapModel) lookup(k flow.Key) (int, bool) {
	v, ok := m.entries[k.Apply(m.mask)]
	return v, ok
}

func (m *mapModel) del(k flow.Key) bool {
	nk := k.Apply(m.mask)
	_, ok := m.entries[nk]
	delete(m.entries, nk)
	return ok
}

// diffMasks is the mask diversity the differential ops run under: exact
// match, single fields, prefixes, multi-field, and the empty mask.
var diffMasks = []flow.Mask{
	flow.FullMask(),
	flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst),
	flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 8)),
	flow.EmptyMask.With(flow.FieldIPSrc, flow.PrefixMask(flow.FieldIPSrc, 16)).WithField(flow.FieldIPProto),
	flow.ExactFields(flow.FieldEthDst),
	flow.EmptyMask,
}

// randDiffKey draws keys from a small universe so inserts, deletes, and
// lookups collide with realistic frequency.
func randDiffKey(rng *rand.Rand) flow.Key {
	return flow.Key{}.
		With(flow.FieldIPDst, uint64(rng.Intn(64))<<24|uint64(rng.Intn(8))).
		With(flow.FieldIPSrc, uint64(rng.Intn(16))<<16).
		With(flow.FieldTpDst, uint64(rng.Intn(8)*100)).
		With(flow.FieldIPProto, uint64(6+rng.Intn(2)*11)).
		With(flow.FieldEthDst, uint64(rng.Intn(8)))
}

// runDiffOps drives a table and the map model through the same seeded
// randomized op sequence, checking agreement after every step, and
// returns the table's final iteration order.
func runDiffOps(t *testing.T, mask flow.Mask, seed int64, steps int) []flow.Key {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := New[int](mask, 0)
	ref := newMapModel(mask)
	for step := 0; step < steps; step++ {
		k := randDiffKey(rng)
		switch rng.Intn(4) {
		case 0, 1: // insert
			v := rng.Intn(1 << 20)
			gotR := tb.Put(k, v)
			wantR := ref.put(k, v)
			if gotR != wantR {
				t.Fatalf("seed %d step %d: Put replaced=%v model=%v", seed, step, gotR, wantR)
			}
		case 2: // delete
			gotD := tb.Delete(k)
			wantD := ref.del(k)
			if gotD != wantD {
				t.Fatalf("seed %d step %d: Delete=%v model=%v", seed, step, gotD, wantD)
			}
		case 3: // lookup
			gotV, gotOK := tb.Lookup(k)
			wantV, wantOK := ref.lookup(k)
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("seed %d step %d: Lookup=(%d,%v) model=(%d,%v)", seed, step, gotV, gotOK, wantV, wantOK)
			}
		}
		if tb.count != len(ref.entries) {
			t.Fatalf("seed %d step %d: Len=%d model=%d", seed, step, tb.count, len(ref.entries))
		}
	}
	// Full-content check: iterate the table, compare against the model.
	var order []flow.Key
	seen := map[flow.Key]int{}
	for it := tb.Iter(); it.Next(); {
		order = append(order, it.Key())
		seen[it.Key()] = it.Value()
	}
	if len(seen) != len(ref.entries) {
		t.Fatalf("seed %d: iterated %d entries, model holds %d", seed, len(seen), len(ref.entries))
	}
	for k, v := range ref.entries {
		if got, ok := seen[k]; !ok || got != v {
			t.Fatalf("seed %d: model entry %v=%d, table iterated %d (present=%v)", seed, k, v, got, ok)
		}
	}
	// Every stored key must be normalized (zero outside the mask).
	for _, k := range order {
		if k != k.Apply(mask) {
			t.Fatalf("seed %d: stored key %v not normalized under %v", seed, k, mask)
		}
	}
	return order
}

// TestDifferentialAgainstMapModel is the flowtable half of the PR's
// equivalence story: for every mask shape, a seeded random
// insert/delete/lookup/iterate sequence must agree with the Go-map
// reference at every step.
func TestDifferentialAgainstMapModel(t *testing.T) {
	for mi, mask := range diffMasks {
		for seed := int64(1); seed <= 5; seed++ {
			runDiffOps(t, mask, seed*31+int64(mi), 4000)
		}
	}
}

// TestSameSeedIterationDeterminism is the iteration-order regression:
// two tables driven through the identical op sequence must iterate in the
// identical order — the property expiry/revalidation sweeps (and the
// detrand invariant) rely on. Go maps deliberately violate it; flowtable
// must never.
func TestSameSeedIterationDeterminism(t *testing.T) {
	for _, mask := range diffMasks {
		a := runDiffOps(t, mask, 1234, 4000)
		b := runDiffOps(t, mask, 1234, 4000)
		if len(a) != len(b) {
			t.Fatalf("same-seed runs iterated %d vs %d entries", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("same-seed iteration order diverged at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// FuzzOpsDifferential feeds arbitrary op tapes through a table and the
// map model. Each byte pair encodes (op, key material); the table must
// agree with the model after every op regardless of sequence shape.
func FuzzOpsDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 128, 9, 9, 9})
	f.Add([]byte{3, 1, 0, 1, 2, 1, 1, 1, 3, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		mask := flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst)
		tb := New[int](mask, 0)
		ref := newMapModel(mask)
		for i := 0; i+1 < len(tape); i += 2 {
			op, kb := tape[i], tape[i+1]
			k := flow.Key{}.
				With(flow.FieldIPDst, uint64(kb&0x3f)).
				With(flow.FieldTpDst, uint64(kb>>6))
			switch op % 3 {
			case 0:
				gotR := tb.Put(k, i)
				wantR := ref.put(k, i)
				if gotR != wantR {
					t.Fatalf("op %d: Put replaced=%v model=%v", i, gotR, wantR)
				}
			case 1:
				if got, want := tb.Delete(k), ref.del(k); got != want {
					t.Fatalf("op %d: Delete=%v model=%v", i, got, want)
				}
			case 2:
				gotV, gotOK := tb.Lookup(k)
				wantV, wantOK := ref.lookup(k)
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					t.Fatalf("op %d: Lookup=(%d,%v) model=(%d,%v)", i, gotV, gotOK, wantV, wantOK)
				}
			}
			if tb.count != len(ref.entries) {
				t.Fatalf("op %d: Len=%d model=%d", i, tb.count, len(ref.entries))
			}
		}
	})
}
