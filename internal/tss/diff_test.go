package tss

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// diffMasks gives the randomized differential workload realistic mask
// diversity: exact, prefix, multi-field, and match-all tuples.
var diffMasks = []flow.Mask{
	flow.ExactFields(flow.FieldIPDst),
	flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst),
	flow.ExactFields(flow.FieldIPProto, flow.FieldTpDst),
	flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 8)),
	flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 16)),
	flow.EmptyMask.With(flow.FieldIPSrc, flow.PrefixMask(flow.FieldIPSrc, 8)).WithField(flow.FieldTpDst),
	flow.ExactFields(flow.FieldEthDst, flow.FieldEthType),
	flow.EmptyMask,
}

func diffKey(rng *rand.Rand) flow.Key {
	return flow.Key{}.
		With(flow.FieldIPDst, uint64(rng.Intn(8))<<24|uint64(rng.Intn(4))<<16|uint64(rng.Intn(4))).
		With(flow.FieldIPSrc, uint64(rng.Intn(8))<<24).
		With(flow.FieldTpDst, uint64(rng.Intn(4)*100)).
		With(flow.FieldIPProto, uint64(6+rng.Intn(2)*11)).
		With(flow.FieldEthDst, uint64(rng.Intn(4))).
		With(flow.FieldEthType, 0x0800)
}

// TestDifferentialAgainstMapBackedClassifier drives the flowtable-backed
// classifier and the verbatim old map-backed implementation through the
// same randomized insert/delete/lookup sequence and demands bit-identical
// observables: winning entries (by pointer), wildcard masks from both
// LookupWild variants, and the per-call probe counts the CPU cost model
// charges.
func TestDifferentialAgainstMapBackedClassifier(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := New[int]()
		ref := newMapRef[int]()
		var live []*Entry[int]
		nextVal := 0
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // insert (equal priorities allowed: tie-break must agree)
				e := &Entry[int]{
					Match:    flow.NewMatch(diffKey(rng), diffMasks[rng.Intn(len(diffMasks))]),
					Priority: rng.Intn(40),
					Value:    nextVal,
				}
				nextVal++
				gr := got.Insert(e)
				rr := ref.Insert(e)
				if gr != rr {
					t.Fatalf("seed %d step %d: Insert replaced=%v ref=%v", seed, step, gr, rr)
				}
				if gr {
					for i, old := range live {
						if old.Match.EqualTo(&e.Match) && old.Priority == e.Priority {
							live[i] = e
							break
						}
					}
				} else {
					live = append(live, e)
				}
			case op == 3 && len(live) > 0: // delete
				i := rng.Intn(len(live))
				e := live[i]
				gr := got.DeleteMatch(&e.Match, e.Priority)
				rr := ref.Delete(e.Match, e.Priority)
				if gr != rr {
					t.Fatalf("seed %d step %d: Delete=%v ref=%v", seed, step, gr, rr)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 7: // Lookup
				k := diffKey(rng)
				ge, gp := lookup(got, k)
				re, rp := ref.Lookup(k)
				if ge != re || gp != rp {
					t.Fatalf("seed %d step %d: Lookup(%s) = (%v,%d) ref (%v,%d)", seed, step, k, ge, gp, re, rp)
				}
			case op < 9: // LookupWild
				k := diffKey(rng)
				ge, gw, gp := lookupWild(got, k)
				re, rw, rp := ref.LookupWild(k)
				if ge != re || gw != rw || gp != rp {
					t.Fatalf("seed %d step %d: LookupWild(%s) = (%v,%v,%d) ref (%v,%v,%d)",
						seed, step, k, ge, gw, gp, re, rw, rp)
				}
			default: // LookupWildPrecise
				k := diffKey(rng)
				ge, gw, gp := got.LookupWildPrecise(k)
				re, rw, rp := ref.LookupWildPrecise(k)
				if ge != re || gw != rw || gp != rp {
					t.Fatalf("seed %d step %d: LookupWildPrecise(%s) = (%v,%v,%d) ref (%v,%v,%d)",
						seed, step, k, ge, gw, gp, re, rw, rp)
				}
			}
			if got.Len() != ref.Len() || got.NumTuples() != ref.NumTuples() {
				t.Fatalf("seed %d step %d: shape (%d,%d) ref (%d,%d)",
					seed, step, got.Len(), got.NumTuples(), ref.Len(), ref.NumTuples())
			}
		}
		// The classifiers must hold the same entry set.
		gotSet := map[*Entry[int]]bool{}
		got.Range(func(e *Entry[int]) bool { gotSet[e] = true; return true })
		if len(gotSet) != len(live) {
			t.Fatalf("seed %d: classifier holds %d entries, %d live", seed, len(gotSet), len(live))
		}
		for _, e := range live {
			if !gotSet[e] {
				t.Fatalf("seed %d: live entry %v missing from Range", seed, e.Match)
			}
		}
	}
}

// TestRangeDeterministicOrder pins the new guarantee: Range order is a
// pure function of the mutation history (staged tuple order, then slot
// order), so two same-seed builds enumerate identically.
func TestRangeDeterministicOrder(t *testing.T) {
	build := func() []*Entry[int] {
		rng := rand.New(rand.NewSource(77))
		c := New[int]()
		for i := 0; i < 500; i++ {
			c.Insert(&Entry[int]{
				Match:    flow.NewMatch(diffKey(rng), diffMasks[rng.Intn(len(diffMasks))]),
				Priority: rng.Intn(20),
				Value:    i,
			})
			if i%7 == 0 {
				k := diffKey(rng)
				if e, _ := lookup(c, k); e != nil && rng.Intn(2) == 0 {
					c.DeleteMatch(&e.Match, e.Priority)
				}
			}
		}
		return c.Entries()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("same-seed builds enumerate %d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value || !a[i].Match.EqualTo(&b[i].Match) || a[i].Priority != b[i].Priority {
			t.Fatalf("Range order diverged at %d: %v/%d vs %v/%d", i, a[i].Match, a[i].Value, b[i].Match, b[i].Value)
		}
	}
}

// TestLookupPathsZeroAlloc holds every probe variant — including
// LookupWildPreciseInto on a reused scratch — to zero allocations.
func TestLookupPathsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New[int]()
	for i := 0; i < 400; i++ {
		c.Insert(&Entry[int]{
			Match:    flow.NewMatch(diffKey(rng), diffMasks[rng.Intn(len(diffMasks))]),
			Priority: rng.Intn(20),
			Value:    i,
		})
	}
	hit := diffKey(rng)
	c.Insert(&Entry[int]{Match: flow.ExactMatch(hit), Priority: 50, Value: -1})
	miss := flow.Key{}.With(flow.FieldIPDst, 250<<24).With(flow.FieldEthType, 0x86dd)
	c.Settle()
	var scratch Probed[int]
	var wild flow.Mask
	c.LookupWildPreciseInto(&hit, &wild, &scratch) // grow the scratch before counting
	if allocs := testing.AllocsPerRun(500, func() {
		lookup(c, hit)
		lookup(c, miss)
		lookupWild(c, miss)
		c.LookupWildPreciseInto(&hit, &wild, &scratch)
		c.LookupWildPreciseInto(&miss, &wild, &scratch)
	}); allocs != 0 {
		t.Fatalf("lookup paths allocate %.1f allocs/op, want 0", allocs)
	}
}
