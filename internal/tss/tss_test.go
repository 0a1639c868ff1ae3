package tss

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

func entry(match string, prio, val int) *Entry[int] {
	return &Entry[int]{Match: flow.MustParseMatch(match), Priority: prio, Value: val}
}

func TestLookupPicksHighestPriority(t *testing.T) {
	c := New[int]()
	c.Insert(entry("ip_dst=10.0.0.0/8", 100, 1))
	c.Insert(entry("ip_dst=10.1.0.0/16", 200, 2))
	c.Insert(entry("ip_dst=10.1.2.0/24", 300, 3))

	e, _ := c.Lookup(flow.MustParseKey("ip_dst=10.1.2.3"))
	if e == nil || e.Value != 3 {
		t.Fatalf("got %v, want value 3", e)
	}
	e, _ = c.Lookup(flow.MustParseKey("ip_dst=10.1.9.9"))
	if e == nil || e.Value != 2 {
		t.Fatalf("got %v, want value 2", e)
	}
	e, _ = c.Lookup(flow.MustParseKey("ip_dst=10.9.9.9"))
	if e == nil || e.Value != 1 {
		t.Fatalf("got %v, want value 1", e)
	}
	e, _ = c.Lookup(flow.MustParseKey("ip_dst=11.0.0.1"))
	if e != nil {
		t.Fatalf("expected miss, got %v", e)
	}
}

func TestInsertReplaceSamePredicateAndPriority(t *testing.T) {
	c := New[int]()
	if replaced := c.Insert(entry("tp_dst=80", 5, 1)); replaced {
		t.Error("first insert reported replace")
	}
	if replaced := c.Insert(entry("tp_dst=80", 5, 2)); !replaced {
		t.Error("identical predicate+priority should replace")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	e, _ := c.Lookup(flow.MustParseKey("tp_dst=80"))
	if e.Value != 2 {
		t.Errorf("replacement not visible: %v", e.Value)
	}
}

func TestSamePredicateDifferentPriorities(t *testing.T) {
	c := New[int]()
	c.Insert(entry("tp_dst=80", 5, 1))
	c.Insert(entry("tp_dst=80", 9, 2))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	e, _ := c.Lookup(flow.MustParseKey("tp_dst=80"))
	if e.Value != 2 {
		t.Errorf("want higher-priority value 2, got %d", e.Value)
	}
	if !c.Delete(flow.MustParseMatch("tp_dst=80"), 9) {
		t.Fatal("delete failed")
	}
	e, _ = c.Lookup(flow.MustParseKey("tp_dst=80"))
	if e == nil || e.Value != 1 {
		t.Errorf("after delete want value 1, got %v", e)
	}
}

func TestDelete(t *testing.T) {
	c := New[int]()
	c.Insert(entry("ip_dst=10.0.0.0/8", 1, 1))
	c.Insert(entry("tp_dst=80", 2, 2))
	if !c.Delete(flow.MustParseMatch("ip_dst=10.0.0.0/8"), 1) {
		t.Fatal("delete existing failed")
	}
	if c.Delete(flow.MustParseMatch("ip_dst=10.0.0.0/8"), 1) {
		t.Fatal("double delete succeeded")
	}
	if c.Delete(flow.MustParseMatch("ip_dst=99.0.0.0/8"), 1) {
		t.Fatal("delete of absent rule succeeded")
	}
	if c.Len() != 1 || c.NumTuples() != 1 {
		t.Errorf("Len=%d NumTuples=%d, want 1,1", c.Len(), c.NumTuples())
	}
	e, _ := c.Lookup(flow.MustParseKey("ip_dst=10.1.1.1,tp_dst=80"))
	if e == nil || e.Value != 2 {
		t.Errorf("remaining rule not found: %v", e)
	}
}

func TestDeleteRestoresMaxPriorityEarlyExit(t *testing.T) {
	c := New[int]()
	c.Insert(entry("tp_dst=80", 100, 1))
	c.Insert(entry("tp_dst=81", 1, 2)) // same tuple, low priority
	c.Insert(entry("ip_dst=10.0.0.0/8", 50, 3))
	c.Delete(flow.MustParseMatch("tp_dst=80"), 100)
	// tp tuple's max priority must now be 1, so the /8 rule should win.
	e, _ := c.Lookup(flow.MustParseKey("ip_dst=10.0.0.1,tp_dst=81"))
	if e == nil || e.Value != 3 {
		t.Fatalf("got %v, want value 3", e)
	}
}

func TestGet(t *testing.T) {
	c := New[int]()
	c.Insert(entry("tp_dst=80", 7, 42))
	if e, ok := c.Get(flow.MustParseMatch("tp_dst=80"), 7); !ok || e.Value != 42 {
		t.Errorf("Get = %v, %v", e, ok)
	}
	if _, ok := c.Get(flow.MustParseMatch("tp_dst=80"), 8); ok {
		t.Error("Get with wrong priority succeeded")
	}
	if _, ok := c.Get(flow.MustParseMatch("tp_src=80"), 7); ok {
		t.Error("Get with wrong match succeeded")
	}
}

func TestEarlyExitProbeCount(t *testing.T) {
	c := New[int]()
	// High-priority exact rule plus many low-priority tuples.
	c.Insert(entry("ip_dst=10.0.0.1", 1000, 1))
	c.Insert(entry("ip_dst=10.0.0.0/8", 1, 2))
	c.Insert(entry("ip_dst=10.0.0.0/16", 2, 3))
	c.Insert(entry("ip_dst=10.0.0.0/24", 3, 4))
	e, probes := c.Lookup(flow.MustParseKey("ip_dst=10.0.0.1"))
	if e.Value != 1 {
		t.Fatalf("wrong winner %v", e)
	}
	if probes != 1 {
		t.Errorf("staged lookup should probe only the top tuple, probed %d", probes)
	}
	// A miss must probe all tuples.
	_, probes = c.Lookup(flow.MustParseKey("ip_dst=99.0.0.1"))
	if probes != c.NumTuples() {
		t.Errorf("miss probed %d of %d tuples", probes, c.NumTuples())
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := New[int]()
	c.Insert(entry("tp_dst=80", 1, 1))
	_, hit := c.Lookup(flow.MustParseKey("tp_dst=80"))
	_, miss := c.Lookup(flow.MustParseKey("tp_dst=81"))
	if hit != 1 || miss != 1 {
		t.Errorf("probes = %d, %d; want one each", hit, miss)
	}
}

func TestRangeAndEntries(t *testing.T) {
	c := New[int]()
	c.Insert(entry("tp_dst=80", 1, 1))
	c.Insert(entry("tp_dst=81", 1, 2))
	c.Insert(entry("ip_proto=6", 1, 3))
	if got := len(c.Entries()); got != 3 {
		t.Errorf("Entries len = %d", got)
	}
	n := 0
	c.Range(func(*Entry[int]) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Range early stop visited %d", n)
	}
}

func TestClear(t *testing.T) {
	c := New[int]()
	c.Insert(entry("tp_dst=80", 1, 1))
	c.Lookup(flow.MustParseKey("tp_dst=80"))
	c.Clear()
	if c.Len() != 0 || c.NumTuples() != 0 {
		t.Error("Clear left rules behind")
	}
	if e, _ := c.Lookup(flow.MustParseKey("tp_dst=80")); e != nil {
		t.Error("lookup hit after Clear")
	}
}

// linearScan is the reference classifier: check every rule, pick the
// highest priority match (first inserted wins ties, matching bucket order).
func linearScan(rules []*Entry[int], k flow.Key) *Entry[int] {
	var best *Entry[int]
	for _, r := range rules {
		if r.Match.Matches(k) && (best == nil || r.Priority > best.Priority) {
			best = r
		}
	}
	return best
}

func TestAgainstLinearScanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New[int]()
	var rules []*Entry[int]
	randKey := func() flow.Key {
		var k flow.Key
		k = k.With(flow.FieldIPDst, uint64(rng.Intn(8))<<24|uint64(rng.Intn(4)))
		k = k.With(flow.FieldIPSrc, uint64(rng.Intn(8))<<24)
		k = k.With(flow.FieldTpDst, uint64(rng.Intn(4)*100))
		k = k.With(flow.FieldIPProto, uint64(6+rng.Intn(2)*11))
		return k
	}
	masks := []flow.Mask{
		flow.ExactFields(flow.FieldIPDst),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 8)),
		flow.ExactFields(flow.FieldTpDst),
		flow.ExactFields(flow.FieldIPProto, flow.FieldTpDst),
		flow.EmptyMask.With(flow.FieldIPSrc, flow.PrefixMask(flow.FieldIPSrc, 8)).WithField(flow.FieldTpDst),
	}
	// Distinct priority per rule avoids ambiguity about equal-priority winners.
	for i := 0; i < 300; i++ {
		m := flow.NewMatch(randKey(), masks[rng.Intn(len(masks))])
		e := &Entry[int]{Match: m, Priority: i + 1, Value: i}
		c.Insert(e)
		rules = append(rules, e)
	}
	for i := 0; i < 3000; i++ {
		k := randKey()
		want := linearScan(rules, k)
		got, _ := c.Lookup(k)
		switch {
		case want == nil && got != nil:
			t.Fatalf("key %s: tss hit %v, linear miss", k, got.Match)
		case want != nil && got == nil:
			t.Fatalf("key %s: tss miss, linear hit %v", k, want.Match)
		case want != nil && got.Priority != want.Priority:
			t.Fatalf("key %s: tss prio %d, linear prio %d", k, got.Priority, want.Priority)
		}
	}
}

func TestRandomizedInsertDeleteConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := New[int]()
	live := map[int]*Entry[int]{}
	next := 0
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			m := flow.NewMatch(
				flow.Key{}.With(flow.FieldTpDst, uint64(rng.Intn(50))),
				flow.ExactFields(flow.FieldTpDst))
			e := &Entry[int]{Match: m, Priority: next + 1, Value: next}
			c.Insert(e)
			live[next] = e
			next++
		} else {
			for id, e := range live {
				if !c.Delete(e.Match, e.Priority) {
					t.Fatalf("step %d: delete of live rule failed", step)
				}
				delete(live, id)
				break
			}
		}
		if c.Len() != len(live) {
			t.Fatalf("step %d: Len=%d live=%d", step, c.Len(), len(live))
		}
	}
	// Final sanity: every live rule is still reachable.
	for _, e := range live {
		got, _ := c.Lookup(e.Match.Key)
		if got == nil {
			t.Fatalf("live rule %v unreachable", e.Match)
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New[int]()
	rng := rand.New(rand.NewSource(1))
	keys := make([]flow.Key, 1024)
	for i := range keys {
		k := flow.Key{}.
			With(flow.FieldIPDst, rng.Uint64()).
			With(flow.FieldTpDst, rng.Uint64())
		keys[i] = k
		c.Insert(&Entry[int]{Match: flow.NewMatch(k, flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst)), Priority: 1, Value: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i%len(keys)])
	}
}

// checkBuckets asserts the invariant the payload-in-slot lookup rests on:
// every bucket's cached val/prio are its head entry's, and its chain is
// strictly priority-descending.
func checkBuckets(t *testing.T, c *Classifier[int], when string) {
	t.Helper()
	for _, tp := range c.tuples {
		tp.table.Range(func(_ flow.Key, b bucket[int]) bool {
			if b.head == nil {
				t.Fatalf("%s: empty bucket left in the table", when)
			}
			if b.val != b.head.Value || b.prio != b.head.Priority {
				t.Fatalf("%s: bucket caches {val %d prio %d}, head is {val %d prio %d}",
					when, b.val, b.prio, b.head.Value, b.head.Priority)
			}
			for e := b.head; e.next != nil; e = e.next {
				if e.Priority <= e.next.Priority {
					t.Fatalf("%s: chain not descending: %d then %d", when, e.Priority, e.next.Priority)
				}
			}
			return true
		})
	}
}

// The bucket's cached head copy must track the chain through every
// mutation: replace at the head, insert above and below it, delete the
// head, a middle entry, the tail, and the last entry.
func TestBucketHeadCopyTracksChain(t *testing.T) {
	c := New[int]()
	m := flow.MustParseMatch("ip_dst=10.0.0.0/8")
	k := flow.MustParseKey("ip_dst=10.1.2.3")
	want := func(when string, val int, ok bool) {
		t.Helper()
		checkBuckets(t, c, when)
		v, _, hit := c.LookupValue(&k)
		if e, _ := c.Lookup(k); hit != ok || (e != nil) != ok || (ok && (v != val || e.Value != val)) {
			t.Fatalf("%s: LookupValue = %d,%v; Lookup = %v; want %d,%v", when, v, hit, e, val, ok)
		}
	}
	ins := func(prio, val int) { c.Insert(&Entry[int]{Match: m, Priority: prio, Value: val}) }

	ins(5, 50)
	want("first insert", 50, true)
	ins(5, 51)
	want("replace sole head", 51, true)
	ins(3, 30)
	want("insert below head", 51, true)
	ins(9, 90)
	want("insert above head", 90, true)
	ins(7, 70)
	want("insert in the middle", 90, true)
	ins(9, 91)
	want("replace head of a chain", 91, true)
	ins(7, 71)
	want("replace a middle entry", 91, true)
	c.Delete(m, 7)
	want("delete a middle entry", 91, true)
	c.Delete(m, 9)
	want("delete the head", 51, true)
	c.Delete(m, 3)
	want("delete the tail", 51, true)
	c.Delete(m, 5)
	want("delete the last entry", 0, false)
	if c.Len() != 0 || c.NumTuples() != 0 {
		t.Fatalf("classifier not empty: %d entries, %d tuples", c.Len(), c.NumTuples())
	}
}

// The install paths hand predicates over by pointer and un-normalized (a
// composed key still carries bits outside its mask until Insert strips
// them). GetMatch and DeleteMatch must find exactly what Get and Delete
// find for the same predicate by value, must not modify it, and the
// wildcard-tracking lookups must agree with their by-value forms.
func TestByPointerAgreesWithByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	masks := []flow.Mask{
		flow.ExactFields(flow.FieldIPDst),
		flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst),
		flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 16)),
		flow.ExactFields(flow.FieldEthDst),
	}
	dirty := func() flow.Match { // key bits set well outside the mask
		m := flow.Match{Mask: masks[rng.Intn(len(masks))]}
		for f := range m.Key {
			m.Key[f] = uint64(rng.Intn(4)) | uint64(rng.Intn(3))<<16 | uint64(rng.Intn(2))<<40
		}
		return m
	}
	byPtr, byVal := New[int](), New[int]()
	for step := 0; step < 4000; step++ {
		m, prio := dirty(), rng.Intn(3)
		switch rng.Intn(4) {
		case 0, 1:
			rp := byPtr.Insert(&Entry[int]{Match: m, Priority: prio, Value: step})
			rv := byVal.Insert(&Entry[int]{Match: m, Priority: prio, Value: step})
			if rp != rv {
				t.Fatalf("step %d: Insert replaced %v vs %v", step, rp, rv)
			}
		case 2:
			keep := m
			gp := byPtr.GetMatch(&m, prio)
			gv, ok := byVal.Get(m, prio)
			if (gp != nil) != ok || ok && (gp.Value != gv.Value || gp.Priority != gv.Priority || gp.Match != gv.Match) {
				t.Fatalf("step %d: GetMatch(%v, %d) = %+v, Get = %+v, %v", step, m, prio, gp, gv, ok)
			}
			if ok && gp.Match != m.Normalize() {
				t.Fatalf("step %d: found %v for predicate %v", step, gp.Match, m.Normalize())
			}
			if m != keep {
				t.Fatalf("step %d: GetMatch modified its argument", step)
			}
		default:
			keep := m
			if dp, dv := byPtr.DeleteMatch(&m, prio), byVal.Delete(m, prio); dp != dv {
				t.Fatalf("step %d: DeleteMatch(%v, %d) = %v, Delete = %v", step, m, prio, dp, dv)
			}
			if m != keep {
				t.Fatalf("step %d: DeleteMatch modified its argument", step)
			}
		}
		if byPtr.Len() != byVal.Len() || byPtr.NumTuples() != byVal.NumTuples() {
			t.Fatalf("step %d: %v vs %v", step, byPtr, byVal)
		}
		k := dirty().Key
		var wild flow.Mask
		wild[0] = ^uint64(0) // LookupWildInto must overwrite, not accumulate
		ep, pp := byPtr.LookupWildInto(&k, &wild)
		ev, wv, pv := byVal.LookupWild(k)
		if (ep == nil) != (ev == nil) || ep != nil && ep.Value != ev.Value || wild != wv || pp != pv {
			t.Fatalf("step %d: LookupWildInto = %v, %v, %d; LookupWild = %v, %v, %d", step, ep, wild, pp, ev, wv, pv)
		}
		wild[1] = ^uint64(0)
		ep, pp = byPtr.LookupWildPreciseInto(&k, &wild, &Probed[int]{})
		ev, wv, pv = byVal.LookupWildPrecise(k)
		if (ep == nil) != (ev == nil) || ep != nil && ep.Value != ev.Value || wild != wv || pp != pv {
			t.Fatalf("step %d: LookupWildPreciseInto = %v, %v, %d; LookupWildPrecise = %v, %v, %d", step, ep, wild, pp, ev, wv, pv)
		}
	}
	if byPtr.Len() == 0 {
		t.Fatal("degenerate run: classifier ended empty")
	}
}

// Remove deletes the entry it is given and only that entry: a node that
// has been replaced or already removed stays out, and whatever now holds
// its predicate and priority stays in.
func TestRemoveChecksIdentity(t *testing.T) {
	c := New[int]()
	a := entry("ip_dst=10.0.0.0/8", 5, 1)
	lower := entry("ip_dst=10.0.0.0/8", 3, 2)
	c.Insert(a)
	c.Insert(lower)
	b := entry("ip_dst=10.0.0.0/8", 5, 3)
	if !c.Insert(b) {
		t.Fatal("same predicate and priority must replace")
	}
	if c.Remove(a) {
		t.Fatal("Remove took out the entry that replaced its argument")
	}
	k := flow.MustParseKey("ip_dst=10.1.2.3")
	if e, _ := c.Lookup(k); e != b || c.Len() != 2 {
		t.Fatalf("after a refused Remove: Lookup = %v, Len = %d", e, c.Len())
	}
	if !c.Remove(b) || c.Remove(b) {
		t.Fatal("Remove of the resident entry must succeed exactly once")
	}
	if e, _ := c.Lookup(k); e != lower || c.Len() != 1 {
		t.Fatalf("after Remove: Lookup = %v, Len = %d", e, c.Len())
	}
	if !c.Remove(lower) || c.Len() != 0 || c.NumTuples() != 0 {
		t.Fatalf("last Remove: Len = %d, tuples = %d", c.Len(), c.NumTuples())
	}
}
