package flowtable

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

func exactKey(ip, port uint64) flow.Key {
	return flow.Key{}.
		With(flow.FieldIPDst, ip).
		With(flow.FieldTpDst, port)
}

func TestPutLookupDelete(t *testing.T) {
	tb := New[int](flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst), 0)
	if _, ok := tb.Lookup(exactKey(1, 2)); ok {
		t.Fatal("lookup hit on empty table")
	}
	if replaced := tb.Put(exactKey(1, 2), 10); replaced {
		t.Fatal("fresh put reported replace")
	}
	if replaced := tb.Put(exactKey(1, 2), 20); !replaced {
		t.Fatal("second put did not report replace")
	}
	if v, ok := tb.Lookup(exactKey(1, 2)); !ok || v != 20 {
		t.Fatalf("Lookup = %d,%v want 20,true", v, ok)
	}
	if tb.count != 1 {
		t.Fatalf("Len = %d want 1", tb.count)
	}
	if !tb.Delete(exactKey(1, 2)) {
		t.Fatal("delete of present key failed")
	}
	if tb.Delete(exactKey(1, 2)) {
		t.Fatal("double delete succeeded")
	}
	if tb.count != 0 {
		t.Fatalf("Len = %d want 0", tb.count)
	}
}

func TestMaskedComparison(t *testing.T) {
	// Only ip_dst's top byte is significant: keys differing elsewhere
	// must collide onto the same entry.
	mask := flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, 8))
	tb := New[string](mask, 0)
	tb.Put(flow.Key{}.With(flow.FieldIPDst, 10<<24|1), "ten")
	if v, ok := tb.Lookup(flow.Key{}.With(flow.FieldIPDst, 10<<24|99).With(flow.FieldTpDst, 443)); !ok || v != "ten" {
		t.Fatalf("masked lookup = %q,%v want ten,true", v, ok)
	}
	if _, ok := tb.Lookup(flow.Key{}.With(flow.FieldIPDst, 11<<24)); ok {
		t.Fatal("lookup matched outside the mask")
	}
	// The same predicate expressed through differently-garbaged keys is
	// one entry.
	if replaced := tb.Put(flow.Key{}.With(flow.FieldIPDst, 10<<24|7), "ten2"); !replaced {
		t.Fatal("equivalent masked key did not replace")
	}
	if tb.count != 1 {
		t.Fatalf("Len = %d want 1", tb.count)
	}
}

func TestEmptyMaskSingleBucket(t *testing.T) {
	tb := New[int](flow.EmptyMask, 0)
	tb.Put(exactKey(1, 1), 7)
	tb.Put(exactKey(2, 2), 9) // same (empty) masked key: replaces
	if tb.count != 1 {
		t.Fatalf("Len = %d want 1", tb.count)
	}
	if v, ok := tb.Lookup(exactKey(3, 3)); !ok || v != 9 {
		t.Fatalf("empty-mask lookup = %d,%v want 9,true", v, ok)
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	tb := New[uint64](flow.FullMask(), 0)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tb.Put(exactKey(i, i%7), i)
	}
	if tb.count != n {
		t.Fatalf("Len = %d want %d", tb.count, n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tb.Lookup(exactKey(i, i%7)); !ok || v != i {
			t.Fatalf("key %d: got %d,%v", i, v, ok)
		}
	}
}

func TestSizeHintAvoidsGrowth(t *testing.T) {
	tb := New[int](flow.FullMask(), 1000)
	c := len(tb.slots)
	for i := 0; i < 1000; i++ {
		tb.Put(exactKey(uint64(i), 0), i)
	}
	if len(tb.slots) != c {
		t.Fatalf("table grew from %d to %d slots despite size hint", c, len(tb.slots))
	}
}

func TestBackshiftDeletionKeepsChainsReachable(t *testing.T) {
	// Heavy insert/delete churn at high load exercises backshift across
	// wrapped probe chains; every surviving key must remain reachable.
	rng := rand.New(rand.NewSource(42))
	tb := New[int](flow.FullMask(), 0)
	live := map[uint64]int{}
	for step := 0; step < 30000; step++ {
		id := uint64(rng.Intn(600))
		if _, ok := live[id]; ok && rng.Intn(2) == 0 {
			if !tb.Delete(exactKey(id, id)) {
				t.Fatalf("step %d: live key %d missing", step, id)
			}
			delete(live, id)
		} else {
			tb.Put(exactKey(id, id), step)
			live[id] = step
		}
		if tb.count != len(live) {
			t.Fatalf("step %d: Len=%d model=%d", step, tb.count, len(live))
		}
	}
	for id, want := range live {
		if v, ok := tb.Lookup(exactKey(id, id)); !ok || v != want {
			t.Fatalf("key %d: got %d,%v want %d,true", id, v, ok, want)
		}
	}
}

func TestIterCoversAllEntriesOnce(t *testing.T) {
	tb := New[int](flow.FullMask(), 0)
	want := map[flow.Key]int{}
	for i := 0; i < 500; i++ {
		k := exactKey(uint64(i), uint64(i%13))
		tb.Put(k, i)
		want[k] = i
	}
	got := map[flow.Key]int{}
	for it := tb.Iter(); it.Next(); {
		if _, dup := got[it.Key()]; dup {
			t.Fatalf("iterator visited %v twice", it.Key())
		}
		got[it.Key()] = it.Value()
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %v: iterated %d want %d", k, got[k], v)
		}
	}
}

func TestZeroIterAndRangeEarlyStop(t *testing.T) {
	var it Iter[int]
	if it.Next() {
		t.Fatal("zero iterator advanced")
	}
	tb := New[int](flow.FullMask(), 0)
	for i := 0; i < 10; i++ {
		tb.Put(exactKey(uint64(i), 0), i)
	}
	n := 0
	tb.Range(func(flow.Key, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range early stop visited %d", n)
	}
}

func TestLookupZeroAllocs(t *testing.T) {
	tb := New[int](flow.FullMask(), 0)
	for i := 0; i < 1024; i++ {
		tb.Put(exactKey(uint64(i), 0), i)
	}
	k := exactKey(77, 0)
	miss := exactKey(99999, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		tb.Lookup(k)
		tb.Lookup(miss)
	}); allocs != 0 {
		t.Fatalf("Lookup allocates %.1f allocs/op, want 0", allocs)
	}
}
