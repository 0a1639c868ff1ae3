package flowtable

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// benchKeys builds n keys plus a parallel set of misses under the given
// mask's significant fields.
func benchKeys(n int) ([]flow.Key, []flow.Key) {
	rng := rand.New(rand.NewSource(1))
	hits := make([]flow.Key, n)
	misses := make([]flow.Key, n)
	for i := range hits {
		hits[i] = flow.Key{}.
			With(flow.FieldIPDst, rng.Uint64()).
			With(flow.FieldTpDst, rng.Uint64())
		misses[i] = flow.Key{}.
			With(flow.FieldIPDst, rng.Uint64()|1<<31).
			With(flow.FieldTpSrc, rng.Uint64())
	}
	return hits, misses
}

// BenchmarkTableLookupHit is the raw fused-probe hit path: one table, one
// mask, resident keys.
func BenchmarkTableLookupHit(b *testing.B) {
	hits, _ := benchKeys(1024)
	tb := New[int](flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst), len(hits))
	for i, k := range hits {
		tb.Put(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(hits[i%len(hits)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkTableLookupMiss is the raw probe miss path (hash + one empty
// or early-rejected chain).
func BenchmarkTableLookupMiss(b *testing.B) {
	hits, misses := benchKeys(1024)
	tb := New[int](flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst), len(hits))
	for i, k := range hits {
		tb.Put(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(misses[i%len(misses)]); ok {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkMapBaselineLookupHit is the pre-flowtable idiom every tier
// used: Key.Apply(mask) copy, then a Go map probe hashing the full
// 32-byte key.
func BenchmarkMapBaselineLookupHit(b *testing.B) {
	mask := flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst)
	hits, _ := benchKeys(1024)
	m := make(map[flow.Key]int, len(hits))
	for i, k := range hits {
		m[k.Apply(mask)] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m[hits[i%len(hits)].Apply(mask)]; !ok {
			b.Fatal("miss")
		}
	}
}
