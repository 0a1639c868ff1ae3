package megaflow

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// BenchmarkCacheLookupHit is the megaflow tier's wildcard hit path: a
// staged TSS walk whose tuples are fused-probe flow tables.
func BenchmarkCacheLookupHit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := diffPipeline()
	c := New(1 << 12)
	keys := make([]flow.Key, 256)
	for i := range keys {
		k := diffKey(rng)
		if ok := peek(c, k); !ok {
			c.Insert(p.MustProcess(k), 0)
		}
		keys[i] = k
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := lookup(c, keys[i%len(keys)], int64(i)); !ok {
			b.Fatal("miss")
		}
	}
}
