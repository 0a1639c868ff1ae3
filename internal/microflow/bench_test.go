package microflow

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// benchCap is the tier capacity the service runs with: the slab and the
// index are then several times a core's private caches, as they are under
// the end-to-end benchmark.
const benchCap = 32768

func benchKeys(n int, seed int64) []flow.Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = flow.Key{}.
			With(flow.FieldIPSrc, rng.Uint64()).
			With(flow.FieldIPDst, rng.Uint64()).
			With(flow.FieldTpSrc, uint64(i))
	}
	return keys
}

func benchCache() (*Cache, []flow.Key) {
	c := New(benchCap)
	hits := benchKeys(benchCap, 1)
	for _, k := range hits {
		c.Insert(k, k, flow.Verdict{Kind: flow.VerdictOutput, Port: 1}, 0)
	}
	return c, hits
}

// BenchmarkLookupHit is the exact-match first-tier hit path: one index
// probe, one key compare, LRU touch.
func BenchmarkLookupHit(b *testing.B) {
	c, hits := benchCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := find(c, hits[i%len(hits)], int64(i)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLookupMiss is the exact-match miss path — what every packet
// pays before falling through to the main cache.
func BenchmarkLookupMiss(b *testing.B) {
	c, _ := benchCache()
	misses := benchKeys(benchCap, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := find(c, misses[i%len(misses)], int64(i)); ok {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkInsertThrash memoizes a round-robin key set six times the
// capacity into a full tier, so every insert evicts the LRU tail and
// reuses its storage — what the tier does on every packet of an
// observation window when the working set outgrows it. A tier fed nothing
// else would step aside after 65 536 of them and the loop would time the
// bypass, so one request in 16 is followed by a probe of the entry just
// written (the LRU head: no list work). That keeps every window's hit
// ratio at twice the thrashing line or better, the first one included,
// half of which benchCache's fill has already spent on requests alone.
func BenchmarkInsertThrash(b *testing.B) {
	c, _ := benchCache()
	keys := benchKeys(6*benchCap, 3)
	v := flow.Verdict{Kind: flow.VerdictOutput, Port: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &keys[i%len(keys)]
		c.Insert(*k, *k, v, int64(i))
		if i%(thrashRatio/4) == 0 {
			find(c, *k, int64(i))
		}
	}
	if st := c.stats; st.EvictLRU != uint64(b.N) || st.Bypassed != 0 {
		b.Fatalf("%d evictions and %d declined in %d inserts", st.EvictLRU, st.Bypassed, b.N)
	}
}

// BenchmarkBypassedPacket is what a packet costs a tier that has stepped
// aside: the probe that does not hash and the memoize request that is
// declined. The first declined request, which shrinks the tier to its
// miniature, is made before the clock starts.
func BenchmarkBypassedPacket(b *testing.B) {
	c, _ := benchCache()
	keys := benchKeys(6*benchCap, 3)
	v := flow.Verdict{Kind: flow.VerdictOutput, Port: 2}
	for i := 0; !c.Snapshot().Bypassing; i++ {
		c.Insert(keys[i], keys[i], v, 0)
	}
	c.Memoize(&keys[0], &keys[0], v, 0)
	c.stats.Bypassed = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.bypass == 1 {
			c.bypass = c.window // stay inside the period however long b.N is
		}
		k := &keys[i%len(keys)]
		if _, ok := c.Find(k, int64(i)); ok {
			b.Fatal("hit")
		}
		c.Memoize(k, k, v, int64(i))
	}
	if got := c.stats.Bypassed; got != uint64(b.N) {
		b.Fatalf("%d declined in %d requests", got, b.N)
	}
}
