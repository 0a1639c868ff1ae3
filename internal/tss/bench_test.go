package tss

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// slowpathMasks is a high-diversity tuple census modeled on what a
// mask-rich megaflow cache accumulates: prefix ladders, field combos, and
// exact tuples. Every mask is a distinct TSS tuple, so miss-heavy lookups
// sweep all of them — the slow-path regime where probe cost dominates.
func slowpathMasks() []flow.Mask {
	masks := []flow.Mask{
		flow.ExactFields(flow.FieldIPDst),
		flow.ExactFields(flow.FieldIPDst, flow.FieldTpDst),
		flow.ExactFields(flow.FieldIPSrc, flow.FieldIPDst),
		flow.ExactFields(flow.FieldIPProto, flow.FieldTpDst),
		flow.ExactFields(flow.FieldEthDst, flow.FieldEthType),
		flow.ExactFields(flow.FieldInPort, flow.FieldEthType, flow.FieldIPDst),
		flow.ExactFields(flow.FieldTpSrc, flow.FieldTpDst),
		flow.ExactFields(flow.FieldEthSrc),
	}
	for _, bits := range []uint{8, 12, 16, 20, 24, 28} {
		masks = append(masks,
			flow.EmptyMask.With(flow.FieldIPDst, flow.PrefixMask(flow.FieldIPDst, bits)),
			flow.EmptyMask.With(flow.FieldIPSrc, flow.PrefixMask(flow.FieldIPSrc, bits)).WithField(flow.FieldIPProto))
	}
	return masks
}

func slowpathKey(rng *rand.Rand) flow.Key {
	return flow.Key{}.
		With(flow.FieldInPort, uint64(rng.Intn(4))).
		With(flow.FieldEthSrc, rng.Uint64()&0xff).
		With(flow.FieldEthDst, rng.Uint64()&0xff).
		With(flow.FieldEthType, 0x0800).
		With(flow.FieldIPSrc, 0x0a000000|rng.Uint64()&0xffff).
		With(flow.FieldIPDst, 0x0a000000|rng.Uint64()&0xffff).
		With(flow.FieldIPProto, 6).
		With(flow.FieldTpSrc, uint64(rng.Intn(1024))).
		With(flow.FieldTpDst, uint64(rng.Intn(1024)))
}

// buildSlowpath populates both classifier backends with the same rules
// (1024 entries spread over ~20 tuples, all priority 1 so no staged probe
// exits early) and returns cold keys that miss every tuple — the
// worst-case full sweep a slow-path lookup pays.
func buildSlowpath() (*Classifier[int], *mapRef[int], []flow.Key) {
	rng := rand.New(rand.NewSource(42))
	masks := slowpathMasks()
	cls := New[int]()
	ref := newMapRef[int]()
	for i := 0; i < 1024; i++ {
		m := flow.NewMatch(slowpathKey(rng), masks[i%len(masks)])
		cls.Insert(&Entry[int]{Match: m, Priority: 1, Value: i})
		ref.Insert(&Entry[int]{Match: m, Priority: 1, Value: i})
	}
	cold := make([]flow.Key, 1024)
	for i := range cold {
		// Disjoint universe: every field lands outside the inserted
		// ranges, so under every tuple's mask the probe misses.
		cold[i] = flow.Key{}.
			With(flow.FieldInPort, 7).
			With(flow.FieldEthSrc, 0x1000|rng.Uint64()&0xff).
			With(flow.FieldEthDst, 0x1000|rng.Uint64()&0xff).
			With(flow.FieldEthType, 0x86dd).
			With(flow.FieldIPSrc, 0xc0000000|rng.Uint64()&0xffff).
			With(flow.FieldIPDst, 0xc0000000|rng.Uint64()&0xffff).
			With(flow.FieldIPProto, 17).
			With(flow.FieldTpSrc, uint64(2048+rng.Intn(1024))).
			With(flow.FieldTpDst, uint64(2048+rng.Intn(1024)))
	}
	return cls, ref, cold
}

// BenchmarkSlowpathColdSweep is the cold-cache, high-mask-diversity
// regime: every lookup sweeps every tuple. The fused mask+hash probe pays
// one pass per tuple; per-op cost is ~tuples × probe cost.
func BenchmarkSlowpathColdSweep(b *testing.B) {
	cls, _, cold := buildSlowpath()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _ := cls.Lookup(cold[i%len(cold)]); e != nil {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkMapBaselineSlowpathColdSweep is the same sweep on the
// pre-flowtable backend: per tuple, an 80-byte Key.Apply copy plus a Go
// map probe hashing the full key.
func BenchmarkMapBaselineSlowpathColdSweep(b *testing.B) {
	_, ref, cold := buildSlowpath()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _ := ref.Lookup(cold[i%len(cold)]); e != nil {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkMapBaselineLookupHit mirrors BenchmarkLookupHit (tss_test.go)
// on the map-backed reference for the hit-path speedup ratio.
func BenchmarkMapBaselineLookupHit(b *testing.B) {
	c := newMapRef[int]()
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
