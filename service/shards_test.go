// Sharding: the per-flow pipeline the oracle's shard-count cells run,
// NAT pool partitioning's refusals, and per-shard accounting under
// concurrent submitters.
package service

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// perFlowPipeline builds a 3-table pipeline in which EVERY table matches
// a flow-unique field (source MAC, source IP, source port), so no two
// flows ever share a sub-traversal cache entry. That makes aggregate
// cache statistics placement-invariant: however the flows are scattered
// over shards, each flow contributes exactly its own misses, installs,
// entries, and hits — which is what lets the oracle compare stats across
// shard counts.
func perFlowPipeline(flows int) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("perflow")
	p.AddTable(0, "src-mac", gigaflow.NewFieldSet(gigaflow.FieldEthSrc))
	p.AddTable(1, "src-ip", gigaflow.NewFieldSet(gigaflow.FieldIPSrc))
	p.AddTable(2, "src-port", gigaflow.NewFieldSet(gigaflow.FieldTpSrc))
	for i := 0; i < flows; i++ {
		p.MustAddRule(0, gigaflow.MustParseMatch(fmt.Sprintf("eth_src=%d", 0x020000000000|uint64(i))),
			10, nil, 1)
		p.MustAddRule(1, gigaflow.MustParseMatch(fmt.Sprintf("ip_src=%d", 0x0a000100+uint64(i))),
			10, nil, 2)
		p.MustAddRule(2, gigaflow.MustParseMatch(fmt.Sprintf("tp_src=%d", 10000+i)),
			10, []gigaflow.Action{gigaflow.Output(uint16(1 + i%8))}, gigaflow.NoTable)
	}
	return p
}

// perFlowKey is flow i's 5-tuple for perFlowPipeline.
func perFlowKey(i int) gigaflow.Key {
	var k gigaflow.Key
	return k.With(gigaflow.FieldEthSrc, 0x020000000000|uint64(i)).
		With(gigaflow.FieldEthDst, 0x020000000001).
		With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPSrc, 0x0a000100+uint64(i)).
		With(gigaflow.FieldIPDst, 0x0a000001).
		With(gigaflow.FieldIPProto, wire.IPProtoTCP).
		With(gigaflow.FieldTpSrc, uint64(10000+i)).
		With(gigaflow.FieldTpDst, 80)
}

// TestNATPoolSmallerThanWorkers: partitioning needs at least one target
// per shard; New must refuse the configuration with a descriptive error
// instead of leaving some shard unable to bind.
func TestNATPoolSmallerThanWorkers(t *testing.T) {
	_, err := New(statefulPipeline(), Config{
		Workers:   poolN + 1,
		Conntrack: ConntrackConfig{Enable: true},
	})
	if err == nil || !strings.Contains(err.Error(), "at least one target per worker") {
		t.Fatalf("err = %v, want pool-too-small rejection", err)
	}
}

// TestNATEndpointConflict: one endpoint owned by two different shards
// (via two pools partitioning it differently) would make reply routing
// ambiguous; New must reject it.
func TestNATEndpointConflict(t *testing.T) {
	p := statefulPipeline()
	pool := append([]gigaflow.NATTarget(nil), p.NATPool(1)...)
	slices.Reverse(pool)
	p.SetNATPool(2, pool) // reversed: partitions disagree
	_, err := New(p, Config{Workers: 2, Conntrack: ConntrackConfig{Enable: true}})
	if err == nil || !strings.Contains(err.Error(), "differently-owned") {
		t.Fatalf("err = %v, want endpoint-conflict rejection", err)
	}
}

// TestShardStats: the per-shard snapshot must account for every packet
// and piece of flow state, shard by shard.
func TestShardStats(t *testing.T) {
	s, ctx := start(t, perFlowPipeline(32), Config{Workers: 4, Cache: gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024}}), context.Background()
	b := NewBatch(32)
	frames := make([]Frame, 32)
	for i := range frames {
		frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
	}
	if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
		t.Fatal(err)
	}
	shards, err := s.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shard rows, want 4", len(shards))
	}
	var packets uint64
	var entries, busy int
	for i, sh := range shards {
		if sh.Worker != i {
			t.Errorf("row %d has Worker=%d", i, sh.Worker)
		}
		packets += sh.Packets
		entries += sh.CacheEntries
		if sh.Packets > 0 {
			busy++
		}
	}
	if packets != 32 {
		t.Errorf("shard packets sum to %d, want 32", packets)
	}
	if entries != s.CacheEntries() {
		t.Errorf("shard cache entries sum to %d, want %d", entries, s.CacheEntries())
	}
	if busy < 2 {
		t.Errorf("only %d of 4 shards saw traffic — hash looks degenerate", busy)
	}
}

// TestSubmitFrameBatchConcurrent hammers the wire-path ingestion from
// many submitter goroutines at once — shard-local decode means
// frameMetrics is updated concurrently by workers AND submitters (the
// fallback path), which must be race-free and must not lose counts.
// Run with -race to make the check meaningful.
func TestSubmitFrameBatchConcurrent(t *testing.T) {
	const submitters, perBatch, batches = 8, 32, 25
	s, ctx := start(t, perFlowPipeline(64), Config{
		Workers:    4,
		Cache:      gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		QueueDepth: 4096,
	}), context.Background()
	arp := wire.Encode(perFlowKey(0).With(gigaflow.FieldEthType, 0x0806))
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := NewBatch(perBatch)
			frames := make([]Frame, perBatch)
			for n := 0; n < batches; n++ {
				for i := range frames {
					switch i % 8 {
					case 6:
						frames[i] = Frame{Data: arp} // extractor fallback, still forwarded
					case 7:
						frames[i] = Frame{Data: arp[:10]} // rejected: short frame
					default:
						frames[i] = Frame{Data: wire.Encode(perFlowKey((g*perBatch + i) % 64))}
					}
				}
				if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < b.Len(); i++ {
					if err := b.Result(i).Err; (err == nil) == (i%8 == 7) { // only the short frames are rejected
						t.Errorf("frame %d: %v", i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Not one frame lost or double-counted across the concurrent
	// submitter-side and shard-side decodes.
	if got, want := s.frames.frames.Value(), uint64(submitters*perBatch*batches); got != want {
		t.Errorf("frames counter = %d, want %d", got, want)
	}
}
