// Differential tests for RSS-style wire-hash sharding: the sharded
// service must be observationally identical to Workers=1 — bit-for-bit
// on a stateless mix, and invariant-preserving (modulo which backend a
// partitioned NAT pool binds) on a stateful one.
package service

import (
	"context"
	"fmt"
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
// entries, and hits — the property the bit-identical differential needs.
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

// runStatelessMix submits rounds× every flow's frame through
// SubmitFrameBatch on a service with the given worker count and returns
// the per-index results, aggregate stats, and total cache entries.
func runStatelessMix(t *testing.T, workers, flows, rounds int) ([]Result, gigaflow.VSwitchStats, int) {
	t.Helper()
	s, err := New(perFlowPipeline(flows), Config{
		Workers:           workers,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		MicroflowCapacity: 8 * flows,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	frames := make([]Frame, flows)
	for i := range frames {
		frames[i] = Frame{InPort: 0, Data: wire.Encode(perFlowKey(i))}
	}
	b := NewBatch(flows)
	var results []Result
	for r := 0; r < rounds; r++ {
		if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
			t.Fatalf("workers=%d round %d: %v", workers, r, err)
		}
		for i := 0; i < b.Len(); i++ {
			if got, want := b.Key(i), perFlowKey(i); got != want {
				t.Fatalf("workers=%d round %d: frame %d gathered key %v, want %v",
					workers, r, i, got, want)
			}
			results = append(results, b.Result(i))
		}
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return results, st, s.CacheEntries()
}

// TestShardedStatelessBitIdentical: on the per-flow-exact stateless mix,
// per-packet results AND aggregate statistics are bit-identical across
// 1, 2, and 4 shards — wire-hash routing plus shard-local decode changes
// where work happens, never what it computes.
func TestShardedStatelessBitIdentical(t *testing.T) {
	const flows, rounds = 64, 5
	baseRes, baseSt, baseEntries := runStatelessMix(t, 1, flows, rounds)
	for _, workers := range []int{2, 4} {
		res, st, entries := runStatelessMix(t, workers, flows, rounds)
		if len(res) != len(baseRes) {
			t.Fatalf("workers=%d produced %d results, want %d", workers, len(res), len(baseRes))
		}
		for i := range res {
			if res[i].Err != nil || baseRes[i].Err != nil {
				t.Fatalf("workers=%d result %d errored: %v / %v", workers, i, res[i].Err, baseRes[i].Err)
			}
			if res[i].Verdict != baseRes[i].Verdict || res[i].Final != baseRes[i].Final ||
				res[i].CacheHit != baseRes[i].CacheHit {
				t.Fatalf("workers=%d result %d diverged:\n  got  %+v\n  want %+v",
					workers, i, res[i], baseRes[i])
			}
		}
		if st != baseSt {
			t.Errorf("workers=%d stats diverged:\n  got  %+v\n  want %+v", workers, st, baseSt)
		}
		if entries != baseEntries {
			t.Errorf("workers=%d cache entries = %d, want %d", workers, entries, baseEntries)
		}
	}
}

// natLBPipeline is the dnslb scenario's 4-table pipeline (classify →
// dnat pool → per-backend egress → ct_nat reverse), reused here as the
// stateful differential workload.
func natLBPipeline(pool []gigaflow.NATTarget) *gigaflow.Pipeline {
	const vip, port = 0x0a090001, 53
	p := gigaflow.NewPipeline("natlb")
	p.AddTable(0, "classify", gigaflow.NewFieldSet(
		gigaflow.FieldEthType, gigaflow.FieldIPProto, gigaflow.FieldIPDst,
		gigaflow.FieldTpDst, gigaflow.FieldCtState))
	p.AddTable(1, "lb", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "egress", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(3, "reverse", gigaflow.NewFieldSet(gigaflow.FieldIPSrc))
	p.MustAddRule(0, gigaflow.MustParseMatch("eth_type=0x0800,ip_proto=17,ct_state=0x11/0x11"),
		20, nil, 3)
	p.MustAddRule(0, gigaflow.MustParseMatch(
		fmt.Sprintf("eth_type=0x0800,ip_proto=17,ip_dst=%d,tp_dst=%d,ct_state=0x01/0x11",
			uint64(vip), port)),
		10, nil, 1)
	p.MustAddRule(0, gigaflow.MustParseMatch("*"), 1,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)
	p.MustAddRule(1, gigaflow.MustParseMatch("*"), 10,
		[]gigaflow.Action{gigaflow.DNAT(1)}, 2)
	for i, tg := range pool {
		p.MustAddRule(2, gigaflow.MustParseMatch(fmt.Sprintf("ip_dst=%d", tg.IP)), 10,
			[]gigaflow.Action{gigaflow.Output(uint16(100 + i))}, gigaflow.NoTable)
	}
	p.MustAddRule(2, gigaflow.MustParseMatch("*"), 1,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)
	p.MustAddRule(3, gigaflow.MustParseMatch("*"), 10,
		[]gigaflow.Action{gigaflow.CtNAT(), gigaflow.Output(1)}, gigaflow.NoTable)
	p.SetNATPool(1, pool)
	return p
}

func natLBClientKey(i int) gigaflow.Key {
	var k gigaflow.Key
	return k.With(gigaflow.FieldEthSrc, 0x02aabb000000|uint64(i)).
		With(gigaflow.FieldEthDst, 0x020000000001).
		With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPSrc, 0x0a010000|uint64(i&0xffff)).
		With(gigaflow.FieldIPDst, 0x0a090001).
		With(gigaflow.FieldIPProto, wire.IPProtoUDP).
		With(gigaflow.FieldTpSrc, uint64(1024+i)).
		With(gigaflow.FieldTpDst, 53)
}

// natLBOutcome is one worker-count's observable summary of the stateful
// mix: everything that must be invariant under sharding. Which backend a
// client pins to legitimately differs (partitioned pools offer each
// shard a different sub-range), so the pinning itself is excluded — only
// its consistency is asserted inline.
type natLBOutcome struct {
	packets   uint64
	ctCreated uint64
	ctLive    int
}

// runNATMix drives the LB scenario over real wire frames at the given
// worker count: each client sends queries to the VIP and receives
// replies from its pinned backend, interleaved over rounds. It asserts
// the per-packet stateful invariants inline and returns the aggregate
// outcome for cross-worker-count comparison.
func runNATMix(t *testing.T, workers, clients, rounds int) natLBOutcome {
	t.Helper()
	const vip, vipPort = uint64(0x0a090001), uint64(53)
	pool := make([]gigaflow.NATTarget, 8)
	for i := range pool {
		pool[i] = gigaflow.NATTarget{IP: 0x0a140001 + uint64(i), Port: 5301 + uint64(i)}
	}
	s, err := New(natLBPipeline(pool), Config{
		Workers:           workers,
		Cache:             gigaflow.CacheConfig{NumTables: 4, TableCapacity: 4 * 1024},
		MicroflowCapacity: 8 * clients,
		Conntrack:         ConntrackConfig{Enable: true, MaxConns: 4 * clients},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	queries := make([]Frame, clients)
	for i := range queries {
		queries[i] = Frame{Data: wire.Encode(natLBClientKey(i))}
	}
	replies := make([]Frame, clients)
	pinned := make([]int, clients)
	for i := range pinned {
		pinned[i] = -1
	}

	qb, rb := NewBatch(clients), NewBatch(clients)
	for r := 0; r < rounds; r++ {
		if err := s.SubmitFrameBatch(ctx, queries, qb); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < qb.Len(); i++ {
			res := qb.Result(i)
			if res.Err != nil {
				t.Fatalf("workers=%d query %d/%d: %v", workers, r, i, res.Err)
			}
			b := int(res.Verdict.Port) - 100
			if res.Verdict.Kind != gigaflow.VerdictOutput || b < 0 || b >= len(pool) {
				t.Fatalf("workers=%d query %d/%d verdict %v", workers, r, i, res.Verdict)
			}
			if got := res.Final.Get(gigaflow.FieldIPDst); got != pool[b].IP ||
				res.Final.Get(gigaflow.FieldTpDst) != pool[b].Port {
				t.Fatalf("workers=%d query %d/%d rewritten to %x:%d, egressed toward backend %d",
					workers, r, i, got, res.Final.Get(gigaflow.FieldTpDst), b)
			}
			switch pinned[i] {
			case -1:
				pinned[i] = b
				// The reply the pinned backend sends: the translated tuple,
				// inverted, as real frame bytes.
				ck := natLBClientKey(i)
				rk := ck.With(gigaflow.FieldEthSrc, ck.Get(gigaflow.FieldEthDst)).
					With(gigaflow.FieldEthDst, ck.Get(gigaflow.FieldEthSrc)).
					With(gigaflow.FieldIPSrc, pool[b].IP).
					With(gigaflow.FieldIPDst, ck.Get(gigaflow.FieldIPSrc)).
					With(gigaflow.FieldTpSrc, pool[b].Port).
					With(gigaflow.FieldTpDst, ck.Get(gigaflow.FieldTpSrc))
				replies[i] = Frame{Data: wire.Encode(rk)}
			case b:
			default:
				t.Fatalf("workers=%d client %d rebound %d→%d mid-connection", workers, i, pinned[i], b)
			}
		}
		if err := s.SubmitFrameBatch(ctx, replies, rb); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rb.Len(); i++ {
			res := rb.Result(i)
			if res.Err != nil {
				t.Fatalf("workers=%d reply %d/%d: %v", workers, r, i, res.Err)
			}
			if res.Verdict.Kind != gigaflow.VerdictOutput || res.Verdict.Port != 1 {
				t.Fatalf("workers=%d reply %d/%d verdict %v, want output(1)", workers, r, i, res.Verdict)
			}
			// Un-NATing must restore the VIP bit-exactly — the client can
			// never see the backend's address.
			if res.Final.Get(gigaflow.FieldIPSrc) != vip ||
				res.Final.Get(gigaflow.FieldTpSrc) != vipPort {
				t.Fatalf("workers=%d reply %d/%d leaked backend: src=%x:%d", workers, r, i,
					res.Final.Get(gigaflow.FieldIPSrc), res.Final.Get(gigaflow.FieldTpSrc))
			}
		}
	}

	// With partitioned pools every binding must come from the shard that
	// owns the client's connection — cross-check via ShardStats.
	shards, err := s.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var out natLBOutcome
	for _, sh := range shards {
		out.packets += sh.Packets
		out.ctCreated += sh.CtCreated
		out.ctLive += sh.CtLive
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.packets != st.Packets {
		t.Fatalf("workers=%d ShardStats packets %d != Stats packets %d", workers, out.packets, st.Packets)
	}
	return out
}

// TestShardedNATInvariants: the stateful LB mix runs at Workers>1 with
// partitioned NAT pools, and every sharding-invariant observable —
// packet count, connections created, connections live — matches the
// Workers=1 run exactly. (Backend choice is legitimately
// placement-dependent and asserted only for per-connection consistency.)
func TestShardedNATInvariants(t *testing.T) {
	const clients, rounds = 128, 4
	base := runNATMix(t, 1, clients, rounds)
	if base.ctCreated != clients {
		t.Fatalf("baseline created %d connections, want %d", base.ctCreated, clients)
	}
	for _, workers := range []int{2, 4} {
		got := runNATMix(t, workers, clients, rounds)
		if got != base {
			t.Errorf("workers=%d outcome %+v, want %+v", workers, got, base)
		}
	}
}

// TestNATPoolSmallerThanWorkers: partitioning needs at least one target
// per shard; New must refuse the configuration with a descriptive error
// instead of leaving some shard unable to bind.
func TestNATPoolSmallerThanWorkers(t *testing.T) {
	pool := []gigaflow.NATTarget{{IP: 1, Port: 1}, {IP: 2, Port: 2}}
	_, err := New(natLBPipeline(pool), Config{
		Workers:   4,
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
	a := gigaflow.NATTarget{IP: 1, Port: 1}
	b := gigaflow.NATTarget{IP: 2, Port: 2}
	p := natLBPipeline([]gigaflow.NATTarget{a, b})
	p.SetNATPool(2, []gigaflow.NATTarget{b, a}) // reversed: partitions disagree
	_, err := New(p, Config{Workers: 2, Conntrack: ConntrackConfig{Enable: true}})
	if err == nil || !strings.Contains(err.Error(), "differently-owned") {
		t.Fatalf("err = %v, want endpoint-conflict rejection", err)
	}
}

// TestShardStats: the per-shard snapshot must account for every packet
// and piece of flow state, shard by shard.
func TestShardStats(t *testing.T) {
	s, err := New(perFlowPipeline(32), Config{
		Workers: 4,
		Cache:   gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	s, err := New(perFlowPipeline(64), Config{
		Workers:    4,
		Cache:      gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 1024},
		QueueDepth: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	arp := wire.Encode(perFlowKey(0).With(gigaflow.FieldEthType, 0x0806))
	var wg sync.WaitGroup
	errCh := make(chan error, submitters)
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
					errCh <- err
					return
				}
				for i := 0; i < b.Len(); i++ {
					res := b.Result(i)
					if i%8 == 7 {
						if res.Err == nil {
							errCh <- fmt.Errorf("short frame %d not rejected", i)
							return
						}
						continue
					}
					if res.Err != nil {
						errCh <- fmt.Errorf("frame %d: %v", i, res.Err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Not one frame lost or double-counted across the concurrent
	// submitter-side and shard-side decodes.
	if got, want := s.frames.frames.Value(), uint64(submitters*perBatch*batches); got != want {
		t.Errorf("frames counter = %d, want %d", got, want)
	}
}
