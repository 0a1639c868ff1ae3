// Differential tests for RSS-style wire-hash sharding: the sharded
// service must be observationally identical to Workers=1 — bit-for-bit
// on a stateless mix, and invariant-preserving (modulo which backend a
// partitioned NAT pool binds) on a stateful one.
package service

import (
	"context"
	"fmt"
	"os"
	"runtime"
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

// TestShardScalingGate is the sharding floor behind `make bench-gate`:
// at 2 shards the stateless wire mix must sustain at least 1.5x the
// 1-shard throughput, and the extractor path must stay at 0 allocs/op.
//
// The scaling claim is checked in the mode the machine can support. With
// 4+ CPUs it is measured directly: wall-clock SubmitFrameBatch
// throughput at Workers=2 vs Workers=1. On smaller boxes (this project's
// CI container has two CPUs, shared with the benchmark loop itself) the
// gate measures the two REAL stage costs — t_submit, the serial
// per-frame ingestion work (RSS extraction, shard routing, filing the
// frame under its shard), and t_worker, everything a shard does (full
// decode plus cache processing), derived from the measured 1-shard
// end-to-end cost — and applies the bound of the run-to-completion
// design: one submitter ingests the whole batch, then the N shares run
// side by side (N-1 on worker goroutines, the last on the submitter
// itself), so a batch costs t_submit + t_worker/N per frame and the
// modeled 2-shard speedup is (ts+tw)/(ts+tw/2). It reaches 1.5x only
// while the serial stage stays at or under half the shard's work — the
// same condition the old pipeline bound max(ts,tw)/max(ts,tw/2) put on
// it — so the floor still fails if ingestion regresses. (Measured when
// the model was re-derived, PR 15: t_submit 30 ns, t_worker 76 ns.) The
// model leaves out the wake-up a queued share pays, which on a 2-CPU
// box dominates a 64-frame batch; that is why it is only the fallback.
// Skipped unless GF_BENCH_GATE=1.
func TestShardScalingGate(t *testing.T) {
	if os.Getenv("GF_BENCH_GATE") != "1" {
		t.Skip("set GF_BENCH_GATE=1 to run the shard scaling gate")
	}
	const flows = 256
	frames := make([]Frame, flows)
	for i := range frames {
		frames[i] = Frame{Data: wire.Encode(perFlowKey(i))}
	}

	// Floor 1: the extractor path allocates nothing.
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := wire.RSSHash(frames[7].Data); !ok {
			t.Fatal("extraction failed")
		}
	}); n != 0 {
		t.Fatalf("RSSHash allocates %.1f/op, want 0", n)
	}

	ctx := context.Background()
	startShards := func(workers int) *Service {
		s, err := New(perFlowPipeline(flows), Config{
			Workers:           workers,
			Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 4096},
			MicroflowCapacity: 8 * flows,
			Latency:           LatencyConfig{Disable: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		// Warm every flow so the measurement is the steady-state hit path.
		warm := NewBatch(flows)
		if err := s.SubmitFrameBatch(ctx, frames, warm); err != nil {
			t.Fatal(err)
		}
		return s
	}
	perFrameNs := func(s *Service) float64 {
		r := testing.Benchmark(func(bb *testing.B) {
			batch := NewBatch(flows)
			for sent := 0; sent < bb.N; sent += flows {
				if err := s.SubmitFrameBatch(ctx, frames, batch); err != nil {
					bb.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}

	s1 := startShards(1)
	t1 := perFrameNs(s1)

	// The serial ingestion stage in isolation: extract, route, file the
	// frame under its shard — everything SubmitFrameBatch does per frame
	// before a shard sees it. Also held to 0 allocs/op at steady state
	// (the shares are warm after the first fill).
	scratch := NewBatch(flows)
	fill := func() {
		scratch.Reset()
		scratch.shape(len(s1.workers))
		scratch.ingest(s1, frames)
	}
	sub := testing.Benchmark(func(bb *testing.B) {
		for sent := 0; sent < bb.N; sent += flows {
			fill()
		}
	})
	tSubmit := float64(sub.NsPerOp())
	if n := testing.AllocsPerRun(200, fill); n != 0 {
		t.Fatalf("warm ingestion path allocates %.1f/op, want 0", n)
	}

	tWorker := t1 - tSubmit
	if tWorker <= 0 {
		t.Fatalf("stage decomposition degenerate: total %.1f ns <= submit %.1f ns", t1, tSubmit)
	}
	modeled := (tSubmit + tWorker) / (tSubmit + tWorker/2)

	cpus := runtime.NumCPU()
	if cpus >= 4 {
		s2 := startShards(2)
		t2 := perFrameNs(s2)
		speedup := t1 / t2
		fmt.Printf("bench-gate: shards measured (%d cpus): 1-shard %.0f ns/pkt, 2-shard %.0f ns/pkt, speedup %.2fx (floor 1.50x); modeled %.2fx; extractor 0 allocs/op\n",
			cpus, t1, t2, speedup, modeled)
		if speedup < 1.5 {
			t.Fatalf("2-shard throughput is only %.2fx of 1-shard (floor 1.5x): %.0f vs %.0f ns/pkt",
				speedup, t2, t1)
		}
		return
	}
	fmt.Printf("bench-gate: shards modeled (%d cpu): t_submit %.0f ns, t_worker %.0f ns, run-to-completion 2-shard speedup %.2fx (floor 1.50x); extractor 0 allocs/op\n",
		cpus, tSubmit, tWorker, modeled)
	if modeled < 1.5 {
		t.Fatalf("modeled 2-shard speedup is only %.2fx (floor 1.5x): t_submit %.0f ns vs t_worker %.0f ns — the serial ingestion stage is too heavy",
			modeled, tSubmit, tWorker)
	}
}
