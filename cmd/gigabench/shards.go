package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gigaflow"
	"gigaflow/internal/experiments"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/stats"
	"gigaflow/internal/wiredemo"
	"gigaflow/service"
)

// The shards experiment: RSS-style wire-hash sharding at 1/2/4/8 shards
// on a stateless wire mix (the wiredemo workload as raw frames) and a
// NAT-stateful mix (the dnslb scenario with a partitioned 8-backend
// pool). Each shard count reports measured wall-clock ns/pkt and the
// per-shard packet spread; the stateless side additionally decomposes
// the per-frame cost into the serial ingestion stage (RSS extraction +
// routing) and the shard stage (full decode + cache processing) and
// reports the modeled throughput of the run-to-completion design,
// 1/(t_submit + t_worker/N): one submitter ingests the batch, then the
// N shares run side by side, the last of them on the submitter itself —
// the honest scaling statement on machines (like the 2-CPU CI
// container) where parallel wall-clock speedup is physically
// unmeasurable. The "mode" field says which story the numbers tell.

// shardRow is one shard count's results.
type shardRow struct {
	Shards       int     `json:"shards"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	ModeledMpps  float64 `json:"modeled_mpps,omitempty"` // stateless only
	ShardPackets []int   `json:"shard_packets"`
	CtCreated    uint64  `json:"ct_created,omitempty"` // NAT mix only
	CtLive       int     `json:"ct_live,omitempty"`
}

// shardsReport is the BENCH_shards.json document.
type shardsReport struct {
	CPUs                int        `json:"cpus"`
	Mode                string     `json:"mode"` // "measured" | "modeled-1cpu"
	Flows               int        `json:"flows"`
	TSubmitNs           float64    `json:"t_submit_ns"`
	TWorkerNs           float64    `json:"t_worker_ns"`
	Speedup2ShardModel  float64    `json:"speedup_2shard_modeled"`
	Speedup2ShardActual float64    `json:"speedup_2shard_measured,omitempty"`
	Stateless           []shardRow `json:"stateless"`
	NATClients          int        `json:"nat_clients"`
	NATPoolSize         int        `json:"nat_pool_size"`
	NAT                 []shardRow `json:"nat_stateful"`
}

var shardCounts = []int{1, 2, 4, 8}

// runShards runs both mixes across the shard ladder and writes
// BENCH_shards.json when -json is given.
func runShards(p experiments.Params, jsonPath string) (*stats.Table, error) {
	const flows = 1024
	const rounds = 40
	clients := p.NumFlows / 100
	if clients < 512 {
		clients = 512
	}
	if clients > 8192 {
		clients = 8192
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(p.Seed))

	frames := make([]service.Frame, flows)
	for i := range frames {
		frames[i] = service.Frame{Data: wire.Encode(wiredemo.Key(i, rng))}
	}

	report := shardsReport{
		CPUs:        runtime.NumCPU(),
		Flows:       flows,
		NATClients:  clients,
		NATPoolSize: 8,
	}
	report.Mode = "modeled-1cpu"
	if report.CPUs >= 4 {
		report.Mode = "measured"
	}

	// The serial ingestion stage in isolation: what SubmitFrameBatch does
	// per frame before a shard sees it — extraction and the symmetric
	// shard hash (the bytes stay where the caller put them).
	var sink uint64
	tSubmit := func() float64 {
		const iters = 200000
		start := time.Now()
		for i := 0; i < iters; i++ {
			t, ok := wire.RSSTuple(frames[i%flows].Data)
			if !ok {
				panic("shards: clean frame failed extraction")
			}
			sink += t.SymHash() % uint64(len(shardCounts))
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}()
	_ = sink
	report.TSubmitNs = tSubmit

	runStateless := func(shards int) (shardRow, error) {
		row := shardRow{Shards: shards}
		svc, err := service.New(wiredemo.Pipeline(), service.Config{
			Workers:           shards,
			Cache:             gigaflow.CacheConfig{NumTables: p.GFTables, TableCapacity: p.GFTables * 4096},
			MicroflowCapacity: 8 * flows,
			QueueDepth:        4096,
			Latency:           service.LatencyConfig{Disable: true},
		})
		if err != nil {
			return row, err
		}
		if err := svc.Start(ctx); err != nil {
			return row, err
		}
		defer svc.Close()
		b := service.NewBatch(flows)
		if err := svc.SubmitFrameBatch(ctx, frames, b); err != nil { // warm
			return row, err
		}
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if err := svc.SubmitFrameBatch(ctx, frames, b); err != nil {
				return row, err
			}
		}
		row.NsPerPkt = float64(time.Since(start).Nanoseconds()) / float64(rounds*flows)
		sh, err := svc.ShardStats(ctx)
		if err != nil {
			return row, err
		}
		for _, s := range sh {
			row.ShardPackets = append(row.ShardPackets, int(s.Packets))
		}
		return row, nil
	}

	for _, n := range shardCounts {
		row, err := runStateless(n)
		if err != nil {
			return nil, fmt.Errorf("shards: stateless %d: %v", n, err)
		}
		report.Stateless = append(report.Stateless, row)
	}

	// Decompose the 1-shard cost and model every shard count: the serial
	// stage is paid once per frame whatever N is, the decode+process work
	// divides over the N shards.
	tWorker := report.Stateless[0].NsPerPkt - tSubmit
	if tWorker < 1 {
		tWorker = 1
	}
	report.TWorkerNs = tWorker
	bound := func(n float64) float64 { return tSubmit + tWorker/n }
	for i, row := range report.Stateless {
		report.Stateless[i].ModeledMpps = 1000 / bound(float64(row.Shards))
	}
	report.Speedup2ShardModel = bound(1) / bound(2)
	if report.Mode == "measured" {
		report.Speedup2ShardActual = report.Stateless[0].NsPerPkt / report.Stateless[1].NsPerPkt
	}

	// The NAT-stateful mix: the dnslb scenario's pipeline over an
	// 8-backend pool, which New partitions into per-shard sub-ranges at
	// Workers>1. Queries and replies ride real frames, so reply routing
	// exercises the endpoint→shard owner map from wire bytes.
	runNAT := func(shards int) (shardRow, error) {
		row := shardRow{Shards: shards}
		pool := dnslbBackends(8)
		svc, err := service.New(dnslbPipeline(pool), service.Config{
			Workers:           shards,
			Cache:             gigaflow.CacheConfig{NumTables: p.GFTables, TableCapacity: p.GFTables * 4096},
			MicroflowCapacity: 8 * clients,
			QueueDepth:        4096,
			Conntrack:         service.ConntrackConfig{Enable: true, MaxConns: 4 * clients},
		})
		if err != nil {
			return row, err
		}
		if err := svc.Start(ctx); err != nil {
			return row, err
		}
		defer svc.Close()

		queries := make([]service.Frame, clients)
		for i := range queries {
			queries[i] = service.Frame{Data: wire.Encode(dnslbClientKey(i))}
		}
		replies := make([]service.Frame, clients)
		pinned := make([]int, clients)
		for i := range pinned {
			pinned[i] = -1
		}
		qb, rb := service.NewBatch(clients), service.NewBatch(clients)
		const natRounds = 3
		start := time.Now()
		for r := 0; r < natRounds; r++ {
			if err := svc.SubmitFrameBatch(ctx, queries, qb); err != nil {
				return row, err
			}
			for i := 0; i < qb.Len(); i++ {
				res := qb.Result(i)
				if res.Err != nil {
					return row, fmt.Errorf("query %d/%d: %v", r, i, res.Err)
				}
				b := int(res.Verdict.Port) - 100
				if res.Verdict.Kind != gigaflow.VerdictOutput || b < 0 || b >= len(pool) {
					return row, fmt.Errorf("query %d/%d verdict %v", r, i, res.Verdict)
				}
				switch pinned[i] {
				case -1:
					pinned[i] = b
					ck := dnslbClientKey(i)
					rk := ck.With(gigaflow.FieldEthSrc, ck.Get(gigaflow.FieldEthDst)).
						With(gigaflow.FieldEthDst, ck.Get(gigaflow.FieldEthSrc)).
						With(gigaflow.FieldIPSrc, pool[b].IP).
						With(gigaflow.FieldIPDst, ck.Get(gigaflow.FieldIPSrc)).
						With(gigaflow.FieldTpSrc, pool[b].Port).
						With(gigaflow.FieldTpDst, ck.Get(gigaflow.FieldTpSrc))
					replies[i] = service.Frame{Data: wire.Encode(rk)}
				case b:
				default:
					return row, fmt.Errorf("client %d rebound %d→%d", i, pinned[i], b)
				}
			}
			if err := svc.SubmitFrameBatch(ctx, replies, rb); err != nil {
				return row, err
			}
			for i := 0; i < rb.Len(); i++ {
				res := rb.Result(i)
				if res.Err != nil {
					return row, fmt.Errorf("reply %d/%d: %v", r, i, res.Err)
				}
				if res.Final.Get(gigaflow.FieldIPDst) == 0 ||
					res.Final.Get(gigaflow.FieldIPSrc) != dnslbVIP {
					return row, fmt.Errorf("reply %d/%d not un-NATed to the VIP", r, i)
				}
			}
		}
		row.NsPerPkt = float64(time.Since(start).Nanoseconds()) / float64(natRounds*2*clients)
		sh, err := svc.ShardStats(ctx)
		if err != nil {
			return row, err
		}
		for _, s := range sh {
			row.ShardPackets = append(row.ShardPackets, int(s.Packets))
			row.CtCreated += s.CtCreated
			row.CtLive += s.CtLive
		}
		if row.CtCreated != uint64(clients) {
			return row, fmt.Errorf("created %d connections, want %d", row.CtCreated, clients)
		}
		return row, nil
	}

	for _, n := range shardCounts {
		row, err := runNAT(n)
		if err != nil {
			return nil, fmt.Errorf("shards: nat %d: %v", n, err)
		}
		report.NAT = append(report.NAT, row)
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
	}

	t := &stats.Table{
		Title: fmt.Sprintf("RSS wire-hash sharding: %d-flow stateless + %d-client NAT mixes (%d cpus, %s; t_submit %.0f ns, t_worker %.0f ns)",
			flows, clients, report.CPUs, report.Mode, report.TSubmitNs, report.TWorkerNs),
		Headers: []string{"mix", "shards", "ns/pkt", "modeled Mpps", "ct created", "ct live", "shard spread"},
	}
	spread := func(r shardRow) string {
		s := ""
		for i, p := range r.ShardPackets {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprintf("%d", p)
		}
		return s
	}
	for _, r := range report.Stateless {
		t.AddRow("stateless", r.Shards, fmt.Sprintf("%.0f", r.NsPerPkt),
			fmt.Sprintf("%.2f", r.ModeledMpps), "-", "-", spread(r))
	}
	for _, r := range report.NAT {
		t.AddRow("nat", r.Shards, fmt.Sprintf("%.0f", r.NsPerPkt),
			"-", r.CtCreated, r.CtLive, spread(r))
	}
	return t, nil
}
