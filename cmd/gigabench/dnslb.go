package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"gigaflow"
	"gigaflow/internal/experiments"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/stats"
	"gigaflow/service"
)

// The dnslb scenario: a DNS virtual IP fronting a pool of resolvers.
// Clients send UDP DNS queries to VIP:53; the pipeline classifies the
// first packet, conntrack tracks the connection, and a dnat action pins
// the flow to one pool backend for its lifetime. Reply traffic from the
// backend matches on ct_state=+trk+rpl and is un-NATed back to the VIP
// by ct_nat before egressing toward the client — the client only ever
// sees the VIP. The scenario exercises every stateful-datapath feature
// at once: ct_state matching, per-connection NAT bindings, matching on
// NAT-rewritten fields in a later table, and the epoch protocol — the
// first reply establishes each connection, which retires the query's
// exact-match memo but none of the main-cache entries behind it.
const (
	dnslbVIP     = 0x0a090001 // 10.9.0.1
	dnslbPort    = 53
	dnslbOutPort = 1 // client-side egress port
)

// dnslbBackends is the resolver pool: distinct IPs AND distinct ports,
// so a wrong or missing port rewrite cannot masquerade as a correct one.
func dnslbBackends(n int) []gigaflow.NATTarget {
	ts := make([]gigaflow.NATTarget, n)
	for i := range ts {
		ts[i] = gigaflow.NATTarget{IP: 0x0a140001 + uint64(i), Port: 5301 + uint64(i)}
	}
	return ts
}

// dnslbPipeline builds the 4-table LB pipeline over the given pool.
//
//	classify: replies (+trk+rpl) → reverse; new/est queries to VIP:53 → lb
//	lb:       dnat(pool 1), then match the REWRITTEN destination
//	egress:   per-backend output port (proves the binding reached the key)
//	reverse:  ct_nat un-rewrites, egress toward the client
func dnslbPipeline(pool []gigaflow.NATTarget) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("dnslb")
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
			uint64(dnslbVIP), dnslbPort)),
		10, nil, 1)
	p.MustAddRule(0, gigaflow.MustParseMatch("*"), 1,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)

	p.MustAddRule(1, gigaflow.MustParseMatch("*"), 10,
		[]gigaflow.Action{gigaflow.DNAT(1)}, 2)

	for i, t := range pool {
		m := gigaflow.MustParseMatch(fmt.Sprintf("ip_dst=%d", t.IP))
		p.MustAddRule(2, m, 10,
			[]gigaflow.Action{gigaflow.Output(uint16(100 + i))}, gigaflow.NoTable)
	}
	p.MustAddRule(2, gigaflow.MustParseMatch("*"), 1,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)

	p.MustAddRule(3, gigaflow.MustParseMatch("*"), 10,
		[]gigaflow.Action{gigaflow.CtNAT(), gigaflow.Output(dnslbOutPort)}, gigaflow.NoTable)

	p.SetNATPool(1, pool)
	return p
}

// dnslbRow is one backend mode's results in BENCH_dnslb.json.
type dnslbRow struct {
	Backend       string         `json:"backend"` // "gigaflow" | "megaflow"
	Packets       uint64         `json:"packets"`
	Queries       int            `json:"queries"`
	Replies       int            `json:"replies"`
	NsPerPkt      float64        `json:"ns_per_pkt"`
	MicroflowRate float64        `json:"microflow_hit_rate"`
	TotalHitRate  float64        `json:"total_hit_rate"`
	CtFastpath    uint64         `json:"ct_fastpath"`
	CtGuardFails  uint64         `json:"ct_guard_fails"`
	CtInvalidated uint64         `json:"ct_invalidated"`
	Pool          map[string]int `json:"pool_distribution"` // backend → pinned clients
}

// dnslbReport is the BENCH_dnslb.json document.
type dnslbReport struct {
	Clients   int        `json:"clients"`
	Rounds    int        `json:"rounds"`
	Backends  int        `json:"pool_size"`
	Seed      int64      `json:"seed"`
	DNSParsed int        `json:"dns_queries_parsed"`
	Rows      []dnslbRow `json:"rows"`
}

// dnslbClientKey is client i's query 5-tuple toward the VIP.
func dnslbClientKey(i int) gigaflow.Key {
	var k gigaflow.Key
	return k.With(gigaflow.FieldEthSrc, 0x02aabb000000|uint64(i)).
		With(gigaflow.FieldEthDst, 0x020000000001).
		With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPSrc, 0x0a010000|uint64(i&0xffff)).
		With(gigaflow.FieldIPDst, dnslbVIP).
		With(gigaflow.FieldIPProto, wire.IPProtoUDP).
		With(gigaflow.FieldTpSrc, uint64(1024+i%40000)).
		With(gigaflow.FieldTpDst, dnslbPort)
}

// runDNSLB runs the DNS load-balancer scenario on both cache backends
// and writes BENCH_dnslb.json when -json is given.
func runDNSLB(p experiments.Params, jsonPath string) (*stats.Table, error) {
	const poolSize = 4
	const rounds = 4
	clients := p.NumFlows / 25
	if clients < 256 {
		clients = 256
	}
	if clients > 20000 {
		clients = 20000
	}
	pool := dnslbBackends(poolSize)
	ctx := context.Background()

	// Pre-build every client's query frame — a real DNS question riding
	// a UDP frame — and parse it back the way an LB frontend would, so
	// the scenario's ingestion path covers the DNS decoder too.
	frames := make([][]byte, clients)
	dnsParsed := 0
	for i := range frames {
		payload := wire.AppendDNSQuery(nil, uint16(i),
			fmt.Sprintf("c%d.pool.gigaflow.test", i))
		frames[i] = wire.EncodePayload(dnslbClientKey(i), payload)
		k, info := wire.Decode(frames[i], 0)
		if pl, ok := wire.UDPPayload(frames[i], info); ok {
			if q, ok := wire.DecodeDNS(pl); ok && !q.Response && q.QType == wire.DNSTypeA {
				dnsParsed++
			}
		}
		if k.Get(gigaflow.FieldIPDst) != dnslbVIP {
			return nil, fmt.Errorf("dnslb: frame %d decoded to wrong VIP", i)
		}
	}
	if dnsParsed != clients {
		return nil, fmt.Errorf("dnslb: parsed %d DNS queries, want %d", dnsParsed, clients)
	}

	runMode := func(backend service.Backend, name string) (dnslbRow, error) {
		row := dnslbRow{Backend: name, Pool: make(map[string]int)}
		cfg := service.Config{
			// Single worker keeps the backend comparison serial and the
			// per-packet costs directly comparable. Multi-worker NAT (the
			// partitioned pool + owner-map reply routing) is measured by
			// the shards experiment.
			Workers:           1,
			Backend:           backend,
			MicroflowCapacity: 4 * clients,
			QueueDepth:        1024,
			Conntrack:         service.ConntrackConfig{Enable: true, MaxConns: 2 * clients},
		}
		if backend == service.BackendMegaflow {
			cfg.MegaflowCapacity = p.MFCap
		} else {
			cfg.Cache = gigaflow.CacheConfig{NumTables: p.GFTables, TableCapacity: p.GFTableCap}
		}
		svc, err := service.New(dnslbPipeline(pool), cfg)
		if err != nil {
			return row, err
		}
		if err := svc.Start(ctx); err != nil {
			return row, err
		}
		defer svc.Close()

		// pinned[i] is the backend index client i's connection bound to;
		// -1 until the first query answers.
		pinned := make([]int, clients)
		for i := range pinned {
			pinned[i] = -1
		}
		reply := make([][]byte, clients)

		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < clients; i++ {
				res, err := svc.SubmitFrame(ctx, 0, frames[i])
				if err != nil || res.Err != nil {
					return row, fmt.Errorf("dnslb: query %d/%d: %v %v", r, i, err, res.Err)
				}
				row.Queries++
				if res.Verdict.Kind != gigaflow.VerdictOutput {
					return row, fmt.Errorf("dnslb: query %d/%d not forwarded: %v", r, i, res.Verdict)
				}
				b := int(res.Verdict.Port) - 100
				if b < 0 || b >= poolSize {
					return row, fmt.Errorf("dnslb: query %d/%d egressed on port %d", r, i, res.Verdict.Port)
				}
				if got := res.Final.Get(gigaflow.FieldIPDst); got != pool[b].IP ||
					res.Final.Get(gigaflow.FieldTpDst) != pool[b].Port {
					return row, fmt.Errorf("dnslb: query %d/%d rewritten to %x, want backend %d", r, i, got, b)
				}
				if pinned[i] == -1 {
					pinned[i] = b
					// The reply frame the pinned backend would send: the
					// translated tuple inverted.
					rk := dnslbClientKey(i)
					rk = rk.With(gigaflow.FieldEthSrc, rk.Get(gigaflow.FieldEthDst)).
						With(gigaflow.FieldEthDst, rk.Get(gigaflow.FieldEthSrc)).
						With(gigaflow.FieldIPSrc, pool[b].IP).
						With(gigaflow.FieldIPDst, dnslbClientKey(i).Get(gigaflow.FieldIPSrc)).
						With(gigaflow.FieldTpSrc, pool[b].Port).
						With(gigaflow.FieldTpDst, dnslbClientKey(i).Get(gigaflow.FieldTpSrc))
					reply[i] = wire.Encode(rk)
				} else if pinned[i] != b {
					return row, fmt.Errorf("dnslb: client %d rebound %d→%d mid-connection", i, pinned[i], b)
				}
			}
			for i := 0; i < clients; i++ {
				res, err := svc.SubmitFrame(ctx, 0, reply[i])
				if err != nil || res.Err != nil {
					return row, fmt.Errorf("dnslb: reply %d/%d: %v %v", r, i, err, res.Err)
				}
				row.Replies++
				if res.Verdict.Kind != gigaflow.VerdictOutput || res.Verdict.Port != dnslbOutPort {
					return row, fmt.Errorf("dnslb: reply %d/%d verdict %v, want output(%d)", r, i, res.Verdict, dnslbOutPort)
				}
				// The client must see the VIP, never the backend.
				if res.Final.Get(gigaflow.FieldIPSrc) != dnslbVIP ||
					res.Final.Get(gigaflow.FieldTpSrc) != dnslbPort {
					return row, fmt.Errorf("dnslb: reply %d/%d leaked backend address: src=%x:%d", r, i,
						res.Final.Get(gigaflow.FieldIPSrc), res.Final.Get(gigaflow.FieldTpSrc))
				}
			}
		}
		elapsed := time.Since(start)

		st, err := svc.Stats(ctx)
		if err != nil {
			return row, err
		}
		row.Packets = st.Packets
		row.NsPerPkt = float64(elapsed.Nanoseconds()) / float64(row.Queries+row.Replies)
		row.MicroflowRate = float64(st.MicroflowHits) / float64(st.Packets)
		row.TotalHitRate = st.TotalHitRate()
		row.CtFastpath = st.CtFastpath
		row.CtGuardFails = st.CtGuardFails
		row.CtInvalidated = st.CtInvalidated
		for i := 0; i < clients; i++ {
			t := pool[pinned[i]]
			row.Pool[fmt.Sprintf("%d.%d.%d.%d:%d",
				t.IP>>24&0xff, t.IP>>16&0xff, t.IP>>8&0xff, t.IP&0xff, t.Port)]++
		}
		return row, nil
	}

	gfRow, err := runMode(service.BackendGigaflow, "gigaflow")
	if err != nil {
		return nil, err
	}
	mfRow, err := runMode(service.BackendMegaflow, "megaflow")
	if err != nil {
		return nil, err
	}
	report := dnslbReport{
		Clients:   clients,
		Rounds:    rounds,
		Backends:  poolSize,
		Seed:      p.Seed,
		DNSParsed: dnsParsed,
		Rows:      []dnslbRow{gfRow, mfRow},
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
		Title: fmt.Sprintf("DNS LB: %d clients x %d query/reply rounds, %d-backend pool",
			clients, rounds, poolSize),
		Headers: []string{"backend", "packets", "ns/pkt", "uflow hit", "total hit",
			"ct fastpath", "ct guard fails", "ct invalidated", "pool spread"},
	}
	for _, r := range report.Rows {
		names := make([]string, 0, len(r.Pool))
		for b := range r.Pool {
			names = append(names, b)
		}
		sort.Strings(names)
		spread := ""
		for _, b := range names {
			if spread != "" {
				spread += " "
			}
			spread += fmt.Sprintf("%d", r.Pool[b])
		}
		t.AddRow(r.Backend, r.Packets,
			fmt.Sprintf("%.0f", r.NsPerPkt),
			fmt.Sprintf("%.1f%%", 100*r.MicroflowRate),
			fmt.Sprintf("%.1f%%", 100*r.TotalHitRate),
			r.CtFastpath, r.CtGuardFails, r.CtInvalidated, spread)
	}
	return t, nil
}
