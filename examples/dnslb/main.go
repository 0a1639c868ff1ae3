// DNS load balancer: a virtual IP fronting a pool of resolvers, driven
// over the wire path on both cache backends. Clients send UDP DNS queries
// to VIP:53; the pipeline classifies the first packet, conntrack tracks
// the connection, and a dnat action pins the flow to one pool backend for
// its lifetime. Reply traffic from the backend matches ct_state=+trk+rpl
// and is un-NATed back to the VIP by ct_nat before egressing toward the
// client — the client only ever sees the VIP. The scenario exercises
// every stateful-datapath feature at once: ct_state matching,
// per-connection NAT bindings, matching on NAT-rewritten fields in a
// later table, and held results — each direction's first walk is held on
// its connection and serves the rest of the exchange, the reply that
// establishes the connection included.
//
// Every packet is checked: a query must egress on its backend's port with
// the backend's address written into it, a client must stay pinned to one
// backend, and a reply must leave on the client port carrying the VIP.
// Any violation exits non-zero.
//
//	go run ./examples/dnslb
package main

import (
	"context"
	"fmt"
	"os"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

const (
	vip        = 0x0a090001 // 10.9.0.1
	vipPort    = 53
	clientPort = 1 // client-side egress port
	poolSize   = 4
	clients    = 4000
	rounds     = 4 // query/reply rounds per client
)

func main() {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		rep, err := run(backend, buildPipeline())
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnslb: %s: %v\n", backend, err)
			os.Exit(1)
		}
		fmt.Printf("== %s: %d clients x %d query/reply rounds, %d-backend pool ==\n",
			backend, clients, rounds, poolSize)
		st := rep.stats
		fmt.Printf("packets            %d\n", st.Packets)
		fmt.Printf("total hit rate     %.3f\n", st.TotalHitRate())
		fmt.Printf("microflow hit rate %.3f\n", float64(st.MicroflowHits)/float64(st.Packets))
		fmt.Printf("ct_fastpath        %d\n", st.CtFastpath)
		fmt.Printf("ct_guard_fails     %d\n", st.CtGuardFails)
		for b, t := range backends() {
			fmt.Printf("pool %d.%d.%d.%d:%d  %d clients\n",
				t.IP>>24&0xff, t.IP>>16&0xff, t.IP>>8&0xff, t.IP&0xff, t.Port, rep.pinned[b])
		}
		fmt.Println()
	}
}

// backends is the resolver pool: distinct IPs AND distinct ports, so a
// wrong or missing port rewrite cannot masquerade as a correct one.
func backends() []gigaflow.NATTarget {
	ts := make([]gigaflow.NATTarget, poolSize)
	for i := range ts {
		ts[i] = gigaflow.NATTarget{IP: 0x0a140001 + uint64(i), Port: 5301 + uint64(i)}
	}
	return ts
}

// buildPipeline builds the 4-table LB pipeline over the pool.
//
//	classify: replies (+trk+rpl) → reverse; new/est queries to VIP:53 → lb
//	lb:       dnat(pool 1), then match the REWRITTEN destination
//	egress:   per-backend output port (proves the binding reached the key)
//	reverse:  ct_nat un-rewrites, egress toward the client
func buildPipeline() *gigaflow.Pipeline {
	pool := backends()
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
			uint64(vip), vipPort)),
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
		[]gigaflow.Action{gigaflow.CtNAT(), gigaflow.Output(clientPort)}, gigaflow.NoTable)

	p.SetNATPool(1, pool)
	return p
}

// clientKey is client i's query 5-tuple toward the VIP.
func clientKey(i int) gigaflow.Key {
	var k gigaflow.Key
	return k.With(gigaflow.FieldEthSrc, 0x02aabb000000|uint64(i)).
		With(gigaflow.FieldEthDst, 0x020000000001).
		With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPSrc, 0x0a010000|uint64(i&0xffff)).
		With(gigaflow.FieldIPDst, vip).
		With(gigaflow.FieldIPProto, wire.IPProtoUDP).
		With(gigaflow.FieldTpSrc, uint64(1024+i%40000)).
		With(gigaflow.FieldTpDst, vipPort)
}

// replyKey is what backend t answers client i with: the translated tuple
// inverted.
func replyKey(i int, t gigaflow.NATTarget) gigaflow.Key {
	q := clientKey(i)
	return q.With(gigaflow.FieldEthSrc, q.Get(gigaflow.FieldEthDst)).
		With(gigaflow.FieldEthDst, q.Get(gigaflow.FieldEthSrc)).
		With(gigaflow.FieldIPSrc, t.IP).
		With(gigaflow.FieldIPDst, q.Get(gigaflow.FieldIPSrc)).
		With(gigaflow.FieldTpSrc, t.Port).
		With(gigaflow.FieldTpDst, q.Get(gigaflow.FieldTpSrc))
}

// queryFrames builds every client's query frame — a real DNS question
// riding a UDP frame — and parses it back the way an LB frontend would.
func queryFrames() ([][]byte, error) {
	frames := make([][]byte, clients)
	for i := range frames {
		payload := wire.AppendDNSQuery(nil, uint16(i), fmt.Sprintf("c%d.pool.gigaflow.test", i))
		frames[i] = wire.EncodePayload(clientKey(i), payload)
		k, info := wire.Decode(frames[i], 0)
		if k.Get(gigaflow.FieldIPDst) != vip {
			return nil, fmt.Errorf("frame %d decoded to wrong VIP", i)
		}
		pl, ok := wire.UDPPayload(frames[i], info)
		if !ok {
			return nil, fmt.Errorf("frame %d carries no UDP payload", i)
		}
		if q, ok := wire.DecodeDNS(pl); !ok || q.Response || q.QType != wire.DNSTypeA {
			return nil, fmt.Errorf("frame %d is not a DNS A query", i)
		}
	}
	return frames, nil
}

// report is one backend's run: the service counters and how many clients
// each pool member ended up serving.
type report struct {
	stats  gigaflow.VSwitchStats
	pinned [poolSize]int
}

// run drives the scenario through a service over p, which is
// buildPipeline() unless a test has broken it on purpose.
func run(backend string, p *gigaflow.Pipeline) (report, error) {
	var rep report
	pool := backends()
	frames, err := queryFrames()
	if err != nil {
		return rep, err
	}
	cfg := service.Config{
		Workers:           1, // one shard: one NAT pool, so both backends bind alike
		MicroflowCapacity: 4 * clients,
		Conntrack:         service.ConntrackConfig{Enable: true, MaxConns: 2 * clients},
	}
	if backend == "megaflow" {
		cfg.MegaflowCapacity = 32768
	} else {
		cfg.Cache = gigaflow.CacheConfig{NumTables: 4, TableCapacity: 8192}
	}
	svc, err := service.New(p, cfg)
	if err != nil {
		return rep, err
	}
	ctx := context.Background()
	if err := svc.Start(ctx); err != nil {
		return rep, err
	}
	defer svc.Close()

	// pinned[i] is the backend index client i's connection bound to; -1
	// until the first query answers.
	pinned := make([]int, clients)
	for i := range pinned {
		pinned[i] = -1
	}
	reply := make([][]byte, clients)
	for r := 0; r < rounds; r++ {
		for i := 0; i < clients; i++ {
			res, err := svc.SubmitFrame(ctx, 0, frames[i])
			if err != nil || res.Err != nil {
				return rep, fmt.Errorf("query %d/%d: %v %v", r, i, err, res.Err)
			}
			if res.Verdict.Kind != gigaflow.VerdictOutput {
				return rep, fmt.Errorf("query %d/%d not forwarded: %v", r, i, res.Verdict)
			}
			b := int(res.Verdict.Port) - 100
			if b < 0 || b >= poolSize {
				return rep, fmt.Errorf("query %d/%d egressed on port %d", r, i, res.Verdict.Port)
			}
			if ip, port := res.Final.Get(gigaflow.FieldIPDst), res.Final.Get(gigaflow.FieldTpDst); ip != pool[b].IP || port != pool[b].Port {
				return rep, fmt.Errorf("query %d/%d rewritten to %x:%d, want backend %d", r, i, ip, port, b)
			}
			if pinned[i] == -1 {
				pinned[i] = b
				reply[i] = wire.Encode(replyKey(i, pool[b]))
			} else if pinned[i] != b {
				return rep, fmt.Errorf("client %d rebound %d→%d mid-connection", i, pinned[i], b)
			}
		}
		for i := 0; i < clients; i++ {
			res, err := svc.SubmitFrame(ctx, 0, reply[i])
			if err != nil || res.Err != nil {
				return rep, fmt.Errorf("reply %d/%d: %v %v", r, i, err, res.Err)
			}
			if res.Verdict.Kind != gigaflow.VerdictOutput || res.Verdict.Port != clientPort {
				return rep, fmt.Errorf("reply %d/%d verdict %v, want output(%d)", r, i, res.Verdict, clientPort)
			}
			// The client must see the VIP, never the backend.
			if ip, port := res.Final.Get(gigaflow.FieldIPSrc), res.Final.Get(gigaflow.FieldTpSrc); ip != vip || port != vipPort {
				return rep, fmt.Errorf("reply %d/%d leaked backend address: src=%x:%d", r, i, ip, port)
			}
		}
	}

	if rep.stats, err = svc.Stats(ctx); err != nil {
		return rep, err
	}
	for _, b := range pinned {
		rep.pinned[b]++
	}
	return rep, nil
}
