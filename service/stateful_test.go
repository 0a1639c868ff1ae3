package service

import (
	"context"
	"fmt"
	"testing"

	"gigaflow"
	"gigaflow/internal/conntrack"
	wire "gigaflow/internal/packet"
)

// statefulPipeline is the dnslb shape in miniature: classify on
// ct_state, dnat new connections from a pool, match the REWRITTEN
// destination in a later table, and un-NAT replies with ct_nat — every
// cached sub-traversal depends on connection state somewhere.
func statefulPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("stateful-test")
	p.AddTable(0, "classify", gigaflow.NewFieldSet(gigaflow.FieldEthType, gigaflow.FieldIPProto,
		gigaflow.FieldIPDst, gigaflow.FieldTpDst, gigaflow.FieldCtState))
	p.AddTable(1, "lb", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(3, "reverse", gigaflow.NewFieldSet(gigaflow.FieldIPSrc))
	addPool(p, 2)

	// Replies take the reverse path; closed connections are dropped at
	// classify so a stale "established" entry is observable the moment a
	// FIN lands.
	rule(p, 0, "eth_type=0x0800,ct_state=0x20/0x20", 30, gigaflow.NoTable, gigaflow.Drop())
	rule(p, 0, "eth_type=0x0800,ct_state=0x11/0x31", 20, 3)
	rule(p, 0, fmt.Sprintf("eth_type=0x0800,ip_dst=%d,ct_state=0x01/0x31", vipIP), 10, 1)
	rule(p, 0, "*", 1, gigaflow.NoTable, gigaflow.Output(99))
	rule(p, 1, "*", 10, 2, gigaflow.DNAT(1))
	rule(p, 3, "*", 10, gigaflow.NoTable, gigaflow.CtNAT(), gigaflow.Output(1))
	return p
}

// stateNATPipeline puts the state dependency and the NAT action in the
// same rules: the lb and reverse tables each carry one rule per
// ct_state, every one of them rewriting through the connection and each
// sending the packet somewhere else. A cached entry built from such a
// rule is connection-dependent AND state-dependent, and only its match
// says which state: conntrack's validity check lets it live through every
// transition, so a packet in another state must miss it by its ct_state
// bits alone.
func stateNATPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("state-nat")
	p.AddTable(0, "classify", gigaflow.NewFieldSet(gigaflow.FieldEthType, gigaflow.FieldIPDst, gigaflow.FieldCtState))
	p.AddTable(1, "lb", gigaflow.NewFieldSet(gigaflow.FieldCtState))
	p.AddTable(3, "reverse", gigaflow.NewFieldSet(gigaflow.FieldCtState))
	addPool(p, 2)

	rule(p, 0, "eth_type=0x0800,ct_state=0x11/0x11", 20, 3)
	rule(p, 0, fmt.Sprintf("eth_type=0x0800,ip_dst=%d,ct_state=0x01/0x11", vipIP), 10, 1)
	rule(p, 0, "*", 1, gigaflow.NoTable, gigaflow.Output(99))

	// Forward: new connections go on to the per-backend egress, established
	// ones leave on one trunk port, closed ones on a drain port — all
	// three after the dnat rewrite.
	rule(p, 1, "ct_state=0x02/0x02", 10, 2, gigaflow.DNAT(1))
	rule(p, 1, "ct_state=0x04/0x04", 10, gigaflow.NoTable, gigaflow.DNAT(1), gigaflow.Output(50))
	rule(p, 1, "ct_state=0x20/0x20", 10, gigaflow.NoTable, gigaflow.DNAT(1), gigaflow.Output(66))
	rule(p, 1, "*", 1, gigaflow.NoTable, gigaflow.Drop())

	// Reply: un-NAT, then by state.
	rule(p, 3, "ct_state=0x04/0x04", 10, gigaflow.NoTable, gigaflow.CtNAT(), gigaflow.Output(1))
	rule(p, 3, "ct_state=0x20/0x20", 10, gigaflow.NoTable, gigaflow.CtNAT(), gigaflow.Output(2))
	rule(p, 3, "*", 1, gigaflow.NoTable, gigaflow.CtNAT(), gigaflow.Drop())
	return p
}

// lateBindPipeline makes the NAT binding late: a connection's first
// packets leave unrewritten through a SYN-proxy port and only an
// established one is load-balanced, so the dnat binding lands after a
// transition — and after the prenat table's ct_nat has already resolved
// (to the identity rewrite) for that very connection, both in earlier
// walks and, on the packet that binds, earlier in the same walk. What
// prenat resolved to decides the path: a destination still reading as
// the VIP goes to lb, which binds and sends the packet out of the slow
// port 20; once the binding exists prenat rewrites to the backend and
// classify sends the packet straight to egress. A result computed before
// the binding — a cache entry stamped before it, or the binding walk's
// own — is therefore visibly wrong for the next packet, and it keeps
// matching: nothing but the validity check can retire it.
func lateBindPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("late-bind")
	p.AddTable(0, "prenat", gigaflow.NewFieldSet(gigaflow.FieldEthType))
	p.AddTable(1, "classify", gigaflow.NewFieldSet(gigaflow.FieldEthType, gigaflow.FieldIPDst, gigaflow.FieldCtState))
	p.AddTable(2, "lb", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	addPool(p, 3)

	rule(p, 0, "eth_type=0x0800", 10, 1, gigaflow.CtNAT())
	rule(p, 0, "*", 1, gigaflow.NoTable, gigaflow.Output(99))

	rule(p, 1, "ct_state=0x20/0x20", 30, gigaflow.NoTable, gigaflow.Drop())
	rule(p, 1, "ct_state=0x11/0x11", 20, gigaflow.NoTable, gigaflow.Output(1))
	rule(p, 1, "ct_state=0x03/0x13", 10, gigaflow.NoTable, gigaflow.Output(10))
	rule(p, 1, fmt.Sprintf("ip_dst=%d,ct_state=0x05/0x15", vipIP), 10, 2)
	rule(p, 1, "ct_state=0x05/0x15", 5, 3)
	rule(p, 1, "*", 1, gigaflow.NoTable, gigaflow.Output(99))

	rule(p, 2, "*", 10, gigaflow.NoTable, gigaflow.DNAT(1), gigaflow.Output(20))
	return p
}

// natLBPipeline is the load balancer the benchmark's nat-conn workload and
// the dnslb example both run: replies (+trk+rpl) take the reverse path and
// are un-NATed by ct_nat, forward packets to the VIP's service port are
// pinned to a backend by dnat and leave on that backend's port. No rule
// looks at new/established/closed.
func natLBPipeline(proto uint64) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("natlb")
	p.AddTable(0, "classify", gigaflow.NewFieldSet(gigaflow.FieldEthType, gigaflow.FieldIPProto,
		gigaflow.FieldIPDst, gigaflow.FieldTpDst, gigaflow.FieldCtState))
	p.AddTable(1, "lb", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(3, "reverse", gigaflow.NewFieldSet(gigaflow.FieldIPSrc))
	addPool(p, 2)

	rule(p, 0, fmt.Sprintf("eth_type=0x0800,ip_proto=%d,ct_state=0x11/0x11", proto), 20, 3)
	rule(p, 0, fmt.Sprintf("eth_type=0x0800,ip_proto=%d,ip_dst=%d,tp_dst=443,ct_state=0x01/0x11",
		proto, vipIP), 10, 1)
	rule(p, 0, "*", 1, gigaflow.NoTable, gigaflow.Drop())
	rule(p, 1, "*", 10, 2, gigaflow.DNAT(1))
	rule(p, 3, "*", 10, gigaflow.NoTable, gigaflow.CtNAT(), gigaflow.Output(1))
	return p
}

// rule adds one rule to table id of p.
func rule(p *gigaflow.Pipeline, id int, match string, prio, next int, actions ...gigaflow.Action) {
	p.MustAddRule(id, gigaflow.MustParseMatch(match), prio, actions, next)
}

const (
	vipIP = 0x0a090001
	poolN = 4 // one backend per shard at the oracle's widest, four
)

// addPool gives p the backend pool as NAT pool 1 and an egress table `id`
// with one output port per backend.
func addPool(p *gigaflow.Pipeline, id int) {
	p.AddTable(id, "egress", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	targets := make([]gigaflow.NATTarget, poolN)
	for i := range targets {
		targets[i] = gigaflow.NATTarget{IP: backendIP(i), Port: 8000 + uint64(i)}
		rule(p, id, fmt.Sprintf("ip_dst=%d", backendIP(i)), 10, gigaflow.NoTable, gigaflow.Output(uint16(100+i)))
	}
	rule(p, id, "*", 1, gigaflow.NoTable, gigaflow.Drop())
	p.SetNATPool(1, targets)
}

func backendIP(i int) uint64 { return 0x0a140001 + uint64(i) }

// ctKey is client's packet to the VIP's service port.
func ctKey(client int, proto uint64) gigaflow.Key {
	var k gigaflow.Key
	return k.With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPSrc, 0x0a010000+uint64(client)).
		With(gigaflow.FieldIPDst, vipIP).
		With(gigaflow.FieldIPProto, proto).
		With(gigaflow.FieldTpSrc, 2000+uint64(client)).
		With(gigaflow.FieldTpDst, 443)
}

// invertTuple swaps a key's endpoints (the raw reply as seen pre-NAT —
// used only where no NAT binding rewrote the reply path).
func invertTuple(k gigaflow.Key) gigaflow.Key {
	return k.With(gigaflow.FieldIPSrc, k.Get(gigaflow.FieldIPDst)).
		With(gigaflow.FieldIPDst, k.Get(gigaflow.FieldIPSrc)).
		With(gigaflow.FieldTpSrc, k.Get(gigaflow.FieldTpDst)).
		With(gigaflow.FieldTpDst, k.Get(gigaflow.FieldTpSrc))
}

// replyKeyFor asks a connection table for the tuple the backend's reply
// to fwd carries (post-NAT).
func replyKeyFor(ct *conntrack.Table, fwd gigaflow.Key) (gigaflow.Key, bool) {
	c, _, ok := ct.Lookup(fwd)
	if !ok {
		return gigaflow.Key{}, false
	}
	nk := c.NATKey(conntrack.DirForward)
	return fwd.With(gigaflow.FieldIPSrc, nk.Get(gigaflow.FieldIPDst)).
		With(gigaflow.FieldIPDst, nk.Get(gigaflow.FieldIPSrc)).
		With(gigaflow.FieldTpSrc, nk.Get(gigaflow.FieldTpDst)).
		With(gigaflow.FieldTpDst, nk.Get(gigaflow.FieldTpSrc)), true
}

// TestTransitionInvalidatesImmediately is the targeted half of the
// invalidation proof: warm every tier against an established
// connection, close it, and require the very next packets — microflow
// hit path and main-cache hit path both — to see the closed state.
func TestTransitionInvalidatesImmediately(t *testing.T) {
	vs := gigaflow.NewVSwitch(statefulPipeline(), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 4 * 1024},
		gigaflow.WithMicroflow(64), gigaflow.WithConntrack(0))
	fwd := ctKey(1, wire.IPProtoTCP)

	if _, err := vs.ProcessMeta(fwd, wire.TCPSyn, 1); err != nil {
		t.Fatal(err)
	}
	rk, ok := replyKeyFor(vs.Conntrack(), fwd)
	if !ok {
		t.Fatal("no connection after SYN")
	}
	if _, err := vs.ProcessMeta(rk, wire.TCPSyn|wire.TCPAck, 2); err != nil {
		t.Fatal(err)
	}
	// Warm: repeated data packets populate microflow + main cache.
	var est gigaflow.ProcessResult
	for i := 0; i < 4; i++ {
		var err error
		if est, err = vs.ProcessMeta(fwd, wire.TCPAck, int64(3+i)); err != nil {
			t.Fatal(err)
		}
	}
	if est.Verdict.Kind != gigaflow.VerdictOutput || !est.MicroflowHit {
		t.Fatalf("established flow not forwarded from the microflow tier: %+v", est)
	}

	// FIN: the guard must force this packet through the full path (a
	// FIN-flagged packet can never be served from a memo).
	fin, err := vs.ProcessMeta(fwd, wire.TCPFin|wire.TCPAck, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fin.CacheHit {
		t.Fatal("transition packet served from cache")
	}

	// Post-close, both a flagless data packet (old microflow entry) and
	// the reply direction (its own cached entries) must observe closed →
	// drop, with zero grace period.
	for name, k := range map[string]gigaflow.Key{"forward": fwd, "reply": rk} {
		r, err := vs.ProcessMeta(k, wire.TCPAck, 11)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Kind != gigaflow.VerdictDrop {
			t.Fatalf("%s packet after close: %+v (stale entry served)", name, r)
		}
	}
	if vs.Stats().CtGuardFails == 0 && vs.Stats().CtInvalidated == 0 {
		t.Fatalf("no invalidation recorded: %+v", vs.Stats())
	}
}

// TestRecycledMemoServesWithoutGuard: the Microflow tier reuses an evicted
// entry's storage in place, so a connection-bound memo's storage can come
// back holding a connection-independent flow. That flow's hits must serve
// unguarded — a connection pointer surviving the reuse would subject them
// to another flow's epoch guard and, once that connection moved on, drop
// a perfectly good memo.
func TestRecycledMemoServesWithoutGuard(t *testing.T) {
	vs := gigaflow.NewVSwitch(statefulPipeline(), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 1024},
		gigaflow.WithMicroflow(1), gigaflow.WithConntrack(0))
	tcp := ctKey(1, wire.IPProtoTCP)
	gre := ctKey(2, 47) // untracked protocol: no connection, ordinary memo

	if _, err := vs.ProcessMeta(tcp, wire.TCPSyn, 1); err != nil {
		t.Fatal(err)
	}
	bound, ok := vs.Microflow().Lookup(tcp, 1)
	if !ok || bound.Ct == nil {
		t.Fatalf("SYN left no connection-bound memo: %+v, %v", bound, ok)
	}
	if _, err := vs.ProcessMeta(gre, 0, 2); err != nil { // evicts the TCP memo
		t.Fatal(err)
	}
	if e, ok := vs.Microflow().Lookup(gre, 2); !ok || e != bound || e.Ct != nil || e.CtEpoch != 0 || e.CtDir != 0 {
		t.Fatalf("memo in reused storage = %+v, %v (bound entry was %p)", e, ok, bound)
	}
	// Move the TCP connection on: its epoch changes, so a leaked pointer
	// would now fail the guard.
	if _, err := vs.ProcessMeta(tcp, wire.TCPRst, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := vs.ProcessMeta(gre, 0, 4); err != nil {
		t.Fatal(err)
	}
	before := vs.Stats()
	r, err := vs.ProcessMeta(gre, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := vs.Stats()
	if !r.MicroflowHit {
		t.Fatalf("connection-independent memo did not serve: %+v", r)
	}
	if after.CtFastpath != before.CtFastpath || after.CtGuardFails != before.CtGuardFails {
		t.Errorf("hit went through the conntrack guard: before %+v, after %+v", before, after)
	}
	if uf := vs.Microflow().Stats(); uf.Bypassed != 0 || uf.EvictLRU == 0 {
		t.Errorf("the tier recycled nothing, or stepped aside: %+v", uf)
	}
}

// TestConnectionWalksOncePerDirection is the ledger of one connection
// through the load balancer, on both backends behind a microflow tier: the
// pipeline is walked once for the first packet each way and never again.
// The ACK that follows the handshake and the FIN find the entries their
// direction's first packet installed — still valid, because the
// connection is the same one with the same binding, and still matching,
// because no rule they crossed reads the state bits that moved. (When
// every transition retired the connection's entries these cost a third
// and a fourth walk per TCP connection, a third per UDP exchange.) The
// microflow guard is as strict as ever: a memo is keyed without ct_state,
// so the first packet after each transition still fails it and is served
// one tier down.
func TestConnectionWalksOncePerDirection(t *testing.T) {
	const fwd, rpl = false, true
	type pkt struct {
		reply bool
		flags uint8
	}
	// The benchmark's 12-packet connection (bench/natconn.go natPacketAt):
	// handshake, eight data packets alternating direction, FIN.
	tcp := []pkt{{fwd, wire.TCPSyn}, {rpl, wire.TCPSyn | wire.TCPAck}, {fwd, wire.TCPAck}}
	for i := 3; i < 11; i++ {
		tcp = append(tcp, pkt{i%2 == 0, wire.TCPAck})
	}
	tcp = append(tcp, pkt{fwd, wire.TCPFin | wire.TCPAck})
	// dnslb's exchange: four query/reply rounds.
	udp := []pkt{{fwd, 0}, {rpl, 0}, {fwd, 0}, {rpl, 0}, {fwd, 0}, {rpl, 0}, {fwd, 0}, {rpl, 0}}

	for _, tc := range []struct {
		name  string
		proto uint64
		pkts  []pkt
		want  gigaflow.VSwitchStats
	}{
		{"tcp", wire.IPProtoTCP, tcp, gigaflow.VSwitchStats{Packets: 12, MicroflowHits: 8, CacheHits: 2,
			CacheMisses: 2, Slowpath: 2, Installs: 2, SlowpathSteps: 5, SlowpathTupleProbes: 6,
			CtFastpath: 8, CtGuardFails: 2}},
		{"udp", wire.IPProtoUDP, udp, gigaflow.VSwitchStats{Packets: 8, MicroflowHits: 5, CacheHits: 1,
			CacheMisses: 2, Slowpath: 2, Installs: 2, SlowpathSteps: 5, SlowpathTupleProbes: 6,
			CtFastpath: 5, CtGuardFails: 1}},
	} {
		for _, backend := range []Backend{BackendGigaflow, BackendMegaflow} {
			t.Run(tc.name+"/"+backend.String(), func(t *testing.T) {
				opts := []gigaflow.VSwitchOption{gigaflow.WithMicroflow(64), gigaflow.WithConntrack(0)}
				if backend == BackendMegaflow {
					opts = append(opts, gigaflow.WithMegaflowBackend(1024))
				}
				vs := gigaflow.NewVSwitch(natLBPipeline(tc.proto), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 1024}, opts...)
				ref := gigaflow.NewReference(natLBPipeline(tc.proto), true, 0)
				client := ctKey(1, tc.proto)
				for i, p := range tc.pkts {
					k := client
					if p.reply {
						var ok bool
						if k, ok = replyKeyFor(ref.Conntrack(), client); !ok {
							t.Fatalf("packet %d: no connection to reply on", i)
						}
					}
					got, err := vs.ProcessMeta(k, p.flags, int64(i))
					if err != nil {
						t.Fatal(err)
					}
					want, _ := ref.ProcessMeta(k, p.flags, int64(i))
					if got.Verdict != want.Verdict || got.Final != want.Final || got.Verdict.Kind != gigaflow.VerdictOutput {
						t.Fatalf("packet %d: %v %s, oracle %v %s", i, got.Verdict, got.Final, want.Verdict, want.Final)
					}
				}
				if got := vs.Stats(); got != tc.want {
					t.Errorf("ledger:\n  got  %+v\n  want %+v", got, tc.want)
				}
			})
		}
	}
}

// TestUpdateRulesSwapsNATPool: a rule update that replaces the DNAT pool
// of a two-shard conntrack service leaves the new pool split between the
// shards — each binds only inside its own half — and routes a reply from a
// new backend to the shard that holds its connection. Every verdict, both
// ways, is the one its connection's shard's Reference gives over that
// shard's half of the new pool.
func TestUpdateRulesSwapsNATPool(t *testing.T) {
	const shards = 2
	s, ctx := start(t, natLBPipeline(wire.IPProtoTCP), Config{Workers: shards, Conntrack: ConntrackConfig{Enable: true}}), context.Background()
	swap := func(p *gigaflow.Pipeline) error {
		targets := make([]gigaflow.NATTarget, poolN)
		for i := range targets {
			targets[i] = gigaflow.NATTarget{IP: backendIP(poolN + i), Port: 9000 + uint64(i)}
			rule(p, 2, fmt.Sprintf("ip_dst=%d", backendIP(poolN+i)), 10, gigaflow.NoTable, gigaflow.Output(uint16(200+i)))
		}
		p.SetNATPool(1, targets)
		return nil
	}
	if err := s.UpdateRules(ctx, swap); err != nil {
		t.Fatal(err)
	}
	refs := make([]*gigaflow.Reference, shards)
	for w := range refs {
		p := natLBPipeline(wire.IPProtoTCP)
		swap(p)
		p.SetNATPool(1, p.NATPool(1)[w*poolN/shards:(w+1)*poolN/shards])
		refs[w] = gigaflow.NewReference(p, true, 0)
	}
	send := func(ref *gigaflow.Reference, k gigaflow.Key, flags uint8, now int64) {
		t.Helper()
		got, err := s.SubmitFrame(ctx, 0, frameOf(t, k, flags))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ProcessMeta(k, flags, now)
		if err != nil || got.Verdict != want.Verdict || got.Final != want.Final || want.Verdict.Kind != gigaflow.VerdictOutput {
			t.Fatalf("key %s: %+v, Reference %+v", k, got, want)
		}
	}
	for c := 0; c < 32; c++ {
		fwd := ctKey(c, wire.IPProtoTCP)
		ref := refs[s.shardOfKey(&fwd)] // the connection's shard
		send(ref, fwd, wire.TCPSyn, int64(4*c))
		rpl, ok := replyKeyFor(ref.Conntrack(), fwd)
		if !ok {
			t.Fatalf("client %d: no connection after its SYN", c)
		}
		send(ref, rpl, wire.TCPSyn|wire.TCPAck, int64(4*c+1))
		send(ref, fwd, wire.TCPAck, int64(4*c+2))
		send(ref, rpl, wire.TCPAck, int64(4*c+3))
	}
}
