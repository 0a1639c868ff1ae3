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

// processOne hands vs one packet with its TCP flags, as a batch of one.
func processOne(vs *gigaflow.VSwitch, k gigaflow.Key, flags uint8, now int64) (gigaflow.ProcessResult, error) {
	var out [1]gigaflow.ProcessResult
	var errs [1]error
	vs.ProcessBatchMeta([]gigaflow.Key{k}, []uint8{flags}, out[:], errs[:], now)
	return out[0], errs[0]
}

// TestTransitionInvalidatesImmediately is the targeted half of the
// invalidation proof: warm an established connection until its held
// result serves it, close it, and require the very next packets, both
// directions, to see the closed state.
func TestTransitionInvalidatesImmediately(t *testing.T) {
	vs := gigaflow.NewVSwitch(statefulPipeline(), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 4 * 1024},
		gigaflow.WithMicroflow(64), gigaflow.WithConntrack(0))
	fwd := ctKey(1, wire.IPProtoTCP)

	if _, err := processOne(vs, fwd, wire.TCPSyn, 1); err != nil {
		t.Fatal(err)
	}
	rk, ok := replyKeyFor(vs.Conntrack(), fwd)
	if !ok {
		t.Fatal("no connection after SYN")
	}
	if _, err := processOne(vs, rk, wire.TCPSyn|wire.TCPAck, 2); err != nil {
		t.Fatal(err)
	}
	// Warm: repeated data packets are served from the connection.
	var est gigaflow.ProcessResult
	for i := 0; i < 4; i++ {
		var err error
		if est, err = processOne(vs, fwd, wire.TCPAck, int64(3+i)); err != nil {
			t.Fatal(err)
		}
	}
	if est.Verdict.Kind != gigaflow.VerdictOutput || !est.MicroflowHit {
		t.Fatalf("established flow not forwarded from its held result: %+v", est)
	}

	// FIN: the packet that closes the connection reads +cls, which a rule
	// the held walk crossed tests, so the held result must refuse it.
	fin, err := processOne(vs, fwd, wire.TCPFin|wire.TCPAck, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fin.CacheHit {
		t.Fatal("transition packet served from cache")
	}

	// Post-close, both a flagless data packet and the reply direction
	// (its own held result) must observe closed → drop, with zero grace
	// period.
	for name, k := range map[string]gigaflow.Key{"forward": fwd, "reply": rk} {
		r, err := processOne(vs, k, wire.TCPAck, 11)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Kind != gigaflow.VerdictDrop {
			t.Fatalf("%s packet after close: %+v (stale entry served)", name, r)
		}
	}
	// Two refusals: the FIN's, whose walk the forward packet after it is
	// served from, and the reply's, which the FIN's connection-independent
	// drop entry serves from the main cache. Nothing to invalidate.
	if st := vs.Stats(); st.CtGuardFails != 2 || st.CacheHits != 1 || st.CtInvalidated != 0 {
		t.Fatalf("want 2 held results refused, 1 main-cache hit and 0 invalidations: %+v", st)
	}
}

// TestRecycledMemoServesWithoutGuard: on a conntrack switch the Microflow
// tier holds untracked flows only. A tracked packet neither probes nor
// memoizes it — its connection holds its result — so a one-entry tier's
// storage is recycled only from one untracked flow to another, and an
// untracked memo serves unguarded: no connection's state, moving or not,
// reaches it.
func TestRecycledMemoServesWithoutGuard(t *testing.T) {
	vs := gigaflow.NewVSwitch(statefulPipeline(), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 1024},
		gigaflow.WithMicroflow(1), gigaflow.WithConntrack(0))
	tcp := ctKey(1, wire.IPProtoTCP)
	gre, esp := ctKey(2, 47), ctKey(3, 50) // untracked protocols: no connection, ordinary memos

	if _, err := processOne(vs, tcp, wire.TCPSyn, 1); err != nil {
		t.Fatal(err)
	}
	uf := vs.Microflow()
	if st := uf.Stats(); st.Hits+st.Misses+st.Inserts != 0 || uf.Len() != 0 {
		t.Fatalf("a tracked packet reached the Microflow tier: %+v, %d entries", st, uf.Len())
	}
	if c, _, ok := vs.Conntrack().Lookup(tcp); !ok || !c.Served[conntrack.DirForward].Verdict.Terminal() {
		t.Fatalf("the SYN's walk is not held on its connection")
	}
	if _, err := processOne(vs, gre, 0, 2); err != nil {
		t.Fatal(err)
	}
	memo, ok := uf.Lookup(gre, 2)
	if !ok {
		t.Fatal("untracked flow not memoized")
	}
	if _, err := processOne(vs, esp, 0, 3); err != nil { // recycles the GRE memo's storage
		t.Fatal(err)
	}
	if e, ok := uf.Lookup(esp, 3); !ok || e != memo || e.Ct != nil || e.CtEpoch != 0 || e.CtDir != 0 {
		t.Fatalf("memo in reused storage = %+v, %v (GRE entry was %p)", e, ok, memo)
	}
	// Move the TCP connection on between the untracked packets.
	if _, err := processOne(vs, tcp, wire.TCPRst, 4); err != nil {
		t.Fatal(err)
	}
	before := vs.Stats()
	r, err := processOne(vs, esp, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := vs.Stats()
	if !r.MicroflowHit {
		t.Fatalf("connection-independent memo did not serve: %+v", r)
	}
	if after.CtFastpath != before.CtFastpath || after.CtGuardFails != before.CtGuardFails {
		t.Errorf("hit went through a connection: before %+v, after %+v", before, after)
	}
	if st := uf.Stats(); st.Bypassed != 0 || st.EvictLRU != 1 || st.Inserts != 2 {
		t.Errorf("the tier did not recycle exactly once, or stepped aside: %+v", st)
	}
}

// TestHeldResultRefusals drives one connection per reason a held result is
// refused — the conditions of conntrack.Conn.Serves other than holding a
// verdict — to a packet that reason alone refuses, and holds every packet
// to the Reference. In each case the held result still matches everything
// else, so a switch that dropped the check would serve the packet a
// verdict the Reference does not give.
func TestHeldResultRefusals(t *testing.T) {
	const fwd, rpl = false, true
	type pkt struct {
		reply   bool
		flags   uint8
		flip    bool // before the packet: a rule update on both pipelines
		refused bool // the packet's held result is refused
	}
	// flip sends the VIP's new and established forward packets out of
	// port 70 ahead of every other rule: no key, state or binding moves.
	flip := func(p *gigaflow.Pipeline) {
		rule(p, 0, "eth_type=0x0800,ct_state=0x01/0x11", 1000, gigaflow.NoTable, gigaflow.Output(70))
	}
	handshake := []pkt{{fwd, wire.TCPSyn, false, false}, {rpl, wire.TCPSyn | wire.TCPAck, false, false}}
	for _, tc := range []struct {
		name string
		pipe func() *gigaflow.Pipeline
		pkts []pkt
	}{
		// The pipeline version: the ACK is served, the rule flip outdates
		// what it was served from.
		{"version", func() *gigaflow.Pipeline { return natLBPipeline(wire.IPProtoTCP) }, append(handshake,
			pkt{fwd, wire.TCPAck, false, false}, pkt{fwd, wire.TCPAck, true, true}, pkt{fwd, wire.TCPAck, false, false})},
		// The stamp: the established ACK's walk crosses prenat's ct_nat and
		// then binds in lb, so it is held with a stamp from before its own
		// binding; the next ACK's walk rewrites the VIP at prenat and leaves
		// by the backend's port.
		{"stamp", lateBindPipeline, append(handshake,
			pkt{fwd, wire.TCPAck, false, true}, pkt{fwd, wire.TCPAck, false, true}, pkt{fwd, wire.TCPAck, false, false})},
		// The match: lb reads +est and +cls, so the FIN, which closes the
		// connection, misses by ct_state what the ACKs before it were served
		// from, and leaves by the drain port.
		{"match", stateNATPipeline, append(handshake,
			pkt{fwd, wire.TCPAck, false, true}, pkt{fwd, wire.TCPAck, false, false}, pkt{fwd, wire.TCPFin | wire.TCPAck, false, true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refPipe := tc.pipe()
			vs := gigaflow.NewVSwitch(tc.pipe(), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 1024},
				gigaflow.WithMicroflow(64), gigaflow.WithConntrack(0))
			ref := gigaflow.NewReference(refPipe, true, 0)
			client := ctKey(1, wire.IPProtoTCP)
			for i, p := range tc.pkts {
				if p.flip {
					flip(vs.Pipeline())
					vs.Revalidate()
					flip(refPipe)
				}
				k := client
				if p.reply {
					var ok bool
					if k, ok = replyKeyFor(ref.Conntrack(), client); !ok {
						t.Fatalf("packet %d: no connection to reply on", i)
					}
				}
				before := vs.Stats()
				got, err := processOne(vs, k, p.flags, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ref.ProcessMeta(k, p.flags, int64(i))
				if got.Verdict != want.Verdict || got.Final != want.Final {
					t.Fatalf("packet %d: %v %s, Reference %v %s", i, got.Verdict, got.Final, want.Verdict, want.Final)
				}
				if d := vs.Stats().Sub(before); d.CtGuardFails != uint64(btoi(p.refused)) || d.CtFastpath != uint64(btoi(i >= 2 && !p.refused)) {
					t.Fatalf("packet %d (%v): %d refused, %d served", i, got.Verdict, d.CtGuardFails, d.CtFastpath)
				}
			}
		})
	}
}

// TestSharedEntryHeldOnConnection: a connection whose packets a shared,
// connection-independent main-cache entry serves — here two clients of a
// server the load balancer does not front, whose packets take no NAT
// action — holds each such hit on the connection in exact form, so
// its next packet is served there and not from the main cache again: the
// second client, which never walks forward, and a client whose held result
// a rule update refused. A hit taken between a rule change and Revalidate
// may answer under the old rules, as every cache tier does; what it leaves
// on the connection must not outlive the Revalidate. Every packet past
// that window is held to the Reference.
func TestSharedEntryHeldOnConnection(t *testing.T) {
	const server = 0x0a090002
	type step struct {
		client  int
		reply   bool
		flags   uint8
		update  int    // before the packet: apply updates[update-1] (0: none)
		revalid bool   // with update: revalidate and apply it to the Reference too
		want    string // what served the packet: walk, cache or held
		refused bool   // the packet's held result was refused first
	}
	updates := []func(p *gigaflow.Pipeline){
		// No path of the test crosses lb.
		func(p *gigaflow.Pipeline) { rule(p, 1, "ip_dst=1", 20, gigaflow.NoTable, gigaflow.Output(60)) },
		func(p *gigaflow.Pipeline) {
			rule(p, 0, fmt.Sprintf("eth_type=0x0800,ip_dst=%d,ct_state=0x01/0x31", server), 500, gigaflow.NoTable, gigaflow.Output(70))
		},
		func(p *gigaflow.Pipeline) {
			rule(p, 0, fmt.Sprintf("eth_type=0x0800,ip_dst=%d,ct_state=0x01/0x31", server), 600, gigaflow.NoTable, gigaflow.Output(71))
		},
	}
	const fwd, rpl = false, true
	ack := uint8(wire.TCPAck)
	steps := []step{
		{1, fwd, wire.TCPSyn, 0, false, "walk", false},
		{1, rpl, wire.TCPSyn | wire.TCPAck, 0, false, "walk", false},
		{1, fwd, ack, 0, false, "held", false},
		// The second client's SYN hits the first one's entry and holds it.
		{2, fwd, wire.TCPSyn, 0, false, "cache", false},
		{2, rpl, wire.TCPSyn | wire.TCPAck, 0, false, "walk", false},
		// Established, its key moved past the exact hold: one refusal, one
		// shared hit held anew, then its own data packets.
		{2, fwd, ack, 0, false, "cache", true},
		{2, fwd, ack, 0, false, "held", false},
		{2, fwd, ack, 0, false, "held", false},
		// A rule update off its path outdates the hold, not the entry.
		{2, fwd, ack, 1, true, "cache", true},
		{2, fwd, ack, 0, false, "held", false},
		// One on its path changes the verdict: revalidation drops the
		// entry, and the packet walks.
		{2, fwd, ack, 2, true, "walk", true},
		{2, fwd, ack, 0, false, "held", false},
		// A change not yet revalidated: the shared entry still answers
		// Output(70), and the hit is held under the version the cache
		// was last made current at.
		{2, fwd, ack, 3, false, "cache", true},
		// Revalidated: the hold is refused, the entry is gone, and the
		// walk gives the Reference's Output(71).
		{2, fwd, ack, 3, true, "walk", true},
		{2, fwd, ack, 0, false, "held", false},
	}
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []gigaflow.VSwitchOption{gigaflow.WithMicroflow(64), gigaflow.WithConntrack(0)}
			if backend == "megaflow" {
				opts = append(opts, gigaflow.WithMegaflowBackend(1024))
			}
			vs := gigaflow.NewVSwitch(statefulPipeline(), gigaflow.CacheConfig{NumTables: 4, TableCapacity: 1024}, opts...)
			refPipe := statefulPipeline()
			ref := gigaflow.NewReference(refPipe, true, 0)
			for i, st := range steps {
				if st.update > 0 {
					if !st.revalid {
						updates[st.update-1](vs.Pipeline())
					} else {
						if steps[i-1].update != st.update {
							updates[st.update-1](vs.Pipeline())
						}
						vs.Revalidate()
						updates[st.update-1](refPipe)
					}
				}
				client := ctKey(st.client, wire.IPProtoTCP).With(gigaflow.FieldIPDst, server)
				k := client
				if st.reply {
					var ok bool
					if k, ok = replyKeyFor(ref.Conntrack(), client); !ok {
						t.Fatalf("step %d: no connection to reply on", i)
					}
				}
				before := vs.Stats()
				got, err := processOne(vs, k, st.flags, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ref.ProcessMeta(k, st.flags, int64(i))
				if stale := st.update > 0 && !st.revalid; !stale && (got.Verdict != want.Verdict || got.Final != want.Final) {
					t.Fatalf("step %d: %v %s, Reference %v %s", i, got.Verdict, got.Final, want.Verdict, want.Final)
				}
				d := vs.Stats().Sub(before)
				by := map[string]uint64{"walk": d.CacheMisses, "cache": d.CacheHits, "held": d.CtFastpath}
				if by[st.want] != 1 || d.CacheMisses+d.CacheHits+d.MicroflowHits != 1 || d.CtGuardFails != uint64(btoi(st.refused)) {
					t.Fatalf("step %d (%v): want %s, refused %v; got %+v", i, got.Verdict, st.want, st.refused, d)
				}
			}
		})
	}
}

// TestConnectionWalksOncePerDirection is the ledger of one connection
// through the load balancer, on both backends: the pipeline is walked once
// for the first packet each way and never again, and every later packet
// is served from the result its direction's first walk left on the
// connection. The ACK that follows the handshake and the FIN are served
// too — the connection is the same one with the same binding, and the
// held match still accepts them, because no rule the walk crossed reads
// the state bits that moved. Both walks resolved a NAT action, so neither
// is installed in the main cache: no other connection could hit it.
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
		{"tcp", wire.IPProtoTCP, tcp, gigaflow.VSwitchStats{Packets: 12, MicroflowHits: 10,
			CacheMisses: 2, Slowpath: 2, SlowpathSteps: 5, SlowpathTupleProbes: 6, CtFastpath: 10}},
		{"udp", wire.IPProtoUDP, udp, gigaflow.VSwitchStats{Packets: 8, MicroflowHits: 6,
			CacheMisses: 2, Slowpath: 2, SlowpathSteps: 5, SlowpathTupleProbes: 6, CtFastpath: 6}},
	} {
		for _, backend := range []string{"gigaflow", "megaflow"} {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				opts := []gigaflow.VSwitchOption{gigaflow.WithMicroflow(64), gigaflow.WithConntrack(0)}
				if backend == "megaflow" {
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
					got, err := processOne(vs, k, p.flags, int64(i))
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
