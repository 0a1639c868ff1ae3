package gigaflow

import (
	"fmt"
	"testing"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/packet"
)

// statefulPipeline is the dnslb shape in miniature: classify on
// ct_state, dnat new connections from a pool, match the REWRITTEN
// destination in a later table, and un-NAT replies with ct_nat — every
// cached sub-traversal depends on connection state somewhere.
func statefulPipeline() *Pipeline {
	p := NewPipeline("stateful-test")
	p.AddTable(0, "classify", NewFieldSet(FieldEthType, FieldIPProto,
		FieldIPDst, FieldTpDst, FieldCtState))
	p.AddTable(1, "lb", NewFieldSet(FieldIPDst))
	p.AddTable(2, "egress", NewFieldSet(FieldIPDst))
	p.AddTable(3, "reverse", NewFieldSet(FieldIPSrc))

	// Replies take the reverse path; closed connections are dropped at
	// classify so a stale "established" entry is observable the moment a
	// FIN lands.
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ct_state=0x20/0x20"), 30,
		[]Action{Drop()}, NoTable)
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ct_state=0x11/0x31"), 20, nil, 3)
	p.MustAddRule(0, MustParseMatch(fmt.Sprintf(
		"eth_type=0x0800,ip_dst=%d,ct_state=0x01/0x31", vipIP)), 10, nil, 1)
	p.MustAddRule(0, MustParseMatch("*"), 1, []Action{Output(99)}, NoTable)

	p.MustAddRule(1, MustParseMatch("*"), 10, []Action{DNAT(1)}, 2)

	for i := 0; i < poolN; i++ {
		p.MustAddRule(2, MustParseMatch(fmt.Sprintf("ip_dst=%d", backendIP(i))), 10,
			[]Action{Output(uint16(100 + i))}, NoTable)
	}
	p.MustAddRule(2, MustParseMatch("*"), 1, []Action{Drop()}, NoTable)

	p.MustAddRule(3, MustParseMatch("*"), 10,
		[]Action{CtNAT(), Output(1)}, NoTable)

	targets := make([]NATTarget, poolN)
	for i := range targets {
		targets[i] = NATTarget{IP: backendIP(i), Port: 8000 + uint64(i)}
	}
	p.SetNATPool(1, targets)
	return p
}

const (
	vipIP = 0x0a090001
	poolN = 3
)

func backendIP(i int) uint64 { return 0x0a140001 + uint64(i) }

func ctKey(client int, proto uint64) Key {
	var k Key
	return k.With(FieldEthType, packet.EtherTypeIPv4).
		With(FieldIPSrc, 0x0a010000+uint64(client)).
		With(FieldIPDst, vipIP).
		With(FieldIPProto, proto).
		With(FieldTpSrc, 2000+uint64(client)).
		With(FieldTpDst, 443)
}

// ctEvent is one packet of the differential trace.
type ctEvent struct {
	k     Key
	flags uint8
}

// invertTuple swaps a key's endpoints (the raw reply as seen pre-NAT —
// used only where no NAT binding rewrote the reply path).
func invertTuple(k Key) Key {
	return k.With(FieldIPSrc, k.Get(FieldIPDst)).
		With(FieldIPDst, k.Get(FieldIPSrc)).
		With(FieldTpSrc, k.Get(FieldTpDst)).
		With(FieldTpDst, k.Get(FieldTpSrc))
}

// xorshift is a tiny deterministic PRNG so the differential trace is
// reproducible without the clock or global rand.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// replyKeyFor asks the oracle's conntrack table for the tuple the
// backend's reply carries (post-NAT). Both datapaths see identical
// traces, so resolving against either table gives the same answer.
func replyKeyFor(ct *conntrack.Table, fwd Key) (Key, bool) {
	c, _, ok := ct.Lookup(fwd)
	if !ok {
		return Key{}, false
	}
	nk := c.NATKey(conntrack.DirForward)
	return fwd.With(FieldIPSrc, nk.Get(FieldIPDst)).
		With(FieldIPDst, nk.Get(FieldIPSrc)).
		With(FieldTpSrc, nk.Get(FieldTpDst)).
		With(FieldTpDst, nk.Get(FieldTpSrc)), true
}

// TestStatefulDifferential is the cache-invalidation proof: a randomized
// interleaving of handshakes, data, closes, tuple reuse, and idle expiry
// across many connections runs through a conntrack-enabled VSwitch on
// BOTH cache backends and through the cache-free Reference walk. Every
// packet's verdict and final key must be bit-identical on all three —
// if any ct_state-dependent cache entry ever survived a transition it
// depended on, the cached result would diverge from the oracle here.
func TestStatefulDifferential(t *testing.T) {
	const (
		clients = 48
		packets = 12000
		maxIdle = 500_000 // virtual ns
	)
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{
				WithMicroflow(4 * clients),
				WithConntrack(0),
				WithConntrackMaxIdle(maxIdle),
			}
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(4096))
			}
			vs := NewVSwitch(statefulPipeline(), CacheConfig{NumTables: 4, TableCapacity: 4 * 1024}, opts...)
			ref := NewReference(statefulPipeline(), true, 0)

			rng := xorshift(0x9e3779b97f4a7c15)
			now := int64(0)
			for i := 0; i < packets; i++ {
				now += int64(rng.next()%20_000) + 1
				client := int(rng.next() % clients)
				proto := uint64(packet.IPProtoTCP)
				if client%3 == 0 {
					proto = packet.IPProtoUDP
				}
				fwd := ctKey(client, proto)

				var ev ctEvent
				switch roll := rng.next() % 10; {
				case roll < 4: // forward data (or first packet: SYN)
					ev = ctEvent{fwd, packet.TCPAck}
					if proto == packet.IPProtoTCP {
						if _, _, ok := ref.Conntrack().Lookup(fwd); !ok {
							ev.flags = packet.TCPSyn
						}
					} else {
						ev.flags = 0
					}
				case roll < 8: // reply (post-NAT tuple when bound)
					rk, ok := replyKeyFor(ref.Conntrack(), fwd)
					if !ok {
						rk = invertTuple(fwd)
					}
					ev = ctEvent{rk, packet.TCPAck}
				case roll < 9 && proto == packet.IPProtoTCP: // close
					if rng.next()%2 == 0 {
						ev = ctEvent{fwd, packet.TCPFin | packet.TCPAck}
					} else {
						ev = ctEvent{fwd, packet.TCPRst}
					}
				default: // fresh SYN: reopen after close, dup-SYN otherwise
					ev = ctEvent{fwd, packet.TCPSyn}
					if proto == packet.IPProtoUDP {
						ev.flags = 0
					}
				}

				// Lockstep idle sweep, exactly as the service's expiry
				// ticker would run it.
				if i%500 == 499 {
					vs.ExpireIdle(now)
					ref.ExpireIdle(now, maxIdle)
				}

				want, errW := ref.ProcessMeta(ev.k, ev.flags, now)
				got, errG := vs.ProcessMeta(ev.k, ev.flags, now)
				if (errW != nil) != (errG != nil) {
					t.Fatalf("pkt %d: error divergence: ref=%v vs=%v", i, errW, errG)
				}
				cs, rs := vs.Conntrack().Stats(), ref.Conntrack().Stats()
				if cs.Created != rs.Created || cs.Transitions != rs.Transitions ||
					cs.Reopened != rs.Reopened || cs.Expired != rs.Expired || cs.Active != rs.Active {
					t.Fatalf("pkt %d (flags %#x): table divergence:\n  cached: %+v\n  oracle: %+v", i, ev.flags, cs, rs)
				}
				if got.Verdict != want.Verdict || got.Final != want.Final {
					t.Fatalf("pkt %d (client %d flags %#x key %s):\n  cached: %+v %s\n  oracle: %+v %s\n  stats: %+v",
						i, client, ev.flags, ev.k,
						got.Verdict, got.Final, want.Verdict, want.Final, vs.Stats())
				}
			}

			st := vs.Stats()
			if st.Packets != packets {
				t.Fatalf("processed %d packets, want %d", st.Packets, packets)
			}
			// The trace must actually exercise the protocol: caches hit,
			// guards fire, entries die.
			if st.MicroflowHits == 0 || st.CtFastpath == 0 {
				t.Errorf("fast path never engaged: %+v", st)
			}
			if st.CtGuardFails == 0 {
				t.Errorf("microflow ct guard never fired: %+v", st)
			}
			ctStats := vs.Conntrack().Stats()
			if ctStats.Transitions == 0 || ctStats.Reopened == 0 || ctStats.Expired == 0 {
				t.Errorf("trace too tame: %+v", ctStats)
			}
			t.Logf("stats: %+v", st)
			t.Logf("conntrack: %+v", ctStats)
		})
	}
}

// TestTransitionInvalidatesImmediately is the targeted half of the
// invalidation proof: warm every tier against an established
// connection, close it, and require the very next packets — microflow
// hit path and main-cache hit path both — to see the closed state.
func TestTransitionInvalidatesImmediately(t *testing.T) {
	vs := NewVSwitch(statefulPipeline(), CacheConfig{NumTables: 4, TableCapacity: 4 * 1024},
		WithMicroflow(64), WithConntrack(0))
	fwd := ctKey(1, packet.IPProtoTCP)

	if _, err := vs.ProcessMeta(fwd, packet.TCPSyn, 1); err != nil {
		t.Fatal(err)
	}
	rk, ok := replyKeyFor(vs.Conntrack(), fwd)
	if !ok {
		t.Fatal("no connection after SYN")
	}
	if _, err := vs.ProcessMeta(rk, packet.TCPSyn|packet.TCPAck, 2); err != nil {
		t.Fatal(err)
	}
	// Warm: repeated data packets populate microflow + main cache.
	var est ProcessResult
	for i := 0; i < 4; i++ {
		var err error
		est, err = vs.ProcessMeta(fwd, packet.TCPAck, int64(3+i))
		if err != nil {
			t.Fatal(err)
		}
	}
	if est.Verdict.Kind != VerdictOutput {
		t.Fatalf("established flow not forwarded: %+v", est)
	}
	if !est.MicroflowHit {
		t.Fatal("warmup never reached the microflow tier")
	}

	// FIN: the guard must force this packet through the full path (a
	// FIN-flagged packet can never be served from a memo).
	fin, err := vs.ProcessMeta(fwd, packet.TCPFin|packet.TCPAck, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fin.CacheHit {
		t.Fatal("transition packet served from cache")
	}

	// Post-close, both a flagless data packet (old microflow entry) and
	// the reply direction (its own cached entries) must observe closed →
	// drop, with zero grace period.
	for name, probe := range map[string]ctEvent{
		"forward": {fwd, packet.TCPAck},
		"reply":   {rk, packet.TCPAck},
	} {
		r, err := vs.ProcessMeta(probe.k, probe.flags, 11)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Kind != VerdictDrop {
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
	vs := NewVSwitch(statefulPipeline(), CacheConfig{NumTables: 4, TableCapacity: 1024},
		WithMicroflow(1), WithConntrack(0))
	tcp := ctKey(1, packet.IPProtoTCP)
	gre := ctKey(2, 47) // untracked protocol: no connection, ordinary memo

	if _, err := vs.ProcessMeta(tcp, packet.TCPSyn, 1); err != nil {
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
	if _, err := vs.ProcessMeta(tcp, packet.TCPRst, 3); err != nil {
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
}

// TestConntrackOffBitIdentical: with conntrack disabled the stateful
// entry points must be the stateless datapath, bit for bit — same
// results AND same counters, TCP flags ignored.
func TestConntrackOffBitIdentical(t *testing.T) {
	build := func() *VSwitch {
		p := NewPipeline("plain")
		p.AddTable(0, "l3", NewFieldSet(FieldIPDst))
		p.AddTable(1, "l4", NewFieldSet(FieldTpDst))
		p.MustAddRule(0, MustParseMatch("ip_dst=10.1.0.0/16"), 10, nil, 1)
		p.MustAddRule(0, MustParseMatch("*"), 1, []Action{Drop()}, NoTable)
		p.MustAddRule(1, MustParseMatch("tp_dst=443"), 10, []Action{Output(2)}, NoTable)
		p.MustAddRule(1, MustParseMatch("*"), 1, []Action{Output(3)}, NoTable)
		return NewVSwitch(p, CacheConfig{NumTables: 2, TableCapacity: 256}, WithMicroflow(128))
	}
	plain, meta := build(), build()

	rng := xorshift(42)
	for i := 0; i < 4000; i++ {
		client := int(rng.next() % 32)
		k := ctKey(client, packet.IPProtoTCP).
			With(FieldIPDst, 0x0a010000+uint64(client%8))
		flags := uint8(rng.next())
		now := int64(i * 1000)

		want, errW := plain.Process(k, now)
		got, errG := meta.ProcessMeta(k, flags, now)
		if (errW != nil) != (errG != nil) || got != want {
			t.Fatalf("pkt %d: ct-off divergence: %+v/%v vs %+v/%v", i, got, errG, want, errW)
		}
	}
	if plain.Stats() != meta.Stats() {
		t.Fatalf("counter divergence:\n  plain: %+v\n  meta:  %+v", plain.Stats(), meta.Stats())
	}
	if plain.CacheEntries() != meta.CacheEntries() {
		t.Fatalf("cache population diverged: %d vs %d", plain.CacheEntries(), meta.CacheEntries())
	}
}
