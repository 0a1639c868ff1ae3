package gigaflow

import (
	"fmt"
	"testing"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
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
	p.AddTable(3, "reverse", NewFieldSet(FieldIPSrc))
	addPool(p, 2)

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

	p.MustAddRule(3, MustParseMatch("*"), 10,
		[]Action{CtNAT(), Output(1)}, NoTable)
	return p
}

const (
	vipIP = 0x0a090001
	poolN = 3
)

// addPool gives p the test backend pool as NAT pool 1 and an egress
// table `id` with one output port per backend.
func addPool(p *Pipeline, id int) {
	p.AddTable(id, "egress", NewFieldSet(FieldIPDst))
	targets := make([]NATTarget, poolN)
	for i := range targets {
		targets[i] = NATTarget{IP: backendIP(i), Port: 8000 + uint64(i)}
		p.MustAddRule(id, MustParseMatch(fmt.Sprintf("ip_dst=%d", backendIP(i))), 10,
			[]Action{Output(uint16(100 + i))}, NoTable)
	}
	p.MustAddRule(id, MustParseMatch("*"), 1, []Action{Drop()}, NoTable)
	p.SetNATPool(1, targets)
}

// stateNATPipeline puts the state dependency and the NAT action in the
// same rules: the lb and reverse tables each carry one rule per
// ct_state, every one of them rewriting through the connection and each
// sending the packet somewhere else. A cached entry built from such a
// rule is connection-dependent AND state-dependent, and only its match
// says which state: conntrack's validity check lets it live through every
// transition, so a packet in another state must miss it by its ct_state
// bits alone.
func stateNATPipeline() *Pipeline {
	p := NewPipeline("state-nat")
	p.AddTable(0, "classify", NewFieldSet(FieldEthType, FieldIPDst, FieldCtState))
	p.AddTable(1, "lb", NewFieldSet(FieldCtState))
	p.AddTable(3, "reverse", NewFieldSet(FieldCtState))
	addPool(p, 2)

	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ct_state=0x11/0x11"), 20, nil, 3)
	p.MustAddRule(0, MustParseMatch(fmt.Sprintf(
		"eth_type=0x0800,ip_dst=%d,ct_state=0x01/0x11", vipIP)), 10, nil, 1)
	p.MustAddRule(0, MustParseMatch("*"), 1, []Action{Output(99)}, NoTable)

	// Forward: new connections go on to the per-backend egress, established
	// ones leave on one trunk port, closed ones on a drain port — all
	// three after the dnat rewrite.
	p.MustAddRule(1, MustParseMatch("ct_state=0x02/0x02"), 10, []Action{DNAT(1)}, 2)
	p.MustAddRule(1, MustParseMatch("ct_state=0x04/0x04"), 10, []Action{DNAT(1), Output(50)}, NoTable)
	p.MustAddRule(1, MustParseMatch("ct_state=0x20/0x20"), 10, []Action{DNAT(1), Output(66)}, NoTable)
	p.MustAddRule(1, MustParseMatch("*"), 1, []Action{Drop()}, NoTable)

	// Reply: un-NAT, then by state.
	p.MustAddRule(3, MustParseMatch("ct_state=0x04/0x04"), 10, []Action{CtNAT(), Output(1)}, NoTable)
	p.MustAddRule(3, MustParseMatch("ct_state=0x20/0x20"), 10, []Action{CtNAT(), Output(2)}, NoTable)
	p.MustAddRule(3, MustParseMatch("*"), 1, []Action{CtNAT(), Drop()}, NoTable)
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
func lateBindPipeline() *Pipeline {
	p := NewPipeline("late-bind")
	p.AddTable(0, "prenat", NewFieldSet(FieldEthType))
	p.AddTable(1, "classify", NewFieldSet(FieldEthType, FieldIPDst, FieldCtState))
	p.AddTable(2, "lb", NewFieldSet(FieldIPDst))
	addPool(p, 3)

	p.MustAddRule(0, MustParseMatch("eth_type=0x0800"), 10, []Action{CtNAT()}, 1)
	p.MustAddRule(0, MustParseMatch("*"), 1, []Action{Output(99)}, NoTable)

	p.MustAddRule(1, MustParseMatch("ct_state=0x20/0x20"), 30, []Action{Drop()}, NoTable)
	p.MustAddRule(1, MustParseMatch("ct_state=0x11/0x11"), 20, []Action{Output(1)}, NoTable)
	p.MustAddRule(1, MustParseMatch("ct_state=0x03/0x13"), 10, []Action{Output(10)}, NoTable)
	p.MustAddRule(1, MustParseMatch(fmt.Sprintf("ip_dst=%d,ct_state=0x05/0x15", vipIP)), 10, nil, 2)
	p.MustAddRule(1, MustParseMatch("ct_state=0x05/0x15"), 5, nil, 3)
	p.MustAddRule(1, MustParseMatch("*"), 1, []Action{Output(99)}, NoTable)

	p.MustAddRule(2, MustParseMatch("*"), 10, []Action{DNAT(1), Output(20)}, NoTable)
	return p
}

// statefulPipelines are the pipelines the stateful differential runs
// over.
var statefulPipelines = []struct {
	name      string
	mk        func() *Pipeline
	lateBinds bool // its tape must bind connections that are already established
}{
	{"lb", statefulPipeline, false},
	{"state-nat", stateNATPipeline, false},
	{"late-bind", lateBindPipeline, true},
}

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

// ctEvent is one packet of a differential tape: its key and TCP flags,
// the virtual time it arrives at, and whether the idle-expiry sweep runs
// just before it.
type ctEvent struct {
	k     Key
	flags uint8
	now   int64
	sweep bool
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

// tapeCoverage counts the events a stateful tape was built to contain
// and a tamer one might not.
type tapeCoverage struct {
	rstInNew        int // an RST on a connection still in New
	responderReopen int // a closed connection reopened by its old responder
	lateBind        int // a NAT binding made on an already-established connection
}

// statefulTape is statefulTapeFor over statefulPipeline.
func statefulTape(t *testing.T, clients, packets int, maxIdle int64) []ctEvent {
	tape, _ := statefulTapeFor(t, statefulPipeline, clients, packets, maxIdle)
	return tape
}

// statefulTapeFor generates the stateful differential tape for a
// pipeline: a randomized interleaving of handshakes, data, closes and
// resets from either side, tuple reuse by either side, and idle expiry
// across many connections. What the next packet is depends on connection
// state (is there a connection to reply on, which backend was it bound
// to), so the tape is generated against a Reference that processes it as
// it grows; replays then run it against fresh ones.
func statefulTapeFor(t *testing.T, mk func() *Pipeline, clients, packets int, maxIdle int64) ([]ctEvent, tapeCoverage) {
	ref := NewReference(mk(), true, 0)
	tape := make([]ctEvent, 0, packets)
	var cov tapeCoverage
	rng := xorshift(0x9e3779b97f4a7c15)
	now := int64(0)
	for i := 0; i < packets; i++ {
		now += int64(rng.next()%20_000) + 1
		client := int(rng.next() % uint64(clients))
		proto := uint64(packet.IPProtoTCP)
		if client%3 == 0 {
			proto = packet.IPProtoUDP
		}
		tcp := proto == packet.IPProtoTCP
		fwd := ctKey(client, proto)
		// The reply tuple: post-NAT when bound.
		rpl, ok := replyKeyFor(ref.Conntrack(), fwd)
		if !ok {
			rpl = invertTuple(fwd)
		}
		conn, _, _ := ref.Conntrack().Lookup(fwd)

		var ev ctEvent
		switch roll := rng.next() % 12; {
		case roll < 4: // forward data (or first packet: SYN)
			ev = ctEvent{k: fwd, flags: packet.TCPAck}
			if conn == nil {
				ev.flags = packet.TCPSyn
			}
		case roll < 8: // reply
			ev = ctEvent{k: rpl, flags: packet.TCPAck}
		case roll < 9 && tcp: // close, from either side
			ev = ctEvent{k: fwd, flags: packet.TCPFin | packet.TCPAck}
			if rng.next()%2 == 0 {
				ev.flags = packet.TCPRst
			}
			if rng.next()%2 == 0 {
				ev.k = rpl
			}
		case roll < 10 && tcp && conn != nil && conn.State == conntrack.StateNew:
			// Connection refused: the responder resets a half-open
			// connection.
			ev = ctEvent{k: rpl, flags: packet.TCPRst | packet.TCPAck}
		case roll < 11 && tcp: // the old responder opens the tuple itself
			ev = ctEvent{k: rpl, flags: packet.TCPSyn}
		default: // fresh SYN: reopen after close, dup-SYN otherwise
			ev = ctEvent{k: fwd, flags: packet.TCPSyn}
		}
		if !tcp {
			ev.flags = 0
		}
		// The idle sweep, exactly as the service's expiry ticker would
		// run it.
		ev.now, ev.sweep = now, i%500 == 499
		if ev.sweep {
			ref.ExpireIdle(now, maxIdle)
			conn, _, _ = ref.Conntrack().Lookup(fwd)
		}
		if conn != nil && conn.State == conntrack.StateNew && ev.flags&packet.TCPRst != 0 {
			cov.rstInNew++
		}
		lateBindable := conn != nil && conn.State == conntrack.StateEstablished && !conn.DNAT.Set
		reopened := ref.Conntrack().Stats().Reopened
		if _, err := ref.ProcessMeta(ev.k, ev.flags, now); err != nil {
			t.Fatalf("tape pkt %d: %v", i, err)
		}
		if lateBindable && conn.DNAT.Set {
			cov.lateBind++
		}
		if ev.k == rpl && ref.Conntrack().Stats().Reopened != reopened {
			cov.responderReopen++
		}
		tape = append(tape, ev)
	}
	return tape, cov
}

// eachBatch cuts tape into batches of the cycling sizes, never across a
// sweep, and calls fn for each with the half-open packet range, the
// virtual time the whole batch is stamped with (its last packet's) and
// whether the sweep runs before it. Every replay of a tape — packet by
// packet or batched — takes its timestamps from here, so all see the same
// clock.
func eachBatch(tape []ctEvent, sizes []int, fn func(lo, hi int, now int64, sweep bool)) {
	for lo, c := 0, 0; lo < len(tape); c++ {
		hi := lo + 1
		for hi < len(tape) && hi-lo < sizes[c%len(sizes)] && !tape[hi].sweep {
			hi++
		}
		fn(lo, hi, tape[hi-1].now, tape[lo].sweep)
		lo = hi
	}
}

// TestStatefulDifferential is the cache-invalidation proof: a stateful
// tape runs through a conntrack-enabled VSwitch on BOTH cache backends
// and through the cache-free Reference walk. Every packet's verdict and
// final key must be bit-identical — if a cached entry ever served a packet
// in a connection state, of a connection generation or under a NAT binding
// other than the one it was built for, the cached result would diverge
// from the oracle here.
//
// It runs over three pipelines, because a main-cache entry outlives its
// connection's transitions and each pipeline leans on a different part of
// what keeps that safe: statefulPipeline classifies on ct_state ahead of
// the NAT tables; stateNATPipeline discriminates new/established/closed
// in the very rules that rewrite, so the entry's match bits alone carry
// the state dependency; lateBindPipeline binds only once established, so
// entries resolved before the binding — in earlier walks and earlier in
// the binding walk — keep matching and only the validity check retires
// them. Every tape has resets of half-open connections and closed tuples
// reopened by either side.
//
// The inline leg feeds each packet with its TCP flags through ProcessMeta.
// The park leg replays the same tape through the park-mode entry points,
// which carry no flags (like Process), in mixed batches, with the
// second-chance lookup and CompleteMiss driver of TestProcessBatchParkFollowers
// and the overflow fallback, against a Reference fed the same flagless
// packets: on a conntrack switch the stateful stages are not optional, so
// park mode must track, guard and validate exactly as the inline path does.
// It also pins what ProcessMissInline and CompleteMiss document for such a
// switch: nothing is ever reported parked, and a call made anyway is
// Process — it may come back a cache hit, and its flight record is an
// ordinary one (not Deferred, no park time) whatever travNs/parkNs said.
func TestStatefulDifferential(t *testing.T) {
	const (
		clients = 48
		packets = 12000
		maxIdle = 500_000 // virtual ns
	)
	run := func(t *testing.T, mk func() *Pipeline, tape []ctEvent, backend, leg string) {
		opts := []VSwitchOption{
			WithMicroflow(4 * clients),
			WithConntrack(0),
			WithConntrackMaxIdle(maxIdle),
		}
		if backend == "megaflow" {
			opts = append(opts, WithMegaflowBackend(4096))
		}
		sizes := []int{1}
		if leg == "park" {
			sizes = []int{1, 1, 1, 7, 32, 3}
			opts = append(opts, WithLatencyRecorder(telemetry.NewLatencyRecorder(64, 0)))
		}
		vs := NewVSwitch(mk(), CacheConfig{NumTables: 4, TableCapacity: 4 * 1024}, opts...)
		ref := NewReference(mk(), true, 0)

		out := make([]ProcessResult, 32)
		errs := make([]error, 32)
		parked := make([]bool, 32)
		keys := make([]Key, 32)
		singles, everParked, fallbackHits, completeHits := 0, 0, 0, 0
		// replayed wraps one out-of-protocol ProcessMissInline/CompleteMiss
		// call: it must have been Process, so its flight record is an
		// ordinary one; it reports whether the packet came back a hit.
		replayed := func(call func()) bool {
			misses := vs.Stats().CacheMisses
			call()
			if r := vs.Recorder().Recent(1)[0]; r.Flags&telemetry.FlightDeferred != 0 || r.ParkNs != 0 {
				t.Fatalf("a conntrack switch logged a deferred completion: %+v", r)
			}
			return vs.Stats().CacheMisses == misses
		}
		eachBatch(tape, sizes, func(lo, hi int, now int64, sweep bool) {
			if sweep {
				vs.ExpireIdle(now)
				ref.ExpireIdle(now, maxIdle)
			}
			n := hi - lo
			for i, ev := range tape[lo:hi] {
				keys[i] = ev.k
			}
			switch {
			case leg == "inline":
				out[0], errs[0] = vs.ProcessMeta(keys[0], tape[lo].flags, now)
			case n > 1:
				vs.ProcessBatchPark(keys[:n], out, errs, parked, now)
				for i := 0; i < n; i++ {
					if !parked[i] {
						continue
					}
					everParked++
					// Second-chance lookup, then the engine's traversal.
					var still bool
					if out[i], still, errs[i] = vs.ProcessPark(keys[i], now); still {
						tr, err := vs.Pipeline().Process(keys[i])
						if err != nil {
							t.Fatal(err)
						}
						out[i], errs[i] = vs.CompleteMiss(keys[i], tr, now, 100, 50)
					}
				}
			default:
				// One packet at a time, through each park-mode entry
				// point in turn: on a conntrack switch the fallback
				// and the completion must take the full path too.
				switch singles++; singles % 3 {
				case 0:
					var still bool
					if out[0], still, errs[0] = vs.ProcessPark(keys[0], now); still {
						everParked++
						out[0], errs[0] = vs.ProcessMissInline(keys[0], now)
					}
				case 1:
					if replayed(func() { out[0], errs[0] = vs.ProcessMissInline(keys[0], now) }) {
						fallbackHits++
					}
				default:
					tr, err := vs.Pipeline().Process(keys[0])
					if err != nil {
						t.Fatal(err)
					}
					if replayed(func() { out[0], errs[0] = vs.CompleteMiss(keys[0], tr, now, 100, 50) }) {
						completeHits++
					}
				}
			}
			for i, ev := range tape[lo:hi] {
				flags := ev.flags
				if leg == "park" {
					flags = 0
				}
				want, errW := ref.ProcessMeta(ev.k, flags, now)
				got, errG := out[i], errs[i]
				if (errW != nil) != (errG != nil) {
					t.Fatalf("pkt %d: error divergence: ref=%v vs=%v", lo+i, errW, errG)
				}
				if got.Verdict != want.Verdict || got.Final != want.Final {
					t.Fatalf("pkt %d (flags %#x key %s):\n  cached: %+v %s\n  oracle: %+v %s\n  stats: %+v",
						lo+i, flags, ev.k,
						got.Verdict, got.Final, want.Verdict, want.Final, vs.Stats())
				}
			}
			cs, rs := vs.Conntrack().Stats(), ref.Conntrack().Stats()
			if cs.Created != rs.Created || cs.Transitions != rs.Transitions ||
				cs.Reopened != rs.Reopened || cs.Expired != rs.Expired || cs.Active != rs.Active {
				t.Fatalf("pkts %d–%d: table divergence:\n  cached: %+v\n  oracle: %+v", lo, hi-1, cs, rs)
			}
		})

		st := vs.Stats()
		if st.Packets != packets {
			t.Fatalf("processed %d packets, want %d", st.Packets, packets)
		}
		// The trace must actually exercise the protocol: caches hit,
		// guards fire, entries die.
		if st.MicroflowHits == 0 || st.CtFastpath == 0 {
			t.Errorf("fast path never engaged: %+v", st)
		}
		ctStats := vs.Conntrack().Stats()
		if ctStats.Expired == 0 {
			t.Errorf("trace too tame: %+v", ctStats)
		}
		if everParked != 0 {
			t.Errorf("a conntrack switch reported %d packets parked; it must resolve every miss inline", everParked)
		}
		if leg == "park" && (fallbackHits == 0 || completeHits == 0) {
			t.Errorf("no out-of-protocol call came back a hit: ProcessMissInline %d, CompleteMiss %d", fallbackHits, completeHits)
		}
		if leg == "inline" {
			if st.CtGuardFails == 0 {
				t.Errorf("microflow ct guard never fired: %+v", st)
			}
			if ctStats.Transitions == 0 || ctStats.Reopened == 0 {
				t.Errorf("trace too tame: %+v", ctStats)
			}
		}
		t.Logf("stats: %+v", st)
		t.Logf("conntrack: %+v", ctStats)
	}
	tapes := make([][]ctEvent, len(statefulPipelines))
	for i, pl := range statefulPipelines {
		var cov tapeCoverage
		tapes[i], cov = statefulTapeFor(t, pl.mk, clients, packets, maxIdle)
		t.Logf("%s tape: %+v", pl.name, cov)
		if cov.rstInNew == 0 || cov.responderReopen == 0 || pl.lateBinds && cov.lateBind == 0 {
			t.Errorf("%s tape too tame: %+v", pl.name, cov)
		}
	}
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			for _, leg := range []string{"inline", "park"} {
				t.Run(leg, func(t *testing.T) {
					for i, pl := range statefulPipelines {
						t.Run(pl.name, func(t *testing.T) { run(t, pl.mk, tapes[i], backend, leg) })
					}
				})
			}
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
		"forward": {k: fwd, flags: packet.TCPAck},
		"reply":   {k: rk, flags: packet.TCPAck},
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
	if uf := vs.Microflow().Stats(); uf.Bypassed != 0 || uf.EvictLRU == 0 {
		t.Errorf("the tier recycled nothing, or stepped aside: %+v", uf)
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

// natLBPipeline is the load balancer the benchmark's nat-conn workload and
// gigabench's dnslb scenario both run (bench/natconn.go,
// cmd/gigabench/dnslb.go): replies (+trk+rpl) take the reverse path and
// are un-NATed by ct_nat, forward packets to the VIP's service port are
// pinned to a backend by dnat and leave on that backend's port. No rule
// looks at new/established/closed.
func natLBPipeline(proto uint64) *Pipeline {
	p := NewPipeline("natlb")
	p.AddTable(0, "classify", NewFieldSet(FieldEthType, FieldIPProto, FieldIPDst,
		FieldTpDst, FieldCtState))
	p.AddTable(1, "lb", NewFieldSet(FieldIPDst))
	p.AddTable(3, "reverse", NewFieldSet(FieldIPSrc))
	addPool(p, 2)

	p.MustAddRule(0, MustParseMatch(fmt.Sprintf(
		"eth_type=0x0800,ip_proto=%d,ct_state=0x11/0x11", proto)), 20, nil, 3)
	p.MustAddRule(0, MustParseMatch(fmt.Sprintf(
		"eth_type=0x0800,ip_proto=%d,ip_dst=%d,tp_dst=443,ct_state=0x01/0x11", proto, vipIP)), 10, nil, 1)
	p.MustAddRule(0, MustParseMatch("*"), 1, []Action{Drop()}, NoTable)
	p.MustAddRule(1, MustParseMatch("*"), 10, []Action{DNAT(1)}, 2)
	p.MustAddRule(3, MustParseMatch("*"), 10, []Action{CtNAT(), Output(1)}, NoTable)
	return p
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
	tcp := []pkt{{fwd, packet.TCPSyn}, {rpl, packet.TCPSyn | packet.TCPAck}, {fwd, packet.TCPAck}}
	for i := 3; i < 11; i++ {
		tcp = append(tcp, pkt{i%2 == 0, packet.TCPAck})
	}
	tcp = append(tcp, pkt{fwd, packet.TCPFin | packet.TCPAck})
	// dnslb's exchange: four query/reply rounds.
	udp := []pkt{{fwd, 0}, {rpl, 0}, {fwd, 0}, {rpl, 0}, {fwd, 0}, {rpl, 0}, {fwd, 0}, {rpl, 0}}

	for _, tc := range []struct {
		name  string
		proto uint64
		pkts  []pkt
		want  VSwitchStats
	}{
		{"tcp", packet.IPProtoTCP, tcp, VSwitchStats{Packets: 12, MicroflowHits: 8, CacheHits: 2,
			CacheMisses: 2, Slowpath: 2, Installs: 2, SlowpathSteps: 5, SlowpathTupleProbes: 6,
			CtFastpath: 8, CtGuardFails: 2}},
		{"udp", packet.IPProtoUDP, udp, VSwitchStats{Packets: 8, MicroflowHits: 5, CacheHits: 1,
			CacheMisses: 2, Slowpath: 2, Installs: 2, SlowpathSteps: 5, SlowpathTupleProbes: 6,
			CtFastpath: 5, CtGuardFails: 1}},
	} {
		for _, backend := range []string{"gigaflow", "megaflow"} {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				opts := []VSwitchOption{WithMicroflow(64), WithConntrack(0)}
				if backend == "megaflow" {
					opts = append(opts, WithMegaflowBackend(1024))
				}
				vs := NewVSwitch(natLBPipeline(tc.proto), CacheConfig{NumTables: 4, TableCapacity: 1024}, opts...)
				ref := NewReference(natLBPipeline(tc.proto), true, 0)
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
					if got.Verdict != want.Verdict || got.Final != want.Final || got.Verdict.Kind != VerdictOutput {
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
