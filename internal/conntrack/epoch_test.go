package conntrack

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/packet"
)

// TestEpochValidLifecycle pins the validity rule case by case. Each case
// brings a connection on the tuple client→VIP to some point, takes a
// stamp the way the datapath's resolver does — (c.Orig, c.Epoch) — lets
// something happen, and says what both consumers must then see: valid is
// EpochValid's answer (a main-cache entry: same connection and bindings?),
// memo whether the connection still carries exactly the stamped epoch (a
// microflow memo: same state too?).
func TestEpochValidLifecycle(t *testing.T) {
	const (
		clientIP, vipIP, backendIP = 0x0a000001, 0x0a090001, 0x0a140001
	)
	fwd := tuple(clientIP, vipIP, 2000, 443)
	rev := invert(fwd)
	other := tuple(0x0a000002, vipIP, 2001, 443)
	syn := func(tb *Table) *Conn {
		_, c, _ := tb.Track(fwd, packet.TCPSyn, 1)
		return c
	}
	established := func(tb *Table) *Conn {
		c := syn(tb)
		tb.Track(rev, packet.TCPSyn|packet.TCPAck, 2)
		return c
	}
	closed := func(tb *Table) *Conn {
		c := established(tb)
		tb.Track(fwd, packet.TCPFin|packet.TCPAck, 3)
		return c
	}
	cases := []struct {
		name     string
		maxConns int
		setup    func(tb *Table) *Conn
		then     func(t *testing.T, tb *Table, c *Conn) // t is the case's own: a failure ends it alone
		valid    bool
		memo     bool
	}{
		{name: "nothing happens", setup: syn,
			then: func(*testing.T, *Table, *Conn) {}, valid: true, memo: true},
		{name: "data both ways", setup: established,
			then: func(_ *testing.T, tb *Table, _ *Conn) {
				tb.Track(fwd, packet.TCPAck, 10)
				tb.Track(rev, packet.TCPAck|packet.TCPPsh, 11)
			}, valid: true, memo: true},
		{name: "new to established", setup: syn,
			then: func(t *testing.T, tb *Table, c *Conn) {
				tb.Track(rev, packet.TCPSyn|packet.TCPAck, 10)
				if c.State != StateEstablished {
					t.Fatalf("state %v", c.State)
				}
			}, valid: true},
		{name: "established to closed", setup: established,
			then: func(t *testing.T, tb *Table, c *Conn) {
				tb.Track(rev, packet.TCPFin|packet.TCPAck, 10)
				if c.State != StateClosed {
					t.Fatalf("state %v", c.State)
				}
			}, valid: true},
		{name: "RST in new", setup: syn,
			then: func(t *testing.T, tb *Table, c *Conn) {
				tb.Track(fwd, packet.TCPRst, 10)
				if c.State != StateClosed {
					t.Fatalf("state %v", c.State)
				}
			}, valid: true},
		{name: "all three transitions", setup: syn,
			then: func(_ *testing.T, tb *Table, _ *Conn) {
				tb.Track(rev, packet.TCPSyn|packet.TCPAck, 10)
				tb.Track(fwd, packet.TCPRst, 11)
			}, valid: true},
		// The pipeline walk's first-resolution rule: a traversal is stamped
		// at its first stateful action, so when a later action of the same
		// walk makes a binding the stamp predates it, and the entries
		// installed from that walk must fail on their first use.
		{name: "DNAT binding later in the same walk", setup: syn,
			then: func(_ *testing.T, tb *Table, c *Conn) { tb.SetDNAT(c, backendIP, 8443) }},
		{name: "SNAT binding later in the same walk", setup: syn,
			then: func(_ *testing.T, tb *Table, c *Conn) { tb.SetSNAT(c, 0x0a090002, 4000) }},
		{name: "late binding after a transition", setup: established,
			then: func(_ *testing.T, tb *Table, c *Conn) { tb.SetDNAT(c, backendIP, 8443) }},
		{name: "second binding of the other kind",
			setup: func(tb *Table) *Conn {
				c := syn(tb)
				tb.SetDNAT(c, backendIP, 8443)
				return c
			},
			then: func(_ *testing.T, tb *Table, c *Conn) { tb.SetSNAT(c, 0x0a090002, 4000) }},
		{name: "rebinding a bound connection is a no-op",
			setup: func(tb *Table) *Conn {
				c := syn(tb)
				tb.SetDNAT(c, backendIP, 8443)
				return c
			},
			then:  func(_ *testing.T, tb *Table, c *Conn) { tb.SetDNAT(c, backendIP+1, 8444) },
			valid: true, memo: true},
		{name: "idle expiry", setup: established,
			then: func(t *testing.T, tb *Table, _ *Conn) {
				if tb.ExpireIdle(1000, 100) != 1 {
					t.Fatal("nothing expired")
				}
			}},
		{name: "MaxConns eviction", maxConns: 1, setup: established,
			then: func(t *testing.T, tb *Table, _ *Conn) {
				tb.Track(other, packet.TCPSyn, 10)
				if tb.Stats().EvictLRU != 1 {
					t.Fatal("nothing evicted")
				}
			}},
		{name: "reopened by the initiator", setup: closed,
			then: func(_ *testing.T, tb *Table, _ *Conn) { tb.Track(fwd, packet.TCPSyn, 10) }},
		{name: "reopened by the responder", setup: closed,
			then: func(t *testing.T, tb *Table, c *Conn) {
				gen := c.gen
				_, c2, dir := tb.Track(rev, packet.TCPSyn, 10)
				if c2.gen == gen || dir != DirForward || c2.Orig != rev {
					t.Fatal("the responder's SYN did not open a connection of its own")
				}
			}},
		{name: "expired, tuple reused", setup: established,
			then: func(t *testing.T, tb *Table, c *Conn) {
				gen := c.gen
				tb.ExpireIdle(1000, 100)
				if _, c2, _ := tb.Track(fwd, packet.TCPSyn, 1001); c2.gen == gen {
					t.Fatal("tuple reuse handed back the dead connection")
				}
			}},
		{name: "displaced by another connection's NAT registration",
			// The stamped connection is a stray backend→client flow; the
			// real client connection is then DNAT'd onto that backend and
			// its reply registration takes the tuple over.
			setup: func(tb *Table) *Conn {
				_, junk, _ := tb.Track(tuple(backendIP, clientIP, 8443, 2000), packet.TCPSyn, 1)
				return junk
			},
			then: func(t *testing.T, tb *Table, junk *Conn) {
				c := syn(tb)
				tb.SetDNAT(c, backendIP, 8443)
				if got, _, _ := tb.Lookup(junk.Orig); got != c || tb.Stats().Displaced != 1 {
					t.Fatal("no displacement")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable(tc.maxConns)
			c := tc.setup(tb)
			orig, epoch := c.Orig, c.Epoch
			if !tb.EpochValid(orig, epoch) {
				t.Fatal("a stamp just taken does not validate")
			}
			tc.then(t, tb, c)
			if got := tb.EpochValid(orig, epoch); got != tc.valid {
				t.Errorf("EpochValid = %v, want %v", got, tc.valid)
			}
			if got := c.Epoch == epoch; got != tc.memo {
				t.Errorf("connection still carries the stamped epoch: %v, want %v", got, tc.memo)
			}
			// Whatever happened, a stamp taken now from whoever holds the
			// tuple validates: a re-walk heals the entry.
			if c2, _, ok := tb.Lookup(orig); ok && !tb.EpochValid(c2.Orig, c2.Epoch) {
				t.Error("a fresh stamp does not validate")
			}
		})
	}
}

// epochStamp is what the model remembers of one stamp: where it was taken
// (the pair a cache entry records) and everything about the connection a
// cached result could depend on, as it was then — the connection itself
// by its storage and its generation, since storage outlives connections.
type epochStamp struct {
	tuple      flow.Key
	epoch      uint64
	conn       *Conn
	gen        uint64
	state      State
	dnat, snat NATBinding
}

// runEpochTape interprets tape as operations on a connection table — Track
// with any flag byte in either direction, NAT bindings, idle expiry, ICMP
// packets, all over a tuple space small enough that tables fill (the
// first byte picks MaxConns), closed tuples reopen from either side and
// NAT registrations land on other connections' tuples, their own
// included — and takes a stamp wherever the datapath would: from the
// connection a packet tracked to, and on both sides of a binding. After
// every operation each remembered stamp is held against a model that
// knows nothing of epochs: a stamp is valid iff its tuple still resolves
// to the very connection it was taken from (the same generation: a later
// connection may occupy its storage) and that connection's bindings are
// what they were. The memo's stamp is checked the same way: storage still
// carrying the stamped epoch must also hold the stamped connection, in
// the stamped state. Every live connection must resolve from both its
// tuples, and every ICMP packet's ct_rel bit is held against a scan of the
// live connections' host pairs. It returns what the tape reached.
func runEpochTape(t testing.TB, tape []byte) (cov epochCoverage) {
	next := func() byte {
		if len(tape) == 0 {
			return 0
		}
		b := tape[0]
		tape = tape[1:]
		return b
	}
	// Three hosts, two ports, two protocols: 144 tuples, and every NAT
	// target is some tuple's endpoint. A tuple that is its own inverse is
	// nudged off the diagonal: it has no reply direction to speak of. Half
	// the time the last tuple comes again, so connections live long enough
	// to go through their states.
	host := func(b byte) uint64 { return 1 + uint64(b%3) }
	port := func(b byte) uint64 { return 10 * (1 + uint64(b%2)) }
	last := tuple(1, 2, 10, 20)
	key := func() flow.Key {
		b := next()
		if b&0x80 != 0 {
			return last
		}
		k := tuple(host(b), host(b>>2), port(b>>4), port(b>>5))
		if k == invert(k) {
			k.Set(flow.FieldTpDst, 30)
		}
		if b&0x40 != 0 {
			k = udp(k)
		}
		last = k
		return k
	}
	tb := NewTable(int(next() % 8)) // 0 is unbounded
	var stamps []epochStamp
	take := func(c *Conn) {
		if len(stamps) == 96 {
			stamps = stamps[1:]
		}
		stamps = append(stamps, epochStamp{c.Orig, c.Epoch, c, c.gen, c.State, c.DNAT, c.SNAT})
	}
	var now int64
	track := func(k flow.Key, flags uint8) {
		if k.Get(flow.FieldIPProto) != packet.IPProtoTCP {
			flags = 0
		}
		if _, c, _ := tb.Track(k, flags, now); c != nil {
			take(c)
			if c.State == StateClosed && flags&(packet.TCPFin|packet.TCPRst) != 0 {
				cov.closing++
			}
		}
	}
	// icmp tracks an ICMP packet between k's hosts: related iff some live
	// connection was first seen between them, in either direction.
	icmp := func(k flow.Key) {
		k = k.With(flow.FieldIPProto, packet.IPProtoICMP).With(flow.FieldTpSrc, 0).With(flow.FieldTpDst, 0)
		bits, c, _ := tb.Track(k, 0, now)
		related := false
		for ref := tb.lruHead; ref != 0; ref = tb.conns.At(ref).next {
			o := tb.conns.At(ref).Orig
			src, dst := o.Get(flow.FieldIPSrc), o.Get(flow.FieldIPDst)
			related = related || src == k.Get(flow.FieldIPSrc) && dst == k.Get(flow.FieldIPDst) ||
				src == k.Get(flow.FieldIPDst) && dst == k.Get(flow.FieldIPSrc)
		}
		want := flow.CtTrk
		if related {
			want |= flow.CtRel
		}
		if c != nil || bits != want {
			t.Fatalf("ICMP %v: ct_state %#x, connection %v; want %#x, none", k, bits, c, want)
		}
		if cov.related+cov.unrelated == 0 {
			cov.first = cov.phase(tb)
		}
		cov.last = cov.phase(tb)
		if related {
			cov.related++
		} else {
			cov.unrelated++
		}
	}
	for step := 0; len(tape) > 0; step++ {
		op := next()
		// Mostly small steps, sometimes past the LRU's reposition quantum.
		now += int64(next()) << (op >> 6 * 4)
		switch op % 8 {
		case 0, 1, 2:
			track(key(), next())
		case 3, 4:
			// The other direction of whatever connection holds the tuple.
			k := key()
			if c, dir, ok := tb.Lookup(k); ok {
				k = c.reply
				if dir == DirReply {
					k = c.Orig
				}
			}
			track(k, next())
		case 5:
			c, _, ok := tb.Lookup(key())
			b := next()
			if !ok {
				continue
			}
			take(c) // a walk's first resolution, then a binding later in it
			if b&0x80 == 0 {
				tb.SetDNAT(c, host(b), port(b>>2))
			} else {
				tb.SetSNAT(c, host(b), port(b>>2))
			}
			take(c)
		case 6:
			tb.ExpireIdle(now, int64(next())<<(next()%3*8))
		default:
			if k := key(); op&0x08 != 0 {
				icmp(k)
			} else if c, _, ok := tb.Lookup(k); ok {
				take(c)
			}
		}
		// Every live connection resolves from both its tuples, its reply
		// tuple as the reply direction even where that is its forward
		// tuple too (a NAT re-registration onto its own tuple), and the
		// index holds those tuples and nothing else.
		live, tuples := map[uint32]bool{}, 0
		for ref := tb.lruHead; ref != 0; ref = tb.conns.At(ref).next {
			c := tb.conns.At(ref)
			live[ref], tuples = true, tuples+2
			fwdDir := DirForward
			if sameTuple(&c.Orig, &c.reply) {
				fwdDir, tuples = DirReply, tuples-1
			}
			for _, want := range []struct {
				tuple flow.Key
				dir   Dir
			}{{c.Orig, fwdDir}, {c.reply, DirReply}} {
				if got, dir, ok := tb.Lookup(want.tuple); !ok || got != c || dir != want.dir {
					t.Fatalf("step %d (op %d): %v resolves to %p/%v (found %v), want %p/%v",
						step, op%8, want.tuple, got, dir, ok, c, want.dir)
				}
			}
		}
		for _, s := range tb.index.Slots {
			if s.Hash != 0 && !live[s.Ref>>1] {
				t.Fatalf("step %d (op %d): the index names connection %d, which is not live", step, op%8, s.Ref>>1)
			}
			if s.Hash != 0 {
				tuples--
			}
		}
		if tuples != 0 {
			t.Fatalf("step %d (op %d): the index holds %d slots more than the live connections' tuples", step, op%8, -tuples)
		}
		for i := range stamps {
			s := &stamps[i]
			c, _, ok := tb.Lookup(s.tuple)
			same := ok && c.gen == s.gen && c.DNAT == s.dnat && c.SNAT == s.snat
			if got := tb.EpochValid(s.tuple, s.epoch); got != same {
				t.Fatalf("step %d (op %d): EpochValid(%v, %d) = %v, but same connection and bindings = %v\n  stamped %+v\n  now     %+v",
					step, op%8, s.tuple, s.epoch, got, same, s, s.conn)
			}
			if s.conn.Epoch == s.epoch && !(same && s.conn.gen == s.gen && s.conn.State == s.state) {
				t.Fatalf("step %d (op %d): connection still carries epoch %d but moved on\n  stamped %+v\n  now     %+v",
					step, op%8, s.epoch, s, s.conn)
			}
			if s.conn.bound > s.conn.Epoch {
				t.Fatalf("step %d: bound %d ahead of epoch %d", step, s.conn.bound, s.conn.Epoch)
			}
			switch {
			case !same:
				cov.invalid++
			case s.conn.Epoch != s.epoch:
				cov.survived++
			default:
				cov.unmoved++
			}
		}
	}
	cov.stats = tb.Stats()
	return cov
}

// epochCoverage counts the stamp checks a tape made by outcome — invalid,
// valid although the connection has transitioned since (the case the bound
// stamp exists for), valid on an unmoved connection — and the ICMP packets
// it checked by the model's ct_rel, beside the table's own counters. first
// and last are how far the table had gone at the first and the last ICMP
// packet.
type epochCoverage struct {
	invalid, survived, unmoved int
	related, unrelated         int
	closing                    int // tracked FIN/RST packets that left their connection closed
	first, last                epochPhase
	stats                      Stats
}

// epochPhase is how many connections a table had opened, closed, evicted
// and expired so far.
type epochPhase struct{ opened, closed, evicted, expired int }

func (cov *epochCoverage) phase(tb *Table) epochPhase {
	st := tb.Stats()
	return epochPhase{int(st.Created), cov.closing, int(st.EvictLRU), int(st.Expired)}
}

// TestEpochValidOpTape drives runEpochTape with seeded random tapes, and
// checks they reach what the rule is about: every way a connection dies,
// both bindings, and stamps on either side of the verdict.
func TestEpochValidOpTape(t *testing.T) {
	var sum epochCoverage
	for seed := int64(1); seed <= 16; seed++ {
		tape := make([]byte, 16_000)
		rand.New(rand.NewSource(seed)).Read(tape)
		tape[0] = byte(seed) // MaxConns 1..7 and unbounded
		cov := runEpochTape(t, tape)
		sum.invalid += cov.invalid
		sum.survived += cov.survived
		sum.unmoved += cov.unmoved
		sum.related += cov.related
		sum.unrelated += cov.unrelated
		// first sums what the tables did before their first ICMP packet,
		// last what they did between their first and their last.
		sum.first.opened += cov.first.opened
		sum.first.closed += cov.first.closed
		sum.first.evicted += cov.first.evicted
		sum.first.expired += cov.first.expired
		sum.last.opened += cov.last.opened - cov.first.opened
		sum.last.closed += cov.last.closed - cov.first.closed
		sum.last.evicted += cov.last.evicted - cov.first.evicted
		sum.last.expired += cov.last.expired - cov.first.expired
		sum.stats.Transitions += cov.stats.Transitions
		sum.stats.Reopened += cov.stats.Reopened
		sum.stats.Expired += cov.stats.Expired
		sum.stats.EvictLRU += cov.stats.EvictLRU
		sum.stats.Displaced += cov.stats.Displaced
	}
	t.Logf("%+v", sum)
	if sum.invalid == 0 || sum.survived == 0 || sum.unmoved == 0 {
		t.Errorf("tapes too tame: stamp checks %+v", sum)
	}
	if st := sum.stats; st.Transitions == 0 || st.Reopened == 0 || st.Expired == 0 || st.EvictLRU == 0 || st.Displaced == 0 {
		t.Errorf("tapes too tame: %+v", st)
	}
	// The pair index behind ct_rel is built at a table's first ICMP packet
	// from the connections then live, and maintained after: connections
	// must come and go on both sides of that point.
	if sum.related == 0 || sum.unrelated == 0 {
		t.Errorf("tapes too tame: %d related and %d unrelated ICMP packets", sum.related, sum.unrelated)
	}
	for _, p := range []epochPhase{sum.first, sum.last} {
		if p.opened == 0 || p.closed == 0 || p.evicted == 0 || p.expired == 0 {
			t.Errorf("tapes too tame around the first ICMP packet: before %+v, after %+v", sum.first, sum.last)
		}
	}
}

// FuzzEpochValid is runEpochTape over fuzzer-chosen tapes; the checked-in
// corpus (testdata/fuzz/FuzzEpochValid) replays in `make fuzz-regress`.
func FuzzEpochValid(f *testing.F) {
	f.Add([]byte{0})
	// SYN, the reply's SYN-ACK, a DNAT binding, FIN, then the responder reopens.
	f.Add([]byte{0, 0, 1, 0x01, 0x02, 3, 1, 0x01, 0x12, 5, 1, 0x01, 0x06, 0, 1, 0x01, 0x11, 3, 1, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, tape []byte) { runEpochTape(t, tape) })
}
