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
		then     func(tb *Table, c *Conn)
		valid    bool
		memo     bool
	}{
		{name: "nothing happens", setup: syn,
			then: func(*Table, *Conn) {}, valid: true, memo: true},
		{name: "data both ways", setup: established,
			then: func(tb *Table, _ *Conn) {
				tb.Track(fwd, packet.TCPAck, 10)
				tb.Track(rev, packet.TCPAck|packet.TCPPsh, 11)
			}, valid: true, memo: true},
		{name: "new to established", setup: syn,
			then: func(tb *Table, c *Conn) {
				tb.Track(rev, packet.TCPSyn|packet.TCPAck, 10)
				if c.State != StateEstablished {
					t.Fatalf("state %v", c.State)
				}
			}, valid: true},
		{name: "established to closed", setup: established,
			then: func(tb *Table, c *Conn) {
				tb.Track(rev, packet.TCPFin|packet.TCPAck, 10)
				if c.State != StateClosed {
					t.Fatalf("state %v", c.State)
				}
			}, valid: true},
		{name: "RST in new", setup: syn,
			then: func(tb *Table, c *Conn) {
				tb.Track(fwd, packet.TCPRst, 10)
				if c.State != StateClosed {
					t.Fatalf("state %v", c.State)
				}
			}, valid: true},
		{name: "all three transitions", setup: syn,
			then: func(tb *Table, _ *Conn) {
				tb.Track(rev, packet.TCPSyn|packet.TCPAck, 10)
				tb.Track(fwd, packet.TCPRst, 11)
			}, valid: true},
		// The pipeline walk's first-resolution rule: a traversal is stamped
		// at its first stateful action, so when a later action of the same
		// walk makes a binding the stamp predates it, and the entries
		// installed from that walk must fail on their first use.
		{name: "DNAT binding later in the same walk", setup: syn,
			then: func(tb *Table, c *Conn) { tb.SetDNAT(c, backendIP, 8443) }},
		{name: "SNAT binding later in the same walk", setup: syn,
			then: func(tb *Table, c *Conn) { tb.SetSNAT(c, 0x0a090002, 4000) }},
		{name: "late binding after a transition", setup: established,
			then: func(tb *Table, c *Conn) { tb.SetDNAT(c, backendIP, 8443) }},
		{name: "second binding of the other kind",
			setup: func(tb *Table) *Conn {
				c := syn(tb)
				tb.SetDNAT(c, backendIP, 8443)
				return c
			},
			then: func(tb *Table, c *Conn) { tb.SetSNAT(c, 0x0a090002, 4000) }},
		{name: "rebinding a bound connection is a no-op",
			setup: func(tb *Table) *Conn {
				c := syn(tb)
				tb.SetDNAT(c, backendIP, 8443)
				return c
			},
			then:  func(tb *Table, c *Conn) { tb.SetDNAT(c, backendIP+1, 8444) },
			valid: true, memo: true},
		{name: "idle expiry", setup: established,
			then: func(tb *Table, _ *Conn) {
				if tb.ExpireIdle(1000, 100) != 1 {
					t.Fatal("nothing expired")
				}
			}},
		{name: "MaxConns eviction", maxConns: 1, setup: established,
			then: func(tb *Table, _ *Conn) {
				tb.Track(other, packet.TCPSyn, 10)
				if tb.Stats().EvictLRU != 1 {
					t.Fatal("nothing evicted")
				}
			}},
		{name: "reopened by the initiator", setup: closed,
			then: func(tb *Table, _ *Conn) { tb.Track(fwd, packet.TCPSyn, 10) }},
		{name: "reopened by the responder", setup: closed,
			then: func(tb *Table, c *Conn) {
				_, c2, dir := tb.Track(rev, packet.TCPSyn, 10)
				if c2 == c || dir != DirForward || c2.Orig != rev {
					t.Fatal("the responder's SYN did not open a connection of its own")
				}
			}},
		{name: "expired, tuple reused", setup: established,
			then: func(tb *Table, c *Conn) {
				tb.ExpireIdle(1000, 100)
				if _, c2, _ := tb.Track(fwd, packet.TCPSyn, 1001); c2 == c {
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
			then: func(tb *Table, junk *Conn) {
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
			tc.then(tb, c)
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
// cached result could depend on, as it was then.
type epochStamp struct {
	tuple      flow.Key
	epoch      uint64
	conn       *Conn
	state      State
	dnat, snat NATBinding
}

// runEpochTape interprets tape as operations on a connection table — Track
// with any flag byte in either direction, NAT bindings, idle expiry, all
// over a tuple space small enough that tables fill (the first byte picks
// MaxConns), closed tuples reopen from either side and NAT registrations
// land on other connections' tuples — and takes a stamp wherever the
// datapath would: from the connection a packet tracked to, and on both
// sides of a binding. After every operation each remembered stamp is held
// against a model that knows nothing of epochs: a stamp is valid iff its
// tuple still resolves to the very connection it was taken from (Conns are
// never recycled, so the pointer is the identity) and that connection's
// bindings are what they were. The memo's stamp is checked the same way:
// a connection still carrying the stamped epoch must also be in the
// stamped state. It returns what the tape reached.
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
		stamps = append(stamps, epochStamp{c.Orig, c.Epoch, c, c.State, c.DNAT, c.SNAT})
	}
	var now int64
	track := func(k flow.Key, flags uint8) {
		if k.Get(flow.FieldIPProto) != packet.IPProtoTCP {
			flags = 0
		}
		if _, c, _ := tb.Track(k, flags, now); c != nil {
			take(c)
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
			if c, _, ok := tb.Lookup(key()); ok {
				take(c)
			}
		}
		for i := range stamps {
			s := &stamps[i]
			c, _, ok := tb.Lookup(s.tuple)
			same := ok && c == s.conn && c.DNAT == s.dnat && c.SNAT == s.snat
			if got := tb.EpochValid(s.tuple, s.epoch); got != same {
				t.Fatalf("step %d (op %d): EpochValid(%v, %d) = %v, but same connection and bindings = %v\n  stamped %+v\n  now     %+v",
					step, op%8, s.tuple, s.epoch, got, same, s, s.conn)
			}
			if s.conn.Epoch == s.epoch && !(same && s.conn.State == s.state) {
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
// stamp exists for), valid on an unmoved connection — beside the table's
// own counters.
type epochCoverage struct {
	invalid, survived, unmoved int
	stats                      Stats
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
}

// FuzzEpochValid is runEpochTape over fuzzer-chosen tapes; the checked-in
// corpus (testdata/fuzz/FuzzEpochValid) replays in `make fuzz-regress`.
func FuzzEpochValid(f *testing.F) {
	f.Add([]byte{0})
	// SYN, the reply's SYN-ACK, a DNAT binding, FIN, then the responder reopens.
	f.Add([]byte{0, 0, 1, 0x01, 0x02, 3, 1, 0x01, 0x12, 5, 1, 0x01, 0x06, 0, 1, 0x01, 0x11, 3, 1, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, tape []byte) { runEpochTape(t, tape) })
}
