package conntrack

import (
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/packet"
)

// tuple builds a TCP 5-tuple key (the shape Track sees after decode).
func tuple(ipSrc, ipDst, tpSrc, tpDst uint64) flow.Key {
	var k flow.Key
	return k.With(flow.FieldEthType, packet.EtherTypeIPv4).
		With(flow.FieldIPSrc, ipSrc).
		With(flow.FieldIPDst, ipDst).
		With(flow.FieldIPProto, packet.IPProtoTCP).
		With(flow.FieldTpSrc, tpSrc).
		With(flow.FieldTpDst, tpDst)
}

func udp(k flow.Key) flow.Key { return k.With(flow.FieldIPProto, packet.IPProtoUDP) }

func TestLifecycleTCP(t *testing.T) {
	tb := NewTable(0)
	fwd := tuple(1, 2, 1000, 80)
	rev := invert(fwd)

	bits, c, dir := tb.Track(fwd, packet.TCPSyn, 10)
	if c == nil || dir != DirForward {
		t.Fatalf("first packet: conn=%v dir=%v", c, dir)
	}
	if bits != flow.CtTrk|flow.CtNew {
		t.Fatalf("SYN bits = %#x, want trk|new", bits)
	}
	if c.State != StateNew {
		t.Fatalf("state = %v", c.State)
	}
	e1 := c.Epoch

	// Retransmit in the same direction: no transition, same epoch.
	if _, c2, _ := tb.Track(fwd, packet.TCPSyn, 11); c2 != c || c.Epoch != e1 {
		t.Fatal("forward retransmit must not transition")
	}

	// First reply establishes and bumps the epoch.
	bits, c2, dir := tb.Track(rev, packet.TCPSyn|packet.TCPAck, 12)
	if c2 != c || dir != DirReply {
		t.Fatalf("reply resolved to %v/%v", c2, dir)
	}
	if bits != flow.CtTrk|flow.CtEst|flow.CtRpl {
		t.Fatalf("established reply bits = %#x", bits)
	}
	if c.State != StateEstablished || c.Epoch == e1 {
		t.Fatalf("establish: state=%v epoch %d -> %d", c.State, e1, c.Epoch)
	}
	e2 := c.Epoch

	// Data packets both ways: stable.
	tb.Track(fwd, packet.TCPAck, 13)
	tb.Track(rev, packet.TCPAck, 14)
	if c.State != StateEstablished || c.Epoch != e2 {
		t.Fatal("data packets must not transition")
	}

	// FIN closes, epoch bumps again.
	bits, _, _ = tb.Track(fwd, packet.TCPFin|packet.TCPAck, 15)
	if c.State != StateClosed || c.Epoch == e2 {
		t.Fatalf("close: state=%v", c.State)
	}
	if bits != flow.CtTrk|flow.CtCls {
		t.Fatalf("closed bits = %#x", bits)
	}

	st := tb.Stats()
	if st.Created != 1 || st.Transitions != 2 || st.Active != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTupleReuseReopens(t *testing.T) {
	tb := NewTable(0)
	fwd := tuple(1, 2, 1000, 80)
	rev := invert(fwd)

	_, c1, _ := tb.Track(fwd, packet.TCPSyn, 1)
	tb.Track(rev, packet.TCPSyn|packet.TCPAck, 2)
	tb.Track(fwd, packet.TCPRst, 3)
	if c1.State != StateClosed {
		t.Fatal("RST must close")
	}
	poison := c1.Epoch

	// A fresh SYN on the same tuple — from the OLD responder side —
	// starts a new connection whose initiator is that side.
	_, c2, dir := tb.Track(rev, packet.TCPSyn, 4)
	if c2 == c1 {
		t.Fatal("reopen must allocate a fresh connection")
	}
	if dir != DirForward {
		t.Fatal("reopening packet is the new connection's forward direction")
	}
	if c1.Epoch == poison {
		t.Fatal("dead connection must be epoch-poisoned on removal")
	}
	if tb.Stats().Reopened != 1 {
		t.Fatalf("stats = %+v", tb.Stats())
	}
	// The old generation's epoch can never validate again.
	if tb.EpochValid(fwd, poison) {
		t.Fatal("stale epoch validated after reuse")
	}
	if !tb.EpochValid(rev, c2.Epoch) {
		t.Fatal("new generation must validate under its own epoch")
	}
}

func TestUDPEstablishes(t *testing.T) {
	tb := NewTable(0)
	fwd := udp(tuple(7, 8, 5353, 53))
	_, c, _ := tb.Track(fwd, 0, 1)
	if c.State != StateNew {
		t.Fatal("udp starts new")
	}
	bits, _, _ := tb.Track(invert(fwd), 0, 2)
	if c.State != StateEstablished || bits&flow.CtRpl == 0 {
		t.Fatalf("udp reply: state=%v bits=%#x", c.State, bits)
	}
}

func TestNATBindingReRegistersReply(t *testing.T) {
	tb := NewTable(0)
	fwd := udp(tuple(0x0a000001, 0x0a090001, 4000, 53)) // client -> VIP
	_, c, _ := tb.Track(fwd, 0, 1)
	pre := c.Epoch
	tb.SetDNAT(c, 0x0a140001, 5301)
	if c.Epoch == pre {
		t.Fatal("a new NAT binding must bump the epoch")
	}

	// The un-translated reply tuple (VIP -> client) must no longer
	// resolve; the translated one (backend -> client) must.
	if _, _, ok := tb.Lookup(invert(fwd)); ok {
		t.Fatal("pre-NAT reply tuple still registered after binding")
	}
	trans := udp(tuple(0x0a140001, 0x0a000001, 5301, 4000))
	c2, dir, ok := tb.Lookup(trans)
	if !ok || c2 != c || dir != DirReply {
		t.Fatalf("translated reply lookup: %v %v %v", c2, dir, ok)
	}

	// NATKey: forward carries the rewritten destination; the reply view
	// restores the VIP as the source.
	nk := c.NATKey(DirForward)
	if nk.Get(flow.FieldIPDst) != 0x0a140001 || nk.Get(flow.FieldTpDst) != 5301 {
		t.Fatalf("forward NATKey = %v", nk)
	}
	rk := c.NATKey(DirReply)
	if rk.Get(flow.FieldIPSrc) != 0x0a090001 || rk.Get(flow.FieldTpSrc) != 53 {
		t.Fatalf("reply NATKey = %v", rk)
	}

	// Idempotent: a second binding attempt is a no-op.
	epoch := c.Epoch
	tb.SetDNAT(c, 0x0a140002, 5302)
	if c.DNAT.IP != 0x0a140001 || c.Epoch != epoch {
		t.Fatal("live binding must never change")
	}
}

func TestIdleExpiryPoisons(t *testing.T) {
	tb := NewTable(0)
	a := udp(tuple(1, 2, 10, 20))
	b := udp(tuple(3, 4, 30, 40))
	_, ca, _ := tb.Track(a, 0, 100)
	_, cb, _ := tb.Track(b, 0, 200)
	ea := ca.Epoch

	if n := tb.ExpireIdle(250, 100); n != 1 {
		t.Fatalf("expired %d, want 1 (only the older)", n)
	}
	if tb.EpochValid(a, ea) {
		t.Fatal("expired connection still validates")
	}
	if !tb.EpochValid(b, cb.Epoch) {
		t.Fatal("survivor must still validate")
	}
	if tb.Len() != 1 || tb.Stats().Expired != 1 {
		t.Fatalf("len=%d stats=%+v", tb.Len(), tb.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	tb := NewTable(2)
	k1 := udp(tuple(1, 9, 1, 1))
	k2 := udp(tuple(2, 9, 2, 2))
	k3 := udp(tuple(3, 9, 3, 3))
	_, c1, _ := tb.Track(k1, 0, 1)
	tb.Track(k2, 0, 2)
	tb.Track(k1, 0, 3) // refresh c1: c2 is now LRU
	e1 := c1.Epoch
	tb.Track(k3, 0, 4) // evicts c2
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
	if _, _, ok := tb.Lookup(k2); ok {
		t.Fatal("LRU connection must be evicted")
	}
	if !tb.EpochValid(k1, e1) {
		t.Fatal("refreshed connection evicted instead of LRU")
	}
	if tb.Stats().EvictLRU != 1 {
		t.Fatalf("stats = %+v", tb.Stats())
	}
}

// TestEvictionKeepsLiveConnections pins what eviction must not break: a
// full table of mostly closed connections, a rolling window of live ones,
// and every live connection's next packet finds the *Conn it started
// with. Closed connections stay until eviction takes them, so eviction
// runs on every new connection once the table is full, and only an order
// that keeps the recently seen connections spares the live ones.
func TestEvictionKeepsLiveConnections(t *testing.T) {
	const capacity, live, perConn, packets = 1024, 96, 12, 200_000
	tb := NewTable(capacity)
	var (
		conns [live]*Conn
		fwd   [live]flow.Key
		ids   [live]uint64
		sent  [live]int // packets of the slot's connection so far; negative staggers the first ones
		next  uint64    // the newest connection's id
		lost  int
		now   int64
	)
	for s := range sent {
		sent[s] = -(s % perConn)
	}
	for n := 0; n < packets; {
		s := n % live
		if sent[s] < 0 {
			sent[s]++
			n++
			continue
		}
		k, flags := fwd[s], uint8(packet.TCPAck)
		switch i := sent[s]; {
		case i == 0:
			next++
			ids[s], fwd[s] = next, tuple(0x0a000000+next, 0x14000001, 1024+next%50000, 80)
			k, flags = fwd[s], packet.TCPSyn
		case i == 1:
			k, flags = invert(k), packet.TCPSyn|packet.TCPAck
		case i == perConn-1:
			flags = packet.TCPFin | packet.TCPAck
		case i%2 == 1:
			k = invert(k)
		}
		now += 1_000
		_, c, _ := tb.Track(k, flags, now)
		if sent[s] != 0 && c != conns[s] {
			if lost++; lost <= 3 {
				t.Errorf("packet %d: connection %d's packet %d found another connection", n, ids[s], sent[s])
			}
		}
		conns[s] = c // a lost connection counts once
		if sent[s]++; sent[s] == perConn {
			sent[s] = 0
		}
		n++
	}
	st := tb.Stats()
	if lost != 0 || tb.Len() != capacity || st.EvictLRU < 10_000 {
		t.Fatalf("%d live connections lost; %d resident, %d evicted (%+v)", lost, tb.Len(), st.EvictLRU, st)
	}
}

func TestICMPRelated(t *testing.T) {
	tb := NewTable(0)
	icmp := tuple(1, 2, 3, 0).With(flow.FieldIPProto, packet.IPProtoICMP)

	bits, c, _ := tb.Track(icmp, 0, 1)
	if c != nil || bits != flow.CtTrk {
		t.Fatalf("icmp with no tracked pair: bits=%#x conn=%v", bits, c)
	}

	// A tracked TCP connection between the same hosts makes ICMP related
	// — in either direction.
	_, tc, _ := tb.Track(tuple(1, 2, 1000, 80), packet.TCPSyn, 2)
	for _, k := range []flow.Key{icmp, invert(icmp)} {
		bits, _, _ = tb.Track(k, 0, 3)
		if bits != flow.CtTrk|flow.CtRel {
			t.Fatalf("icmp beside tracked pair: bits=%#x", bits)
		}
	}

	// The pair refcount: a second connection keeps ct_rel alive after
	// the first dies.
	_, tc2, _ := tb.Track(tuple(1, 2, 1001, 80), packet.TCPSyn, 4)
	tb.remove(tc)
	if bits, _, _ = tb.Track(icmp, 0, 5); bits != flow.CtTrk|flow.CtRel {
		t.Fatal("ct_rel dropped while a second connection lives")
	}
	tb.remove(tc2)
	if bits, _, _ = tb.Track(icmp, 0, 6); bits != flow.CtTrk {
		t.Fatal("ct_rel survives the last connection's death")
	}
}

func TestNonIPUntracked(t *testing.T) {
	tb := NewTable(0)
	var arp flow.Key
	arp = arp.With(flow.FieldEthType, 0x0806)
	bits, c, _ := tb.Track(arp, 0, 1)
	if bits != 0 || c != nil {
		t.Fatalf("non-IP must be untracked: bits=%#x", bits)
	}
}

func TestMayTransitionExactness(t *testing.T) {
	// MayTransition must be a superset of the transitions Track performs:
	// for every (state, dir, flags) where MayTransition says false, Track
	// must leave the state and epoch untouched.
	flagSets := []uint8{0, packet.TCPAck, packet.TCPPsh | packet.TCPAck,
		packet.TCPSyn, packet.TCPFin, packet.TCPRst, packet.TCPSyn | packet.TCPAck}
	for _, viaReply := range []bool{false, true} {
		for _, flags := range flagSets {
			tb := NewTable(0)
			fwd := tuple(1, 2, 1000, 80)
			_, c, _ := tb.Track(fwd, packet.TCPSyn, 1)
			if viaReply {
				tb.Track(invert(fwd), packet.TCPSyn|packet.TCPAck, 2)
			}
			state, epoch := c.State, c.Epoch
			for _, dir := range []Dir{DirForward, DirReply} {
				if MayTransition(state, dir, packet.IPProtoTCP, flags) {
					continue
				}
				k := fwd
				if dir == DirReply {
					k = invert(fwd)
				}
				tb.Track(k, flags, 3)
				if c.State != state || c.Epoch != epoch {
					t.Fatalf("MayTransition(%v,%v,%#x)=false but Track transitioned %v->%v",
						state, dir, flags, state, c.State)
				}
			}
		}
	}
}

func TestBindHashStablePerGeneration(t *testing.T) {
	tb := NewTable(0)
	fwd := tuple(1, 2, 1000, 80)
	_, c1, _ := tb.Track(fwd, packet.TCPSyn, 1)
	h1 := c1.BindHash()
	if c1.BindHash() != h1 {
		t.Fatal("BindHash must be stable")
	}
	tb.Track(fwd, packet.TCPRst, 2)
	_, c2, _ := tb.Track(fwd, packet.TCPSyn, 3)
	if c2.BindHash() == h1 {
		t.Fatal("a reused tuple's new generation should rehash (epoch mixed in)")
	}
}

func BenchmarkTrackEstablished(b *testing.B) {
	tb := NewTable(0)
	fwd := udp(tuple(1, 2, 1000, 53))
	tb.Track(fwd, 0, 1)
	tb.Track(invert(fwd), 0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Track(fwd, 0, int64(i))
	}
}

func BenchmarkEpochValid(b *testing.B) {
	tb := NewTable(0)
	fwd := udp(tuple(1, 2, 1000, 53))
	_, c, _ := tb.Track(fwd, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tb.EpochValid(fwd, c.Epoch) {
			b.Fatal("must validate")
		}
	}
}

// TestTupleClashDisplaces: a NAT re-registration that lands on a tuple
// another connection already holds must remove (and epoch-poison) that
// connection. Without displacement, a memoized result holding a direct
// pointer to the stale connection would keep serving — its epoch never
// changes — even though the tuple now belongs to someone else.
func TestTupleClashDisplaces(t *testing.T) {
	tb := NewTable(0)
	client := tuple(0x0a000001, 0x0a090001, 2000, 443)   // client -> VIP
	backend := tuple(0x0a140001, 0x0a000001, 8443, 2000) // backend -> client

	// A stray backend->client packet first: tracked as its own "junk"
	// forward connection claiming the backend->client tuple.
	_, junk, dir := tb.Track(backend, packet.TCPSyn, 1)
	if junk == nil || dir != DirForward {
		t.Fatalf("stray packet: %v/%v", junk, dir)
	}
	junkEpoch := junk.Epoch

	// Now the real connection: client->VIP, DNAT'd to the backend. Its
	// reply tuple is exactly the junk connection's Orig.
	_, c, _ := tb.Track(client, packet.TCPSyn, 2)
	tb.SetDNAT(c, 0x0a140001, 8443)

	if got, _, ok := tb.Lookup(backend); !ok || got != c {
		t.Fatal("backend tuple must now resolve to the NAT'd connection")
	}
	if tb.EpochValid(backend, junkEpoch) {
		t.Fatal("displaced connection's epoch still validates")
	}
	if junk.Epoch == junkEpoch {
		t.Fatal("displaced connection not epoch-poisoned")
	}
	if st := tb.Stats(); st.Displaced != 1 || st.Active != 1 {
		t.Fatalf("stats after clash: %+v", st)
	}
	// The junk connection's other tuple (client->backend) is gone too.
	if _, _, ok := tb.Lookup(invert(backend)); ok {
		t.Fatal("displaced connection's reply tuple still registered")
	}
}

// TestLazyTouchExpiryExact: lazy LRU repositioning must not let a
// recently-refreshed connection sitting at the tail shield an expired
// one behind it. The shield window is precise: a's position (lastMoved)
// is a quantum stale while its LastSeen is fresh, so a sits at the tail
// in front of the expired b — a naive stop-at-first-fresh-tail sweep
// would keep b alive.
func TestLazyTouchExpiryExact(t *testing.T) {
	const (
		q       = repositionQuantum
		maxIdle = 4 * q
		now     = 5*q - 1
	)
	tb := NewTable(0)
	a := udp(tuple(1, 9, 1, 1))
	b := udp(tuple(2, 9, 2, 2))
	_, ca, _ := tb.Track(a, 0, 0) // a: lastMoved=0, tail
	tb.Track(b, 0, 1)             // b: in front of a, then idles
	tb.Track(a, 0, q-1)           // sub-quantum touch: LastSeen moves, position does not

	// At the sweep, a is the tail with now-LastSeen == maxIdle (alive)
	// but now-lastMoved > maxIdle; b behind it has now-LastSeen > maxIdle.
	if n := tb.ExpireIdle(now, maxIdle); n != 1 {
		t.Fatalf("expired %d connections, want exactly 1 (idle b)", n)
	}
	if _, _, ok := tb.Lookup(b); ok {
		t.Fatal("idle connection shielded by a fresh tail")
	}
	if got, _, ok := tb.Lookup(a); !ok || got != ca {
		t.Fatal("live connection expired")
	}
}
