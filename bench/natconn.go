package main

import (
	"fmt"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

// The nat-conn scenario: TCP clients connect to a virtual IP fronting a
// pool of backends. The pipeline (after cmd/gigabench/dnslb.go) classifies
// on ct_state, pins each new connection to one backend with dnat(pool),
// matches the REWRITTEN destination for the egress port, and un-NATs
// reply traffic back to the VIP with ct_nat.
const (
	natVIP      = 0x0a090001 // 10.9.0.1
	natVIPPort  = 80
	natOutPort  = 1 // client-side egress port
	natBackends = 8

	// natConnPkts is a steady-state connection's length: SYN, SYN-ACK,
	// ACK, 8 data packets alternating direction, FIN. One packet in
	// twelve therefore opens a connection.
	natConnPkts = 12
	// natWindow is the number of connections in flight. A batch takes one
	// packet from each of batchSize consecutive slots, so no batch holds
	// two packets of one connection, and the slots' phases are staggered
	// so every batch mixes handshakes, data and closes.
	natWindow = natConnPkts * batchSize

	tcpFlagsOff = 14 + 20 + 13 // Ethernet + IPv4 + offset of the TCP flag byte
)

func natPool() []gigaflow.NATTarget {
	ts := make([]gigaflow.NATTarget, natBackends)
	for i := range ts {
		ts[i] = gigaflow.NATTarget{IP: 0x0a140001 + uint64(i), Port: 8001 + uint64(i)}
	}
	return ts
}

// natPipeline builds the 4-table load-balancer pipeline:
//
//	classify: replies (+trk+rpl) → reverse; forward packets to VIP:80 → lb
//	lb:       dnat(pool 1), then match the rewritten destination
//	egress:   per-backend output port (proves the binding reached the key)
//	reverse:  ct_nat un-rewrites, egress toward the client
func natPipeline(pool []gigaflow.NATTarget) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("natlb")
	p.AddTable(0, "classify", gigaflow.NewFieldSet(
		gigaflow.FieldEthType, gigaflow.FieldIPProto, gigaflow.FieldIPDst,
		gigaflow.FieldTpDst, gigaflow.FieldCtState))
	p.AddTable(1, "lb", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "egress", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(3, "reverse", gigaflow.NewFieldSet(gigaflow.FieldIPSrc))

	p.MustAddRule(0, gigaflow.MustParseMatch("eth_type=0x0800,ip_proto=6,ct_state=0x11/0x11"),
		20, nil, 3)
	p.MustAddRule(0, gigaflow.MustParseMatch(
		fmt.Sprintf("eth_type=0x0800,ip_proto=6,ip_dst=%d,tp_dst=%d,ct_state=0x01/0x11",
			uint64(natVIP), natVIPPort)),
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
		[]gigaflow.Action{gigaflow.CtNAT(), gigaflow.Output(natOutPort)}, gigaflow.NoTable)

	p.SetNATPool(1, pool)
	return p
}

// natSlot is one in-flight connection. Its two frames (client→VIP and
// backend→client) live in slot-owned buffers that are re-encoded in place
// when the slot opens its next connection, so the steady state allocates
// nothing.
type natSlot struct {
	phase   int // index of the next packet to send
	length  int // packets in this connection
	backend int // pool index the SYN was pinned to; -1 until it answers
	client  gigaflow.Key
	fwd     []byte
	rpl     []byte
}

// natSource generates the rolling-connection traffic and checks the
// load-balancer invariants on every result: a connection's backend never
// changes, forward packets carry the backend's address and leave on its
// port, replies carry the VIP and never leak a backend address.
type natSource struct {
	seed   int64
	pool   []gigaflow.NATTarget
	slots  []natSlot
	pos    int    // next slot
	opened uint64 // connections opened so far
	cur    [batchSize]int
	curDir [batchSize]bool // true = reply direction
}

func newNatSource(seed int64, slots int) *natSource {
	s := &natSource{seed: seed, pool: natPool(), slots: make([]natSlot, slots)}
	buf := make([]byte, 2*54*slots)
	for i := range s.slots {
		s.slots[i].fwd = buf[(2*i)*54 : (2*i)*54 : (2*i+1)*54]
		s.slots[i].rpl = buf[(2*i+1)*54 : (2*i+1)*54 : (2*i+2)*54]
		// A slot's first connection is 4..15 packets long, a different
		// residue mod natConnPkts per neighbour: after it, the slots'
		// phases are spread evenly and stay so, because every later
		// connection is exactly natConnPkts long.
		s.open(&s.slots[i], 4+i%natConnPkts)
	}
	return s
}

func (s *natSource) clone() source { return newNatSource(s.seed, len(s.slots)) }

func buildNatConn(w *workload, seed int64) (*instance, error) {
	src := newNatSource(seed, w.sz.flows)
	return &instance{
		w: w, pipe: natPipeline(src.pool), cfg: w.serviceConfig(), src: src,
		// Fill the connection table once over, so the timed rounds run with
		// LRU eviction under MaxConns already in steady state, plus enough
		// turns of the window for the slots' phases to spread out.
		warmPkts: roundToBatch(w.sz.maxConns*natConnPkts + 32*len(src.slots)),
	}, nil
}

// open starts the slot's next connection from a never-reused client
// endpoint (so no connection ever reopens a closed tuple).
func (s *natSource) open(sl *natSlot, length int) {
	// Clients live in 10.128.0.0/9, disjoint from the VIP and the pool;
	// the seed picks where in that space the run's endpoints start.
	n := s.opened + (uint64(s.seed)*0x9e3779b97f4a7c15>>44)<<14
	s.opened++
	var k gigaflow.Key
	k = k.With(gigaflow.FieldEthSrc, 0x02aabb000000|n&0xffffff).
		With(gigaflow.FieldEthDst, 0x020000000001).
		With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPSrc, 0x0a800000|(n>>14)&0x7fffff).
		With(gigaflow.FieldIPDst, natVIP).
		With(gigaflow.FieldIPProto, wire.IPProtoTCP).
		With(gigaflow.FieldTpSrc, 1024+n&0x3fff).
		With(gigaflow.FieldTpDst, natVIPPort)
	sl.phase, sl.length, sl.backend, sl.client = 0, length, -1, k
	sl.fwd = wire.AppendFrame(sl.fwd[:0], k)
}

// natPacketAt reports the direction and TCP flags of packet i of a
// connection of the given length.
func natPacketAt(i, length int) (reply bool, flags uint8) {
	switch {
	case i == 0:
		return false, wire.TCPSyn
	case i == 1:
		return true, wire.TCPSyn | wire.TCPAck
	case i == length-1:
		return false, wire.TCPFin | wire.TCPAck
	case i == 2:
		return false, wire.TCPAck
	}
	return i%2 == 0, wire.TCPAck // data: forward, reply, forward, ...
}

func (s *natSource) next(frames []service.Frame) {
	for i := range frames {
		si := s.pos
		if s.pos++; s.pos == len(s.slots) {
			s.pos = 0
		}
		sl := &s.slots[si]
		reply, flags := natPacketAt(sl.phase, sl.length)
		f := sl.fwd
		// A slot whose SYN failed has no reply frame yet; it keeps sending
		// the forward frame, which then fails the reply check too.
		if reply && len(sl.rpl) > 0 {
			f = sl.rpl
		}
		f[tcpFlagsOff] = flags
		s.cur[i], s.curDir[i] = si, reply
		frames[i] = service.Frame{Data: f}
	}
}

func (s *natSource) check(res []result) int {
	failed := 0
	for i := range res {
		sl := &s.slots[s.cur[i]]
		if !s.verify(sl, s.curDir[i], &res[i]) {
			failed++
		}
		if sl.phase++; sl.phase == sl.length {
			s.open(sl, natConnPkts)
		}
	}
	return failed
}

// verify checks one result against the load-balancer invariants and, for
// a connection's SYN, records the backend it was pinned to and encodes
// the reply frame that backend will send.
func (s *natSource) verify(sl *natSlot, reply bool, r *result) bool {
	if r.err != nil || r.verdict.Kind != gigaflow.VerdictOutput {
		return false
	}
	f := &r.final
	if reply {
		// The client must see the VIP, never the backend.
		return r.verdict.Port == natOutPort &&
			f.Get(gigaflow.FieldIPSrc) == natVIP && f.Get(gigaflow.FieldTpSrc) == natVIPPort &&
			f.Get(gigaflow.FieldIPDst) == sl.client.Get(gigaflow.FieldIPSrc) &&
			f.Get(gigaflow.FieldTpDst) == sl.client.Get(gigaflow.FieldTpSrc)
	}
	b := int(r.verdict.Port) - 100
	if b < 0 || b >= len(s.pool) ||
		f.Get(gigaflow.FieldIPDst) != s.pool[b].IP || f.Get(gigaflow.FieldTpDst) != s.pool[b].Port {
		return false
	}
	if sl.backend >= 0 {
		return sl.backend == b // pinned for the connection's lifetime
	}
	sl.backend = b
	c := sl.client
	rk := c.With(gigaflow.FieldEthSrc, c.Get(gigaflow.FieldEthDst)).
		With(gigaflow.FieldEthDst, c.Get(gigaflow.FieldEthSrc)).
		With(gigaflow.FieldIPSrc, s.pool[b].IP).
		With(gigaflow.FieldIPDst, c.Get(gigaflow.FieldIPSrc)).
		With(gigaflow.FieldTpSrc, s.pool[b].Port).
		With(gigaflow.FieldTpDst, c.Get(gigaflow.FieldTpSrc))
	sl.rpl = wire.AppendFrame(sl.rpl[:0], rk)
	return true
}

func (s *natSource) finish(ctCreated uint64) string {
	// Every connection's SYN has been answered except those opened by the
	// final batch's check, which have not sent a packet yet.
	unsent := uint64(0)
	for i := range s.slots {
		if s.slots[i].phase == 0 {
			unsent++
		}
	}
	if want := s.opened - unsent; ctCreated != want {
		return fmt.Sprintf("conntrack created %d connections, the source opened %d", ctCreated, want)
	}
	return ""
}
