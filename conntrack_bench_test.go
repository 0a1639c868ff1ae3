package gigaflow

import (
	"runtime"
	"testing"

	"gigaflow/internal/packet"
)

// ctACL is a stateful firewall that rewrites nothing: replies (+trk+rpl)
// leave on port 1, established forward packets and new ones to port 80
// go on to a per-server egress port, everything else is dropped. Every
// walk is connection-independent, so the main cache installs and shares
// it — the conntrack traffic the nat-conn benchmark workload does not
// cover.
func ctACL() *Pipeline {
	p := NewPipeline("ct-acl")
	p.AddTable(0, "acl", NewFieldSet(FieldEthType, FieldIPProto, FieldTpDst, FieldCtState))
	p.AddTable(1, "egress", NewFieldSet(FieldIPDst))
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ct_state=0x11/0x11"), 30, []Action{Output(1)}, NoTable)
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ip_proto=6,ct_state=0x05/0x05"), 20, nil, 1)
	p.MustAddRule(0, MustParseMatch("eth_type=0x0800,ip_proto=6,tp_dst=80,ct_state=0x03/0x03"), 10, nil, 1)
	p.MustAddRule(0, MatchAll(), 1, []Action{Drop()}, NoTable)
	for i := uint64(0); i < ctServers; i++ {
		p.MustAddRule(1, MatchAll().WithField(FieldIPDst, 0x0a140001+i), 10, []Action{Output(uint16(100 + i))}, NoTable)
	}
	p.MustAddRule(1, MatchAll(), 1, []Action{Drop()}, NoTable)
	return p
}

const (
	ctServers = 8            // ctACL's servers, and natLB's backends
	ctConnPkt = 12           // SYN, SYN-ACK, ACK, eight data packets alternating direction, FIN
	ctBatch   = 64           // packets per ProcessBatchMeta call
	ctWindow  = 12 * ctBatch // connections in flight
	ctVIP     = 0x0a090001   // natLB's virtual IP, on port 80
)

// connTraffic is rolling TCP connections in the nat-conn workload's
// shape: ctWindow connection slots, one packet from each per pass, their
// phases staggered so every batch mixes handshakes, data and closes, and a
// slot opening a fresh connection (a new client endpoint) when its last
// one closes. Without NAT, a connection goes to one of ctServers servers
// and its replies come from there (ctACL's traffic). With NAT it goes to
// ctVIP, and its replies come from the backend its SYN was rewritten to,
// which learn reads from the SYN's result (natLB's traffic, the nat-conn
// workload's).
type connTraffic struct {
	t     uint64
	nat   bool
	slot  [ctBatch]uint64  // the current batch's slot per packet
	phase [ctBatch]uint64  // and its packet's place in its connection
	conn  [ctWindow]uint64 // the slot's connection, plus one
	fwd   [ctWindow]Key    // and its forward key
	rpl   [ctWindow]Key    // and its reply key
}

// next fills keys and flags with the next batch.
func (g *connTraffic) next(keys []Key, flags []uint8) {
	for i := range keys {
		slot, pass := g.t%ctWindow, g.t/ctWindow
		g.t++
		q := pass + slot%ctConnPkt
		phase, conn := q%ctConnPkt, q/ctConnPkt*ctWindow+slot
		g.slot[i], g.phase[i] = slot, phase
		if g.conn[slot] != conn+1 {
			g.open(slot, conn)
		}
		reply, fl := false, uint8(packet.TCPAck)
		switch {
		case phase == 0:
			fl = packet.TCPSyn
		case phase == 1:
			reply, fl = true, packet.TCPSyn|packet.TCPAck
		case phase == ctConnPkt-1:
			fl = packet.TCPFin | packet.TCPAck
		case phase > 2:
			reply = phase%2 == 0
		}
		keys[i], flags[i] = g.fwd[slot], fl
		if reply {
			keys[i] = g.rpl[slot]
		}
	}
}

// open starts connection conn in slot: client 10.1.x.y on a port that
// moves on every 65 536 connections, to its server or the VIP.
func (g *connTraffic) open(slot, conn uint64) {
	client, cport := 0x0a010000+conn%65536, 1024+conn/65536%60000
	server := 0x0a140001 + conn%ctServers
	if g.nat {
		server = ctVIP
	}
	g.conn[slot] = conn + 1
	g.fwd[slot] = Key{}.With(FieldEthType, 0x0800).With(FieldIPProto, 6).
		With(FieldIPSrc, client).With(FieldIPDst, server).With(FieldTpSrc, cport).With(FieldTpDst, 80)
	g.rpl[slot] = g.fwd[slot].With(FieldIPSrc, server).With(FieldIPDst, client).
		With(FieldTpSrc, 80).With(FieldTpDst, cport)
}

// learn reads, from each NAT connection's SYN, the backend its result was
// rewritten to: the connection's replies come from there.
func (g *connTraffic) learn(out []ProcessResult) {
	if !g.nat {
		return
	}
	for i := range out {
		if g.phase[i] == 0 {
			f, rpl := &out[i].Final, &g.rpl[g.slot[i]]
			rpl.Set(FieldIPSrc, f.Get(FieldIPDst))
			rpl.Set(FieldTpSrc, f.Get(FieldTpDst))
		}
	}
}

// connLadder is the live-connection axis the conntrack benchmarks run on.
var connLadder = []struct {
	name  string
	conns int
}{{"conns=16K", 16 << 10}, {"conns=256K", 256 << 10}, {"conns=1M", 1 << 20}}

// connBench is one benchmark switch in its steady state: its connection
// table filled once over, each new connection evicting the oldest.
type connBench struct {
	vs     *VSwitch
	g      connTraffic
	keys   []Key
	flags  []uint8
	out    []ProcessResult
	errs   []error
	now    int64
	base   uint64 // HeapAlloc before the switch was built
	served uint64 // packets that left with a terminal verdict
}

func newConnBench(b *testing.B, p *Pipeline, conns int, nat bool) *connBench {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	cb := &connBench{
		base:  m.HeapAlloc,
		vs:    NewVSwitch(p, CacheConfig{NumTables: 4, TableCapacity: 8192}, WithMicroflow(32768), WithConntrack(conns)),
		g:     connTraffic{nat: nat},
		keys:  make([]Key, ctBatch),
		flags: make([]uint8, ctBatch),
		out:   make([]ProcessResult, ctBatch),
		errs:  make([]error, ctBatch),
	}
	// Fill the table once: conns connections and then one more window, so
	// the slots' phases are spread and every new connection evicts.
	for n := 0; n < (conns+ctWindow)*ctConnPkt; n += ctBatch {
		cb.batch()
	}
	for i, err := range cb.errs {
		if err != nil || !cb.out[i].Verdict.Terminal() {
			b.Fatalf("packet %s: %+v, %v", cb.keys[i], cb.out[i], err)
		}
	}
	if got := cb.vs.Conntrack().Len(); got != conns {
		b.Fatalf("%d live connections after the fill, want %d", got, conns)
	}
	return cb
}

// batch runs the next batch of traffic through the switch.
func (cb *connBench) batch() {
	cb.g.next(cb.keys, cb.flags)
	cb.now += 25_000 // virtual ns: a batch every 25 µs, about the real rate
	cb.vs.ProcessBatchMeta(cb.keys, cb.flags, cb.out, cb.errs, cb.now)
	cb.g.learn(cb.out)
	for i := range cb.out {
		if cb.errs[i] == nil && cb.out[i].Verdict.Terminal() {
			cb.served++
		}
	}
}

// benchConns times the datapath on connTraffic through p in its steady
// state, at each size of connLadder; a size's table is filled once, and
// the reruns of its sub-benchmark time the same switch on. One op is one
// packet. heap-MiB is the live heap the switch holds at the end of the
// run, its caches and connection table included; gc/Mpkt counts the
// collections per million packets; fastpath/pkt and mainhit/pkt are the
// shares of packets the connection's first level (CtFastpath) and the
// main cache (CacheHits) served.
func benchConns(b *testing.B, p func() *Pipeline, nat bool) {
	for _, size := range connLadder {
		var cb *connBench
		b.Run(size.name, func(b *testing.B) {
			if cb == nil {
				cb = newConnBench(b, p(), size.conns, nat)
			}
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			gc0, s0, served0 := m.NumGC, cb.vs.Stats(), cb.served
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += ctBatch {
				cb.batch()
			}
			b.StopTimer()
			d := cb.vs.Stats().Sub(s0)
			if lost := d.Packets - (cb.served - served0); lost != 0 {
				b.Fatalf("%d of %d packets left without a verdict", lost, d.Packets)
			}
			runtime.ReadMemStats(&m)
			b.ReportMetric(float64(m.NumGC-gc0)*1e6/float64(d.Packets), "gc/Mpkt")
			b.ReportMetric(float64(d.CtFastpath)/float64(d.Packets), "fastpath/pkt")
			b.ReportMetric(float64(d.CacheHits)/float64(d.Packets), "mainhit/pkt")
			runtime.GC()
			runtime.ReadMemStats(&m)
			b.ReportMetric(float64(m.HeapAlloc-cb.base)/(1<<20), "heap-MiB")
			runtime.KeepAlive(cb.vs)
		})
	}
}

// BenchmarkVSwitchConntrackACL is benchConns on ctACL: connection tracking
// without NAT, every walk shared through the main cache.
func BenchmarkVSwitchConntrackACL(b *testing.B) { benchConns(b, ctACL, false) }

// BenchmarkVSwitchConntrackNAT is benchConns on natLB with ctServers
// backends: the nat-conn workload's traffic through the VSwitch alone,
// every connection's two walks held on the connection.
func BenchmarkVSwitchConntrackNAT(b *testing.B) {
	benchConns(b, func() *Pipeline { return natLB(ctServers) }, true)
}
