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
	for i := uint64(0); i < ctACLServers; i++ {
		p.MustAddRule(1, MatchAll().WithField(FieldIPDst, 0x0a140001+i), 10, []Action{Output(uint16(100 + i))}, NoTable)
	}
	p.MustAddRule(1, MatchAll(), 1, []Action{Drop()}, NoTable)
	return p
}

const (
	ctACLServers = 8
	ctACLConnPkt = 12              // SYN, SYN-ACK, ACK, eight data packets alternating direction, FIN
	ctACLBatch   = 64              // packets per ProcessBatchMeta call
	ctACLWindow  = 12 * ctACLBatch // connections in flight
)

// ctACLTraffic is rolling TCP connections in the nat-conn workload's
// shape: ctACLWindow connection slots, one packet from each per pass,
// their phases staggered so every batch mixes handshakes, data and
// closes, and a slot opening a fresh connection (a new client tuple) when
// its last one closes.
type ctACLTraffic struct{ t uint64 }

// next fills keys and flags with the next batch.
func (g *ctACLTraffic) next(keys []Key, flags []uint8) {
	for i := range keys {
		slot, pass := g.t%ctACLWindow, g.t/ctACLWindow
		g.t++
		q := pass + slot%ctACLConnPkt
		phase, conn := q%ctACLConnPkt, q/ctACLConnPkt*ctACLWindow+slot
		client, server := 0x0a010000+conn%65536, 0x0a140001+conn%ctACLServers
		cport := 1024 + conn/65536%60000
		reply, fl := false, uint8(packet.TCPAck)
		switch {
		case phase == 0:
			fl = packet.TCPSyn
		case phase == 1:
			reply, fl = true, packet.TCPSyn|packet.TCPAck
		case phase == ctACLConnPkt-1:
			fl = packet.TCPFin | packet.TCPAck
		case phase > 2:
			reply = phase%2 == 0
		}
		src, dst, sport, dport := client, server, cport, uint64(80)
		if reply {
			src, dst, sport, dport = server, client, 80, cport
		}
		keys[i] = Key{}.With(FieldEthType, 0x0800).With(FieldIPProto, 6).
			With(FieldIPSrc, src).With(FieldIPDst, dst).With(FieldTpSrc, sport).With(FieldTpDst, dport)
		flags[i] = fl
	}
}

// BenchmarkVSwitchConntrackACL times the datapath on ctACL's traffic in
// its steady state: the connection table full (16 384 connections, the
// nat-conn workload's size), each new connection evicting the oldest. One
// op is one packet. heap-MiB is the live heap the switch holds at the end
// of the run, its caches and connection table included; fastpath/pkt and
// mainhit/pkt are the shares of packets the connection's first level
// (CtFastpath) and the main cache (CacheHits) served.
func BenchmarkVSwitchConntrackACL(b *testing.B) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc
	vs := NewVSwitch(ctACL(), CacheConfig{NumTables: 4, TableCapacity: 8192},
		WithMicroflow(32768), WithConntrack(16384))
	var g ctACLTraffic
	keys, flags := make([]Key, ctACLBatch), make([]uint8, ctACLBatch)
	out, errs := make([]ProcessResult, ctACLBatch), make([]error, ctACLBatch)
	now := int64(0)
	batch := func() {
		g.next(keys, flags)
		now += 25_000 // virtual ns: a batch every 25 µs, about the real rate
		vs.ProcessBatchMeta(keys, flags, out, errs, now)
	}
	for i := 0; i < 4*16384*ctACLConnPkt/ctACLBatch; i++ {
		batch()
	}
	for i, err := range errs {
		if err != nil || out[i].Verdict.Kind == VerdictNone {
			b.Fatalf("packet %s: %+v, %v", keys[i], out[i], err)
		}
	}
	b.ReportAllocs()
	s0 := vs.Stats()
	b.ResetTimer()
	for n := 0; n < b.N; n += ctACLBatch {
		batch()
	}
	b.StopTimer()
	d := vs.Stats().Sub(s0)
	b.ReportMetric(float64(d.CtFastpath)/float64(d.Packets), "fastpath/pkt")
	b.ReportMetric(float64(d.CacheHits)/float64(d.Packets), "mainhit/pkt")
	runtime.GC()
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(m.HeapAlloc-base)/(1<<20), "heap-MiB")
	runtime.KeepAlive(vs)
}
