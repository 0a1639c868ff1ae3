package packet

import (
	"bytes"
	"testing"

	"gigaflow/internal/flow"
)

// verifyIPChecksum recomputes the IPv4 header checksum over the patched
// frame; a correct incremental update leaves it verifying to zero... or
// rather, recomputation with the stored checksum zeroed must reproduce
// the stored value.
func verifyIPChecksum(t *testing.T, frame []byte) {
	t.Helper()
	ip := locateIPv4(frame)
	if ip < 0 {
		t.Fatal("frame not IPv4")
	}
	ihl := int(frame[ip]&0x0f) * 4
	hdr := append([]byte(nil), frame[ip:ip+ihl]...)
	stored := be16(hdr[10:])
	hdr[10], hdr[11] = 0, 0
	if got := checksum16(hdr); got != stored {
		t.Fatalf("IP checksum %#04x, recomputed %#04x", stored, got)
	}
}

// l4Checksum computes the full TCP/UDP checksum (pseudo-header + segment)
// with the checksum field zeroed.
func l4Checksum(frame []byte) uint16 {
	ip := locateIPv4(frame)
	ihl := int(frame[ip]&0x0f) * 4
	l4 := frame[ip+ihl:]
	seg := append([]byte(nil), l4...)
	off := 16 // TCP checksum offset
	if frame[ip+9] == IPProtoUDP {
		off = 6
	}
	seg[off], seg[off+1] = 0, 0

	var pseudo []byte
	pseudo = append(pseudo, frame[ip+12:ip+20]...) // src, dst
	pseudo = append(pseudo, 0, frame[ip+9], byte(len(seg)>>8), byte(len(seg)))
	var sum uint32
	for _, b := range [][]byte{pseudo, seg} {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
		if len(b)%2 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func natKey(proto uint64) flow.Key {
	return tcpKey().With(flow.FieldIPProto, proto).
		With(flow.FieldTpSrc, 4000).With(flow.FieldTpDst, 53)
}

func TestPatchTupleTCP(t *testing.T) {
	frame := Encode(natKey(IPProtoTCP))
	// Give the TCP checksum a real value first so the incremental update
	// is observable.
	full := l4Checksum(frame)
	ip := locateIPv4(frame)
	put16(frame[ip+20+16:], full)

	if !PatchTuple(frame, 0x0a140001, 0x0a000002, 5301, 4000) {
		t.Fatal("patch refused")
	}
	k, info := Decode(frame, 0)
	if !info.OK() {
		t.Fatalf("patched frame decodes with %v", info.Err)
	}
	if k.Get(flow.FieldIPSrc) != 0x0a140001 || k.Get(flow.FieldIPDst) != 0x0a000002 ||
		k.Get(flow.FieldTpSrc) != 5301 || k.Get(flow.FieldTpDst) != 4000 {
		t.Fatalf("patched tuple = %s", k)
	}
	verifyIPChecksum(t, frame)
	if got, want := be16(frame[ip+20+16:]), l4Checksum(frame); got != want {
		t.Fatalf("TCP checksum %#04x after patch, full recompute %#04x", got, want)
	}
}

func TestPatchTupleUDP(t *testing.T) {
	dns := AppendDNSQuery(nil, 9, "vip.gigaflow.test")
	frame := EncodePayload(natKey(IPProtoUDP), dns)
	ip := locateIPv4(frame)
	udpCk := ip + 20 + 6

	t.Run("zero checksum stays zero", func(t *testing.T) {
		f := append([]byte(nil), frame...)
		if !PatchTuple(f, 0x0a140001, 0x0a000002, 5301, 4000) {
			t.Fatal("patch refused")
		}
		verifyIPChecksum(t, f)
		if be16(f[udpCk:]) != 0 {
			t.Fatal("zero (offloaded) UDP checksum must stay zero")
		}
		// The DNS payload rides through untouched.
		_, info := Decode(f, 0)
		pl, ok := UDPPayload(f, info)
		if !ok {
			t.Fatal("payload lost")
		}
		if !bytes.Equal(pl, dns) {
			t.Fatal("payload corrupted by patch")
		}
	})

	t.Run("computed checksum updated incrementally", func(t *testing.T) {
		f := append([]byte(nil), frame...)
		put16(f[udpCk:], l4Checksum(f))
		if !PatchTuple(f, 0x0a140001, 0x0a000002, 5301, 4000) {
			t.Fatal("patch refused")
		}
		verifyIPChecksum(t, f)
		if got, want := be16(f[udpCk:]), l4Checksum(f); got != want {
			t.Fatalf("UDP checksum %#04x after patch, full recompute %#04x", got, want)
		}
	})
}

func TestPatchTupleVLAN(t *testing.T) {
	frame := vlanTag(Encode(natKey(IPProtoTCP)), EtherTypeVLAN, 42)
	if !PatchTuple(frame, 1, 2, 3, 4) {
		t.Fatal("VLAN-tagged IPv4 must be patchable")
	}
	k, info := Decode(frame, 0)
	if !info.OK() || k.Get(flow.FieldIPSrc) != 1 || k.Get(flow.FieldTpDst) != 4 {
		t.Fatalf("patched VLAN frame: %s (%v)", k, info.Err)
	}
	verifyIPChecksum(t, frame)
}

func TestPatchTupleRefusals(t *testing.T) {
	arp := Encode(tcpKey().With(flow.FieldEthType, 0x0806))
	if PatchTuple(arp, 1, 2, 3, 4) {
		t.Error("patched a non-IP frame")
	}
	short := Encode(natKey(IPProtoTCP))[:20]
	if PatchTuple(short, 1, 2, 3, 4) {
		t.Error("patched a truncated IP header")
	}

	// ICMP: addresses rewritten, type/code (in the port fields) untouched.
	icmp := Encode(tcpKey().With(flow.FieldIPProto, IPProtoICMP).
		With(flow.FieldTpSrc, 8).With(flow.FieldTpDst, 0))
	if !PatchTuple(icmp, 9, 10, 99, 99) {
		t.Fatal("ICMP addresses must be patchable")
	}
	k, _ := Decode(icmp, 0)
	if k.Get(flow.FieldIPSrc) != 9 || k.Get(flow.FieldTpSrc) != 8 {
		t.Fatalf("icmp patch: %s", k)
	}
	verifyIPChecksum(t, icmp)
}

func TestPatchFrameNAT(t *testing.T) {
	frame := Encode(natKey(IPProtoUDP))
	want := natKey(IPProtoUDP).
		With(flow.FieldIPSrc, 0x0a090001).With(flow.FieldTpSrc, 53)
	if !PatchFrameNAT(frame, want) {
		t.Fatal("patch refused")
	}
	k, _ := Decode(frame, 0)
	for _, f := range []flow.FieldID{flow.FieldIPSrc, flow.FieldIPDst,
		flow.FieldTpSrc, flow.FieldTpDst} {
		if k.Get(f) != want.Get(f) {
			t.Errorf("%s = %d, want %d", f, k.Get(f), want.Get(f))
		}
	}
}
