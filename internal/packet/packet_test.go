package packet

import (
	"bytes"
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// tcpKey builds a wire-faithful TCP key (every value representable on
// the wire, in_port and metadata zero unless set by the caller).
func tcpKey() flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthSrc, 0x02aabbccddee)
	k.Set(flow.FieldEthDst, 0x020102030405)
	k.Set(flow.FieldEthType, EtherTypeIPv4)
	k.Set(flow.FieldIPSrc, 0x0a000001)
	k.Set(flow.FieldIPDst, 0x0a000002)
	k.Set(flow.FieldIPProto, IPProtoTCP)
	k.Set(flow.FieldTpSrc, 49152)
	k.Set(flow.FieldTpDst, 443)
	return k
}

func TestDecodeEncodeRoundTripTCP(t *testing.T) {
	want := tcpKey()
	frame := Encode(want)
	if len(frame) != FrameLen(want) {
		t.Fatalf("frame len %d, FrameLen %d", len(frame), FrameLen(want))
	}
	if len(frame) != 14+20+20 {
		t.Fatalf("TCP frame length = %d, want 54", len(frame))
	}
	got, info := Decode(frame, 0)
	if !info.OK() {
		t.Fatalf("decode error %v", info.Err)
	}
	if info.Proto != ProtoTCP {
		t.Fatalf("proto = %v, want tcp", info.Proto)
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestDecodeSetsInPort(t *testing.T) {
	k, _ := Decode(Encode(tcpKey()), 7)
	if k.Get(flow.FieldInPort) != 7 {
		t.Fatalf("in_port = %d, want 7", k.Get(flow.FieldInPort))
	}
	if k.Get(flow.FieldMeta) != 0 {
		t.Fatalf("metadata = %d, want 0 at ingress", k.Get(flow.FieldMeta))
	}
}

func TestDecodeEncodeRoundTripUDPAndICMP(t *testing.T) {
	udp := tcpKey().With(flow.FieldIPProto, IPProtoUDP).
		With(flow.FieldTpSrc, 53).With(flow.FieldTpDst, 5353)
	icmp := tcpKey().With(flow.FieldIPProto, IPProtoICMP).
		With(flow.FieldTpSrc, 8).With(flow.FieldTpDst, 0) // echo request
	other := tcpKey().With(flow.FieldIPProto, 47). // GRE: no ports
							With(flow.FieldTpSrc, 0).With(flow.FieldTpDst, 0)
	for _, tc := range []struct {
		name  string
		key   flow.Key
		proto Proto
		size  int
	}{
		{"udp", udp, ProtoUDP, 14 + 20 + 8},
		{"icmp", icmp, ProtoICMP, 14 + 20 + 8},
		{"gre", other, ProtoOtherIPv4, 14 + 20},
	} {
		frame := Encode(tc.key)
		if len(frame) != tc.size {
			t.Errorf("%s: frame length %d, want %d", tc.name, len(frame), tc.size)
		}
		got, info := Decode(frame, 0)
		if !info.OK() || info.Proto != tc.proto {
			t.Errorf("%s: info = %+v", tc.name, info)
		}
		if got != tc.key {
			t.Errorf("%s: round trip mismatch:\n got %s\nwant %s", tc.name, got, tc.key)
		}
	}
}

func TestDecodeNonIPv4IsL2Only(t *testing.T) {
	var k flow.Key
	k.Set(flow.FieldEthSrc, 0x02aabbccddee)
	k.Set(flow.FieldEthDst, 0xffffffffffff)
	k.Set(flow.FieldEthType, 0x0806) // ARP
	frame := Encode(k)
	if len(frame) != 14 {
		t.Fatalf("non-IPv4 frame length = %d, want 14", len(frame))
	}
	got, info := Decode(frame, 3)
	if !info.OK() {
		t.Fatalf("non-IPv4 must not be a decode error, got %v", info.Err)
	}
	if info.Proto != ProtoNonIPv4 {
		t.Fatalf("proto = %v", info.Proto)
	}
	want := k.With(flow.FieldInPort, 3)
	if got != want {
		t.Fatalf("L2 key mismatch:\n got %s\nwant %s", got, want)
	}
}

// vlanTag splices an 802.1Q tag with the given TPID and VID into an
// untagged frame.
func vlanTag(frame []byte, tpid, vid uint16) []byte {
	out := make([]byte, 0, len(frame)+4)
	out = append(out, frame[:12]...)
	out = appendBE16(out, tpid)
	out = appendBE16(out, vid&0x0fff)
	out = append(out, frame[12:]...)
	return out
}

func TestDecodeVLAN(t *testing.T) {
	want := tcpKey()
	tagged := vlanTag(Encode(want), EtherTypeVLAN, 42)
	got, info := Decode(tagged, 0)
	if !info.OK() {
		t.Fatalf("decode error %v", info.Err)
	}
	if info.VLAN != 42 {
		t.Fatalf("VLAN = %d, want 42", info.VLAN)
	}
	if got != want {
		t.Fatalf("VLAN decode mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestDecodeQinQ(t *testing.T) {
	want := tcpKey()
	tagged := vlanTag(vlanTag(Encode(want), EtherTypeVLAN, 100), EtherTypeQinQ, 7)
	got, info := Decode(tagged, 0)
	if !info.OK() {
		t.Fatalf("decode error %v", info.Err)
	}
	if info.VLAN != 7 { // outermost (service) tag wins
		t.Fatalf("VLAN = %d, want 7", info.VLAN)
	}
	if got != want {
		t.Fatalf("QinQ decode mismatch:\n got %s\nwant %s", got, want)
	}
	// A third tag is beyond the decoder's stack budget: L2-only, with
	// the undecoded TPID as the ethertype and the degradation flagged.
	triple := vlanTag(tagged, EtherTypeQinQ, 9)
	got, info = Decode(triple, 0)
	if info.Err != ErrVLANTooDeep {
		t.Fatalf("triple tag: err = %v, want vlan_too_deep", info.Err)
	}
	if got.Get(flow.FieldEthType) != EtherTypeVLAN {
		t.Fatalf("eth_type = %#x, want the residual TPID %#x",
			got.Get(flow.FieldEthType), EtherTypeVLAN)
	}
	if got.Get(flow.FieldIPSrc) != 0 {
		t.Fatal("triple-tagged frame must not reach L3")
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid := Encode(tcpKey())
	cases := []struct {
		name  string
		frame []byte
		err   ErrCode
	}{
		{"empty", nil, ErrShortFrame},
		{"runt", valid[:10], ErrShortFrame},
		{"eth only header for ipv4", valid[:14], ErrIPv4Truncated},
		{"ipv4 cut mid-header", valid[:20], ErrIPv4Truncated},
		{"l4 truncated", valid[:36], ErrL4Truncated},
		{"vlan tag cut", vlanTag(valid, EtherTypeVLAN, 5)[:16], ErrVLANTruncated},
	}
	for _, tc := range cases {
		k, info := Decode(tc.frame, 1)
		if info.Err != tc.err {
			t.Errorf("%s: err = %v, want %v", tc.name, info.Err, tc.err)
		}
		if k.Get(flow.FieldInPort) != 1 {
			t.Errorf("%s: degraded key lost in_port", tc.name)
		}
	}

	bad := append([]byte(nil), valid...)
	bad[14] = 0x65 // version 6
	if _, info := Decode(bad, 0); info.Err != ErrIPv4BadVersion {
		t.Errorf("bad version: err = %v", info.Err)
	}
	bad[14] = 0x44 // version 4, IHL 4 (< minimum 5)
	if _, info := Decode(bad, 0); info.Err != ErrIPv4BadIHL {
		t.Errorf("bad IHL: err = %v", info.Err)
	}
	bad[14] = 0x4f // IHL 15: claims 60 header bytes the frame lacks
	if _, info := Decode(bad, 0); info.Err != ErrIPv4Truncated {
		t.Errorf("overlong IHL: err = %v", info.Err)
	}

	// Degraded keys keep the fields decoded before the defect.
	k, info := Decode(valid[:36], 1)
	if info.Err != ErrL4Truncated {
		t.Fatalf("err = %v", info.Err)
	}
	if k.Get(flow.FieldIPSrc) != 0x0a000001 || k.Get(flow.FieldTpDst) != 0 {
		t.Fatalf("L4-truncated key = %s", k)
	}
}

func TestDecodeIPv4Options(t *testing.T) {
	want := tcpKey()
	plain := Encode(want)
	// Rebuild with IHL 6: one 4-byte NOP-padded options word.
	frame := make([]byte, 0, len(plain)+4)
	frame = append(frame, plain[:14]...)
	frame = append(frame, plain[14:34]...)
	frame = append(frame, 1, 1, 1, 1) // four NOPs
	frame = append(frame, plain[34:]...)
	frame[14] = 0x46 // version 4, IHL 6
	got, info := Decode(frame, 0)
	if !info.OK() {
		t.Fatalf("decode error %v", info.Err)
	}
	if got != want {
		t.Fatalf("options decode mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestDecodeFragment(t *testing.T) {
	frame := Encode(tcpKey())
	frame[20] = 0x00
	frame[21] = 0xb9 // fragment offset 185: not the first fragment
	k, info := Decode(frame, 0)
	if !info.OK() {
		t.Fatalf("fragments are not decode errors, got %v", info.Err)
	}
	if !info.Fragment {
		t.Fatal("Fragment not flagged")
	}
	if k.Get(flow.FieldTpSrc) != 0 || k.Get(flow.FieldTpDst) != 0 {
		t.Fatalf("non-first fragment must not parse ports: %s", k)
	}
	if k.Get(flow.FieldIPProto) != IPProtoTCP {
		t.Fatal("fragment lost ip_proto")
	}
}

func TestEncodeIPv4Checksum(t *testing.T) {
	frame := Encode(tcpKey())
	// Verifying: summing the header including its checksum yields 0xffff.
	var sum uint32
	for i := 14; i < 34; i += 2 {
		sum += uint32(frame[i])<<8 | uint32(frame[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if sum != 0xffff {
		t.Fatalf("IPv4 header checksum does not verify: folded sum %#x", sum)
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 128)
	a := AppendFrame(buf, tcpKey())
	b := AppendFrame(a[:0], tcpKey())
	if &a[0] != &b[0] {
		t.Fatal("AppendFrame reallocated despite sufficient capacity")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("repeated encode differs")
	}
}

func TestDecodeAllocFree(t *testing.T) {
	frame := Encode(tcpKey())
	n := testing.AllocsPerRun(200, func() {
		Decode(frame, 1)
	})
	if n != 0 {
		t.Fatalf("Decode allocates %v times per op, want 0", n)
	}
}

var (
	sinkKey  flow.Key
	sinkInfo Info
)

func BenchmarkDecode(b *testing.B) {
	tcp := Encode(tcpKey())
	vlan := vlanTag(tcp, EtherTypeVLAN, 42)
	udp := Encode(tcpKey().With(flow.FieldIPProto, IPProtoUDP))
	arp := Encode(tcpKey().With(flow.FieldEthType, 0x0806))
	for _, bc := range []struct {
		name  string
		frame []byte
	}{
		{"tcp", tcp}, {"vlan_tcp", vlan}, {"udp", udp}, {"l2_only", arp},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.frame)))
			for i := 0; i < b.N; i++ {
				sinkKey, sinkInfo = Decode(bc.frame, 1)
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	k := tcpKey()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], k)
	}
	sinkLen = len(buf)
}

var sinkLen int

// TestDecodeWordsMatchSetters pins the decoder's direct word writes to
// flow's field accessors: for random wire keys, the decode of every
// prefix of the frame equals the key built field by field with Set from
// the layers that prefix carries in full — no field lands at the wrong
// offset, and no stray bits survive from a previous packet.
func TestDecodeWordsMatchSetters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var k flow.Key
		k.Set(flow.FieldEthSrc, rng.Uint64())
		k.Set(flow.FieldEthDst, rng.Uint64())
		k.Set(flow.FieldEthType, EtherTypeIPv4)
		k.Set(flow.FieldIPSrc, rng.Uint64())
		k.Set(flow.FieldIPDst, rng.Uint64())
		k.Set(flow.FieldIPProto, []uint64{IPProtoTCP, IPProtoUDP, IPProtoICMP, 47}[i%4])
		if p := k.Get(flow.FieldIPProto); p == IPProtoTCP || p == IPProtoUDP {
			k.Set(flow.FieldTpSrc, rng.Uint64())
			k.Set(flow.FieldTpDst, rng.Uint64())
		} else if p == IPProtoICMP {
			k.Set(flow.FieldTpSrc, rng.Uint64()&0xff)
			k.Set(flow.FieldTpDst, rng.Uint64()&0xff)
		}
		inPort := uint16(rng.Uint32())
		frame := Encode(k)
		for n := 0; n <= len(frame); n++ {
			var want flow.Key
			want.Set(flow.FieldInPort, uint64(inPort))
			if n >= ethHeaderLen {
				for _, f := range []flow.FieldID{flow.FieldEthSrc, flow.FieldEthDst, flow.FieldEthType} {
					want.Set(f, k.Get(f))
				}
			}
			if n >= ethHeaderLen+ipv4MinHeader {
				for _, f := range []flow.FieldID{flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto} {
					want.Set(f, k.Get(f))
				}
			}
			portBytes := 4
			if k.Get(flow.FieldIPProto) == IPProtoICMP {
				portBytes = 2
			}
			if n >= ethHeaderLen+ipv4MinHeader+portBytes {
				want.Set(flow.FieldTpSrc, k.Get(flow.FieldTpSrc))
				want.Set(flow.FieldTpDst, k.Get(flow.FieldTpDst))
			}
			got := flow.Key{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
			var info Info
			DecodeInto(frame[:n], inPort, &got, &info)
			if got != want {
				t.Fatalf("key %d, %d of %d bytes: decoded\n %s\nwant\n %s", i, n, len(frame), got, want)
			}
		}
	}
}
