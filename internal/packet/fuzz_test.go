package packet

import (
	"bytes"
	"testing"

	"gigaflow/internal/flow"
)

// FuzzDecode drives the decoder with arbitrary bytes and checks its two
// contracts: it never panics (the fuzz engine catches that for free),
// and on cleanly decoded frames, decode → encode → decode is a fixed
// point — re-encoding the extracted key and decoding the result yields
// the identical key — and DecodeInto's: decoding into storage that holds
// another packet overwrites it completely, so the result equals a decode
// into fresh storage. The seed corpus under testdata/fuzz/FuzzDecode
// pins valid TCP/UDP/ICMP/VLAN frames plus truncated and garbage
// inputs, and `make ci` replays it in regression mode.
func FuzzDecode(f *testing.F) {
	tcp := Encode(tcpKey())
	f.Add(tcp)
	f.Add(Encode(tcpKey().With(flow.FieldIPProto, IPProtoUDP)))
	f.Add(Encode(tcpKey().With(flow.FieldIPProto, IPProtoICMP).
		With(flow.FieldTpSrc, 8).With(flow.FieldTpDst, 0)))
	f.Add(Encode(tcpKey().With(flow.FieldIPProto, 47)))
	f.Add(Encode(tcpKey().With(flow.FieldEthType, 0x0806)))
	f.Add(vlanTag(tcp, EtherTypeVLAN, 42))
	f.Add(vlanTag(vlanTag(tcp, EtherTypeVLAN, 100), EtherTypeQinQ, 7))
	f.Add([]byte{})
	f.Add(tcp[:10])
	f.Add(tcp[:14])
	f.Add(tcp[:33])
	f.Add(tcp[:36])
	f.Add(vlanTag(tcp, EtherTypeVLAN, 5)[:16])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, frame []byte) {
		const inPort = 9
		k1, info1 := Decode(frame, inPort)

		// Full overwrite: every field of a poisoned key and Info is
		// replaced, whatever path the frame takes through the decoder.
		var kp flow.Key
		for i := range kp {
			kp[i] = ^uint64(0)
		}
		ip := Info{Proto: ProtoICMP, Err: ErrL4Truncated, VLAN: 0xfff, Fragment: true, HeaderLen: 1 << 20, TCPFlags: 0xff}
		DecodeInto(frame, inPort, &kp, &ip)
		if kp != k1 || ip != info1 {
			t.Fatalf("DecodeInto over a previous packet left residue:\n got %s %+v\nwant %s %+v", kp, ip, k1, info1)
		}

		// Structural invariants that hold for every input.
		if k1.Get(flow.FieldInPort) != inPort {
			t.Fatalf("in_port = %d, want %d", k1.Get(flow.FieldInPort), inPort)
		}
		if k1.Get(flow.FieldMeta) != 0 {
			t.Fatal("metadata must be zero at ingress")
		}
		if int(info1.Proto) >= NumProtos || int(info1.Err) >= NumErrCodes {
			t.Fatalf("out-of-range info %+v", info1)
		}
		if info1.HeaderLen > len(frame) {
			t.Fatalf("HeaderLen %d exceeds frame length %d", info1.HeaderLen, len(frame))
		}
		if info1.Err == ErrShortFrame {
			if k1.Get(flow.FieldEthSrc) != 0 || k1.Get(flow.FieldEthType) != 0 {
				t.Fatalf("short frame decoded L2 fields: %s", k1)
			}
			return
		}

		// Fixed point: a cleanly decoded key survives the encoder.
		// (Defective frames degrade and need not round-trip.)
		if !info1.OK() {
			return
		}
		reenc := Encode(k1)
		k2, info2 := Decode(reenc, inPort)
		if !info2.OK() {
			t.Fatalf("re-encoded frame failed to decode: %+v\nkey %s\nframe % x",
				info2, k1, reenc)
		}
		if k2 != k1 {
			t.Fatalf("decode→encode→decode not a fixed point:\nk1 %s\nk2 %s\nframe % x",
				k1, k2, reenc)
		}
		if info2.Proto != info1.Proto {
			t.Fatalf("proto changed across round trip: %v -> %v", info1.Proto, info2.Proto)
		}
	})
}

// FuzzDecodeDNS drives the DNS question parser with arbitrary payloads.
// Its contracts: never panic (hostile names, compression-pointer loops,
// pointers past the message), and anything reported ok has a question
// section. The seed corpus under
// testdata/fuzz/FuzzDecodeDNS pins a valid query, a pointer-compressed
// response, and the hostile shapes; `make ci` replays it in regression
// mode.
func FuzzDecodeDNS(f *testing.F) {
	f.Add(AppendDNSQuery(nil, 1, "www.example.com"))
	f.Add(AppendDNSQuery(nil, 0xffff, "a"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12})
	f.Add([]byte{0xbe, 0xef, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0,
		3, 'w', 'w', 'w', 0xc0, 22, 0, 1, 0, 1,
		7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		q, ok := DecodeDNS(payload)
		if !ok {
			return
		}
		if q.QDCount == 0 {
			t.Fatal("ok with no question section")
		}
	})
}
