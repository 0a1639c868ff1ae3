package packet

import (
	"bytes"
	"strings"
	"testing"

	"gigaflow/internal/flow"
)

func TestDNSRoundTrip(t *testing.T) {
	for _, name := range []string{
		"www.example.com",
		"a",
		"pool.gigaflow.test",
		strings.Repeat("x", 63), // max label
		strings.Repeat("y", 63) + "." + strings.Repeat("z", 63), // two max labels
		"trailing.dot.", // empty labels skipped
		"..double",
	} {
		payload := AppendDNSQuery(nil, 0x1234, name)
		q, ok := DecodeDNS(payload)
		if !ok {
			t.Fatalf("%q: decode failed", name)
		}
		if q.ID != 0x1234 || q.Response || q.Opcode != 0 ||
			q.QType != DNSTypeA || q.QClass != DNSClassIN {
			t.Errorf("%q: decoded %+v", name, q)
		}
	}
}

func TestDNSCompressionPointer(t *testing.T) {
	// Hand-built response whose question name is pointer-compressed:
	// "www" + a pointer to "example.com" stored after the fixed fields.
	// (Real resolvers compress answer names, not the first question —
	// but hostile input can, and the parser must chase it correctly.)
	msg := []byte{
		0xbe, 0xef, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0, // header, QR set
		// offset 12: question name "www" + pointer to offset 22
		3, 'w', 'w', 'w', 0xc0, 22,
		// offset 18: the fixed fields (follow the first pointer)
		0, 1, 0, 1,
		// offset 22: "example" "com" 0 (the pointer target)
		7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
	}
	q, ok := DecodeDNS(msg)
	if !ok {
		t.Fatal("pointer-compressed question must decode")
	}
	if !q.Response || q.QType != DNSTypeA {
		t.Fatalf("decoded %+v", q)
	}
}

func TestDNSHostileInputs(t *testing.T) {
	valid := AppendDNSQuery(nil, 1, "a.b")
	cases := map[string][]byte{
		"empty":                {},
		"short header":         valid[:11],
		"no question":          append(append([]byte{}, valid[:4]...), 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated name":       valid[:14],
		"missing fixed fields": valid[:len(valid)-2],
		"pointer loop": {
			0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
			0xc0, 12, // points at itself
		},
		"pointer past message": {
			0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
			0xc0, 200,
		},
		"reserved label type": {
			0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
			0x80, 0,
		},
		"label past end": {
			0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
			40, 'a', 'b',
		},
	}
	// A name that sums past the 255-octet cap out of legal labels.
	long := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for i := 0; i < 6; i++ {
		long = append(long, 63)
		long = append(long, bytes.Repeat([]byte{'q'}, 63)...)
	}
	long = append(long, 0, 0, 1, 0, 1)
	cases["name past 255"] = long

	for name, msg := range cases {
		if _, ok := DecodeDNS(msg); ok {
			t.Errorf("%s: hostile input decoded ok", name)
		}
	}
}

func TestDecodeDNSNoAlloc(t *testing.T) {
	payload := AppendDNSQuery(nil, 7, "ns1.pool.gigaflow.test")
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := DecodeDNS(payload); !ok {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeDNS allocates %.1f/op, want 0", allocs)
	}
}

func TestUDPPayloadExtraction(t *testing.T) {
	k := tcpKey().With(flow.FieldIPProto, IPProtoUDP).
		With(flow.FieldTpSrc, 4000).With(flow.FieldTpDst, 53)
	dns := AppendDNSQuery(nil, 42, "svc.gigaflow.test")
	frame := EncodePayload(k, dns)

	dk, info := Decode(frame, 3)
	if !info.OK() || info.Proto != ProtoUDP {
		t.Fatalf("decode info %+v", info)
	}
	if dk.Get(flow.FieldTpDst) != 53 {
		t.Fatalf("decoded key %s", dk)
	}
	pl, ok := UDPPayload(frame, info)
	if !ok || !bytes.Equal(pl, dns) {
		t.Fatalf("payload round-trip failed (ok=%v, %d vs %d bytes)", ok, len(pl), len(dns))
	}
	if _, ok := DecodeDNS(pl); !ok {
		t.Fatal("DNS through the frame did not decode")
	}

	// The UDP length and IP total length fields must account for the
	// payload: reported lengths match the frame layout exactly.
	ipTotal := int(be16(frame[ethHeaderLen+2:]))
	if ipTotal != len(frame)-ethHeaderLen {
		t.Errorf("IP total length %d, frame carries %d", ipTotal, len(frame)-ethHeaderLen)
	}
	udpLen := int(be16(frame[ethHeaderLen+ipv4MinHeader+4:]))
	if udpLen != udpHeaderLen+len(dns) {
		t.Errorf("UDP length %d, want %d", udpLen, udpHeaderLen+len(dns))
	}

	// Non-UDP frames refuse.
	tcpFrame := Encode(tcpKey())
	_, tcpInfo := Decode(tcpFrame, 0)
	if _, ok := UDPPayload(tcpFrame, tcpInfo); ok {
		t.Error("UDPPayload accepted a TCP frame")
	}
}
