package packet

import (
	"bytes"
	"testing"

	"gigaflow/internal/flow"
)

// FuzzRSSHash holds the RSS extractor to its equivalence contract with
// the full decoder, for every input the fuzzer can produce:
//
//  1. RSSTuple succeeds iff Decode yields a clean IPv4 L3/L4 key
//     (Info.Err == ErrOK and a non-L2 protocol class) — the boundary
//     that decides whether a frame is decoded on its shard worker or
//     falls back to submitter-side decode.
//  2. On success, the extracted 5-tuple matches the decoded key's
//     field values exactly, so the tuple's SymHash == Key.SymHash and
//     wire-hash routing agrees with key-hash routing bit for bit.
//  3. The hash is endpoint-symmetric: hashing with src/dst swapped
//     (both IP and port) lands on the same shard.
//
// The seed corpus under testdata/fuzz/FuzzRSSHash pins the same frame
// shapes FuzzDecode covers (clean TCP/UDP/ICMP, VLAN and QinQ stacks,
// fragments, truncations, garbage); `make ci` replays it in regression
// mode.
func FuzzRSSHash(f *testing.F) {
	tcp := Encode(tcpKey())
	f.Add(tcp)
	f.Add(Encode(tcpKey().With(flow.FieldIPProto, IPProtoUDP)))
	f.Add(Encode(tcpKey().With(flow.FieldIPProto, IPProtoICMP).
		With(flow.FieldTpSrc, 8).With(flow.FieldTpDst, 0)))
	f.Add(Encode(tcpKey().With(flow.FieldIPProto, 47)))
	f.Add(Encode(tcpKey().With(flow.FieldEthType, 0x0806)))
	f.Add(vlanTag(tcp, EtherTypeVLAN, 42))
	f.Add(vlanTag(vlanTag(tcp, EtherTypeVLAN, 100), EtherTypeQinQ, 7))
	f.Add(vlanTag(vlanTag(vlanTag(tcp, EtherTypeVLAN, 1), EtherTypeVLAN, 2), EtherTypeVLAN, 3))
	f.Add(fragmentFrame(tcp))
	f.Add([]byte{})
	f.Add(tcp[:10])
	f.Add(tcp[:14])
	f.Add(tcp[:33])
	f.Add(tcp[:36])
	f.Add(vlanTag(tcp, EtherTypeVLAN, 5)[:16])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, frame []byte) {
		tup, ok := RSSTuple(frame)
		k, info := Decode(frame, 0)

		clean := info.Err == ErrOK && info.Proto != ProtoNonIPv4
		if ok != clean {
			t.Fatalf("RSSTuple ok=%v but Decode gave proto=%v err=%v", ok, info.Proto, info.Err)
		}
		if !ok {
			return
		}

		// The extractor's 5-tuple is the decoded key's 5-tuple.
		want := Tuple{
			SrcIP:   k.Get(flow.FieldIPSrc),
			DstIP:   k.Get(flow.FieldIPDst),
			Proto:   k.Get(flow.FieldIPProto),
			SrcPort: k.Get(flow.FieldTpSrc),
			DstPort: k.Get(flow.FieldTpDst),
		}
		if tup != want {
			t.Fatalf("tuple mismatch: extracted %+v, decoded %+v", tup, want)
		}

		// Therefore the wire hash equals the key's symmetric hash.
		if h := tup.SymHash(); h != k.SymHash() {
			t.Fatalf("RSSTuple SymHash = %d, key SymHash = %d", h, k.SymHash())
		}

		// Endpoint symmetry: swapping src and dst (IP and port together)
		// must not move the flow to a different shard.
		rev := Tuple{SrcIP: tup.DstIP, DstIP: tup.SrcIP, Proto: tup.Proto,
			SrcPort: tup.DstPort, DstPort: tup.SrcPort}
		if rev.SymHash() != tup.SymHash() {
			t.Fatalf("SymHash not symmetric: fwd %d, rev %d", tup.SymHash(), rev.SymHash())
		}
	})
}

// fragmentFrame marks an encoded IPv4 frame as a non-first fragment
// (offset 1), the case where ports are unavailable but the frame is
// still cleanly decodable.
func fragmentFrame(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[ethHeaderLen+6] = 0x00
	out[ethHeaderLen+7] = 0x01
	return out
}

// TestRSSHashSymmetricOnWire re-encodes a flow's reverse direction as
// real frame bytes and checks the two frames hash to the same shard —
// the property conntrack-mode sharding relies on, proved on the wire
// path rather than on tuples.
func TestRSSHashSymmetricOnWire(t *testing.T) {
	fwdKey := tcpKey()
	revKey := fwdKey.
		With(flow.FieldIPSrc, fwdKey.Get(flow.FieldIPDst)).
		With(flow.FieldIPDst, fwdKey.Get(flow.FieldIPSrc)).
		With(flow.FieldTpSrc, fwdKey.Get(flow.FieldTpDst)).
		With(flow.FieldTpDst, fwdKey.Get(flow.FieldTpSrc))
	fwd, fok := RSSTuple(Encode(fwdKey))
	rev, rok := RSSTuple(Encode(revKey))
	if !fok || !rok {
		t.Fatal("clean TCP frames must extract")
	}
	if fwd.SymHash() != rev.SymHash() {
		t.Fatalf("wire hash not symmetric: fwd %d, rev %d", fwd.SymHash(), rev.SymHash())
	}
	// And a different flow must (for this pair) shard differently, or
	// the symmetric hash would be degenerate.
	other, _ := RSSTuple(Encode(fwdKey.With(flow.FieldTpSrc, fwdKey.Get(flow.FieldTpSrc)+1)))
	if other.SymHash() == fwd.SymHash() {
		t.Fatal("distinct flows collided — hash looks degenerate")
	}
}

// hashSink keeps the benchmarks' hashes live.
var hashSink uint64

// TestRSSTupleZeroAlloc: the extractor is //gf:hotpath and must not
// allocate — gflint proves it statically, this proves it dynamically.
func TestRSSTupleZeroAlloc(t *testing.T) {
	frame := Encode(tcpKey())
	if n := testing.AllocsPerRun(200, func() {
		tup, ok := RSSTuple(frame)
		if !ok {
			t.Fatal("extraction failed")
		}
		hashSink = tup.SymHash()
	}); n != 0 {
		t.Fatalf("RSSTuple+SymHash allocates %.1f/op, want 0", n)
	}
}

func BenchmarkRSSHash(b *testing.B) {
	frame := Encode(tcpKey())
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		tup, ok := RSSTuple(frame)
		if !ok {
			b.Fatal("extraction failed")
		}
		hashSink = tup.SymHash()
	}
}

func BenchmarkRSSHashVLAN(b *testing.B) {
	frame := vlanTag(Encode(tcpKey()), EtherTypeVLAN, 42)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		tup, ok := RSSTuple(frame)
		if !ok {
			b.Fatal("extraction failed")
		}
		hashSink = tup.SymHash()
	}
}
