package packet

import "gigaflow/internal/flow"

// RSS-style 5-tuple extraction: the ingestion front-end needs only a
// shard assignment, not a full key, so it reads the handful of L3/L4
// header words a NIC's RSS engine would and defers the complete Decode
// to the owning shard worker. Extraction succeeds exactly when Decode
// would yield a clean IPv4 L3/L4 key (Info.Err == ErrOK and a non-L2
// protocol class): anything else — short frames, truncated or
// inconsistent headers, over-deep VLAN stacks, non-IPv4 ethertypes —
// reports !ok and the caller falls back to submitter-side Decode plus
// key-hash routing, preserving the degraded-frame semantics bit for
// bit. FuzzRSSHash holds the two code paths to that equivalence.

// Tuple is the symmetric-hash input extracted from wire bytes: the five
// values Decode would place in the corresponding key fields. For ICMP
// the type/code ride in the port slots (OVS-style, exactly as Decode
// does); for non-first fragments and port-less transports the ports are
// zero, again mirroring Decode.
type Tuple struct {
	SrcIP   uint64
	DstIP   uint64
	Proto   uint64
	SrcPort uint64
	DstPort uint64
}

// SymHash is the tuple's endpoint-symmetric shard hash, bit-identical
// to flow.Key.SymHash on the key Decode builds from the same frame —
// both feed flow.SymHash5 — so wire-hash routing and key-hash routing
// agree on every frame the extractor accepts.
//
//gf:hotpath
func (t Tuple) SymHash() uint64 {
	return flow.SymHash5(t.SrcIP, t.DstIP, t.Proto, t.SrcPort, t.DstPort)
}

// RSSTuple extracts the 5-tuple from a raw Ethernet frame, reading only
// the header words the hash needs. ok reports whether the frame parses
// as clean IPv4 — the exact set of frames Decode returns with
// Info.Err == ErrOK and an IPv4 protocol class. It never allocates and
// never panics.
//
// The validation mirrors Decode step for step (same VLAN-stack budget,
// same IHL and truncation checks, same fragment rule) because the two
// must agree on which frames are cleanly decodable: a frame RSSTuple
// accepts is decoded on the shard worker it hashes to, and a frame it
// rejects is decoded by the submitter.
//
//gf:hotpath
func RSSTuple(frame []byte) (Tuple, bool) {
	var t Tuple
	if len(frame) < ethHeaderLen {
		return t, false
	}
	ethType := be16(frame[12:])
	off := ethHeaderLen
	for tags := 0; tags < maxVLANTags && (ethType == EtherTypeVLAN || ethType == EtherTypeQinQ); tags++ {
		if len(frame) < off+vlanTagLen {
			return t, false
		}
		ethType = be16(frame[off+2:])
		off += vlanTagLen
	}
	// A residual VLAN TPID here means the stack exceeded the budget
	// (Decode's ErrVLANTooDeep); it fails the != IPv4 test below.
	if ethType != EtherTypeIPv4 {
		return t, false
	}
	if len(frame) < off+ipv4MinHeader {
		return t, false
	}
	verIHL := frame[off]
	if verIHL>>4 != 4 {
		return t, false
	}
	ihl := int(verIHL&0x0f) * 4
	if ihl < ipv4MinHeader || len(frame) < off+ihl {
		return t, false
	}
	proto := frame[off+9]
	t.SrcIP = be32(frame[off+12:])
	t.DstIP = be32(frame[off+16:])
	t.Proto = uint64(proto)
	frag := be16(frame[off+6:])&0x1fff != 0
	off += ihl
	switch proto {
	case IPProtoTCP, IPProtoUDP:
		if frag {
			// Non-first fragment: the transport header lives in the first
			// fragment; ports stay zero and the frame is still clean.
			return t, true
		}
		if len(frame) < off+4 {
			return t, false // Decode's ErrL4Truncated
		}
		t.SrcPort = uint64(be16(frame[off:]))
		t.DstPort = uint64(be16(frame[off+2:]))
	case IPProtoICMP:
		if frag {
			return t, true
		}
		if len(frame) < off+2 {
			return t, false
		}
		t.SrcPort = uint64(frame[off])
		t.DstPort = uint64(frame[off+1])
	}
	// Other transports have no port concept; the tuple is complete.
	return t, true
}
