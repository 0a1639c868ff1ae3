package packet

import "gigaflow/internal/flow"

// Decode extracts the LTM key fields from a raw Ethernet frame. inPort
// is the ingress port the frame arrived on (not a wire field); the
// metadata register is zero at ingress by definition.
//
// Decode never panics and never allocates: malformed frames degrade to
// the longest well-formed prefix of the key, with the defect recorded
// in Info.Err. See the package comment for the degradation rules.
//
//gf:hotpath
func Decode(frame []byte, inPort uint16) (k flow.Key, info Info) {
	DecodeInto(frame, inPort, &k, &info)
	return k, info
}

// DecodeInto is the decoder body: Decode writing through pointers, so a
// caller that already owns the key's final resting place (a batch slot
// the cache lookup will read) pays one write per key word and no copy.
//
// *k and *info may hold a previous packet: DecodeInto overwrites both
// completely — every key word and every Info field is assigned on every
// path, whatever the frame — so storage is reused without being cleared.
//
// The decoder builds the key's packed words itself rather than through a
// read-modify-write Set per field, at flow's bit offsets (internal/flow's
// fieldWord/fieldShift): word 0 in_port@0 eth_src@16, word 1 eth_dst@0
// eth_type@48, word 2 ip_src@0 ip_dst@32, word 3 ip_proto@0 tp_src@8
// tp_dst@24. TestDecodeWordsMatchSetters pins the two against each other.
//
//gf:hotpath
func DecodeInto(frame []byte, inPort uint16, k *flow.Key, info *Info) {
	*info = Info{Proto: ProtoNonIPv4}
	if len(frame) < ethHeaderLen {
		*k = flow.Key{uint64(inPort)}
		info.Err = ErrShortFrame
		return
	}
	l2 := uint64(inPort) | be48(frame[6:])<<16
	ethDst := be48(frame[0:])
	ethType := be16(frame[12:])
	off := ethHeaderLen

	// Skip stacked 802.1Q / 802.1ad tags; the inner ethertype is the
	// one the pipeline matches on (OVS behaviour). The outermost VID is
	// retained in Info for accounting.
	for tags := 0; tags < maxVLANTags && (ethType == EtherTypeVLAN || ethType == EtherTypeQinQ); tags++ {
		if len(frame) < off+vlanTagLen {
			*k = flow.Key{l2, ethDst | uint64(ethType)<<48}
			info.Err = ErrVLANTruncated
			info.HeaderLen = off
			return
		}
		if tags == 0 {
			info.VLAN = be16(frame[off:]) & 0x0fff
		}
		ethType = be16(frame[off+2:])
		off += vlanTagLen
	}
	*k = flow.Key{l2, ethDst | uint64(ethType)<<48}
	info.HeaderLen = off

	if ethType == EtherTypeVLAN || ethType == EtherTypeQinQ {
		// Tags beyond the stack budget stay undecoded: an L2-only key
		// with the residual TPID as its ethertype, flagged so the
		// degradation is countable.
		info.Err = ErrVLANTooDeep
		return
	}
	if ethType != EtherTypeIPv4 {
		// Non-IPv4 traffic degrades to an L2-only key by design: the
		// Figure 6 LTM field set has no fields for it. Not an error.
		return
	}
	decodeIPv4(frame, off, k, info)
}

// decodeIPv4 continues a decode past an IPv4 ethertype at offset off.
//
//gf:hotpath
func decodeIPv4(frame []byte, off int, k *flow.Key, info *Info) {
	info.Proto = ProtoOtherIPv4
	if len(frame) < off+ipv4MinHeader {
		info.Err = ErrIPv4Truncated
		return
	}
	verIHL := frame[off]
	if verIHL>>4 != 4 {
		info.Err = ErrIPv4BadVersion
		return
	}
	ihl := int(verIHL&0x0f) * 4
	if ihl < ipv4MinHeader {
		info.Err = ErrIPv4BadIHL
		return
	}
	if len(frame) < off+ihl {
		// The IHL claims options the frame does not carry.
		info.Err = ErrIPv4Truncated
		return
	}
	proto := frame[off+9]
	k[2] = be32(frame[off+12:]) | be32(frame[off+16:])<<32
	k[3] = uint64(proto)
	fragOff := be16(frame[off+6:]) & 0x1fff
	info.Fragment = fragOff != 0
	off += ihl
	info.HeaderLen = off

	switch proto {
	case IPProtoTCP:
		info.Proto = ProtoTCP
	case IPProtoUDP:
		info.Proto = ProtoUDP
	case IPProtoICMP:
		info.Proto = ProtoICMP
	default:
		// Other transports have no port concept; the key is complete.
		return
	}
	if info.Fragment {
		// Non-first fragment: the transport header is in the first
		// fragment of the datagram. Ports stay zero, as OVS leaves them.
		return
	}
	decodeL4(frame, off, proto, k, info)
}

// decodeL4 extracts the transport ports (or ICMP type/code) at offset off.
//
//gf:hotpath
func decodeL4(frame []byte, off int, proto byte, k *flow.Key, info *Info) {
	switch proto {
	case IPProtoTCP, IPProtoUDP:
		// Only the port words are extracted; 4 bytes suffice even
		// though a full header is longer.
		if len(frame) < off+4 {
			info.Err = ErrL4Truncated
			return
		}
		k[3] |= uint64(be16(frame[off:]))<<8 | uint64(be16(frame[off+2:]))<<24
		info.HeaderLen = off + 4
		// The TCP flag byte feeds the conntrack state machine. A header
		// long enough for the ports but cut before byte 13 keeps the
		// 4-byte degrade above; flags just stay zero.
		if proto == IPProtoTCP && len(frame) >= off+14 {
			info.TCPFlags = frame[off+13]
			info.HeaderLen = off + 14
		}
	case IPProtoICMP:
		// ICMP type and code ride in the port fields, OVS-style.
		if len(frame) < off+2 {
			info.Err = ErrL4Truncated
			return
		}
		k[3] |= uint64(frame[off])<<8 | uint64(frame[off+1])<<24
		info.HeaderLen = off + 2
	}
}

// be16 reads a big-endian 16-bit word. The explicit length check keeps
// the bounds obvious to both the reader and the compiler.
//
//gf:hotpath
func be16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0])<<8 | uint16(b[1])
}

// be32 reads a big-endian 32-bit word.
//
//gf:hotpath
func be32(b []byte) uint64 {
	_ = b[3]
	return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// be48 reads a big-endian 48-bit MAC address.
//
//gf:hotpath
func be48(b []byte) uint64 {
	_ = b[5]
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}
