package packet

// DNS wire-format constants.
const (
	dnsHeaderLen = 12
	dnsMaxLabel  = 63
	// dnsMaxName bounds a question name's presentation form (labels
	// joined by dots). RFC 1035 caps the wire form at 255 octets; the
	// dotted text form fits in the same budget.
	dnsMaxName = 255
	// dnsMaxJumps bounds how many compression pointers one name may chase.
	// Legitimate messages need a handful; a loop would chase forever.
	dnsMaxJumps = 8
)

// DNS query/response types the load-balancer scenario cares about.
const (
	DNSTypeA    = 1
	DNSClassIN  = 1
	DNSPortWire = 53
)

// DNSQuery is the decoded header plus first question of a DNS message.
// The question name is validated, not kept.
type DNSQuery struct {
	ID       uint16
	Response bool  // QR bit: true for responses
	Opcode   uint8 // standard query = 0
	QDCount  uint16
	QType    uint16
	QClass   uint16
}

// UDPPayload returns the UDP payload of a frame whose Decode reported a
// clean (or degraded-but-portful) UDP parse. info must be the Info that
// Decode returned for this frame: the payload starts one half-header
// past HeaderLen (Decode consumes only the 4 port bytes of the 8-byte
// UDP header). ok is false for non-UDP or truncated frames.
func UDPPayload(frame []byte, info Info) (payload []byte, ok bool) {
	if info.Proto != ProtoUDP || info.Fragment {
		return nil, false
	}
	off := info.HeaderLen + (udpHeaderLen - 4)
	if off > len(frame) {
		return nil, false
	}
	return frame[off:], true
}

// DecodeDNS parses the header and first question of a DNS message
// (a UDP payload, no length prefix). It never panics: truncated or
// hostile input — oversized labels, names past the 255-octet cap,
// compression-pointer loops, pointers past the message — returns
// ok=false with the query left partially filled. Messages with no
// question section also return ok=false; the load balancer has nothing
// to route on.
func DecodeDNS(payload []byte) (q DNSQuery, ok bool) {
	if len(payload) < dnsHeaderLen {
		return q, false
	}
	q.ID = be16(payload[0:])
	flags := be16(payload[2:])
	q.Response = flags&0x8000 != 0
	q.Opcode = uint8(flags >> 11 & 0x0f)
	q.QDCount = be16(payload[4:])
	if q.QDCount == 0 {
		return q, false
	}

	// Walk the first question name. Compression pointers (RFC 1035 §4.1.4)
	// may appear even in questions in hostile input; chase them with a
	// bounded jump budget so loops terminate.
	off := dnsHeaderLen
	jumps, nameLen := 0, 0 // nameLen: the presentation form's length so far
	afterPtr := -1         // offset of the fixed fields once a pointer is chased
	for {
		if off >= len(payload) {
			return q, false
		}
		b := payload[off]
		switch {
		case b == 0: // root label: name complete
			if afterPtr >= 0 {
				// A pointer-terminated name: the question's fixed fields
				// follow the first pointer, not the root label.
				off = afterPtr
			} else {
				off++
			}
			if len(payload) < off+4 {
				return q, false
			}
			q.QType = be16(payload[off:])
			q.QClass = be16(payload[off+2:])
			return q, true
		case b&0xc0 == 0xc0: // compression pointer
			if len(payload) < off+2 {
				return q, false
			}
			if afterPtr < 0 {
				afterPtr = off + 2
			}
			jumps++
			if jumps > dnsMaxJumps {
				return q, false
			}
			off = int(b&0x3f)<<8 | int(payload[off+1])
		case b&0xc0 != 0: // 0x40/0x80 label types are reserved
			return q, false
		default: // ordinary label of length b
			n := int(b)
			if n > dnsMaxLabel || off+1+n > len(payload) {
				return q, false
			}
			if nameLen > 0 {
				nameLen++ // joining dot
			}
			if nameLen += n; nameLen > dnsMaxName {
				return q, false
			}
			off += 1 + n
		}
	}
}

// AppendDNSQuery serializes a minimal standard A/IN query for name
// (presentation form, e.g. "www.example.com") appended to buf — the
// inverse of DecodeDNS for the query shapes the benchmarks generate.
// Empty labels (leading/trailing/double dots) are skipped rather than
// rejected; labels longer than 63 bytes are truncated.
func AppendDNSQuery(buf []byte, id uint16, name string) []byte {
	buf = appendBE16(buf, id)
	buf = append(buf, 0x01, 0x00) // RD set, standard query
	buf = appendBE16(buf, 1)      // QDCOUNT
	buf = append(buf, 0, 0, 0, 0, 0, 0)
	for len(name) > 0 {
		i := 0
		for i < len(name) && name[i] != '.' {
			i++
		}
		label := name[:i]
		if len(label) > dnsMaxLabel {
			label = label[:dnsMaxLabel]
		}
		if len(label) > 0 {
			buf = append(buf, byte(len(label)))
			buf = append(buf, label...)
		}
		if i == len(name) {
			break
		}
		name = name[i+1:]
	}
	buf = append(buf, 0) // root label
	buf = appendBE16(buf, DNSTypeA)
	buf = appendBE16(buf, DNSClassIN)
	return buf
}
