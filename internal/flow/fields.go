// Package flow models packet header flows as fixed-width field vectors with
// per-bit wildcard masks, plus the match predicates and set-field actions
// used throughout the vSwitch pipeline and the Gigaflow/Megaflow caches.
//
// The field set is the nine packet headers matched ternarily by the
// paper's LTM table (Figure 6) — ingress port, Ethernet
// source/destination/type, IPv4 source/destination/protocol, and transport
// source/destination ports — plus the pipeline metadata register real
// vSwitch pipelines steer with.
package flow

import "fmt"

// FieldID identifies one header field of a flow key.
type FieldID uint8

// The fields of a flow key, in canonical order: the nine packet headers of
// the paper's LTM table (Figure 6) plus the pipeline metadata register
// (OVS reg/conntrack-mark equivalent) that real vSwitch pipelines use for
// inter-table steering. Metadata is zero when a packet enters the pipeline
// and only ever takes values the pipeline's own actions write, so cache
// rules composed over it remain functions of the packet headers.
const (
	FieldInPort  FieldID = iota // ingress port
	FieldEthSrc                 // Ethernet source MAC
	FieldEthDst                 // Ethernet destination MAC
	FieldEthType                // Ethernet type
	FieldIPSrc                  // IPv4 source address
	FieldIPDst                  // IPv4 destination address
	FieldIPProto                // IPv4 protocol
	FieldTpSrc                  // transport (TCP/UDP) source port
	FieldTpDst                  // transport (TCP/UDP) destination port
	FieldMeta                   // pipeline metadata register (not a header)
	FieldCtState                // connection-tracking state bits (not a header)

	// NumFields is the number of fields in a flow key.
	NumFields = 11
)

// Connection-tracking state bits carried in FieldCtState, mirroring the OVS
// ct_state flag vocabulary. The conntrack layer folds these into the key
// before cache lookup and pipeline traversal, so rules and cached entries
// can match ternarily on connection state.
const (
	CtTrk uint64 = 1 << iota // packet passed through conntrack
	CtNew                    // connection in NEW state
	CtEst                    // connection ESTABLISHED
	CtRel                    // RELATED to an existing connection (ICMP)
	CtRpl                    // packet travels in the reply direction
	CtCls                    // connection CLOSED (FIN/RST seen)
)

// fieldWidths holds the bit width of each field.
var fieldWidths = [NumFields]uint{
	FieldInPort:  16,
	FieldEthSrc:  48,
	FieldEthDst:  48,
	FieldEthType: 16,
	FieldIPSrc:   32,
	FieldIPDst:   32,
	FieldIPProto: 8,
	FieldTpSrc:   16,
	FieldTpDst:   16,
	FieldMeta:    16,
	FieldCtState: 8,
}

// NumWords is the number of 64-bit words a Key or a Mask packs its fields
// into: the field widths above sum to exactly 256 bits.
const NumWords = 4

// fieldWord and fieldShift place each field at a fixed bit offset within
// one word of a packed Key or Mask. Fields ascend in (word, bit) order and
// tile the four words with no gap or overlap, so the first differing bit
// of two packed keys, scanned word by word from bit 0, lies in the first
// differing field.
//
//	word 0: in_port@0 eth_src@16
//	word 1: eth_dst@0 eth_type@48
//	word 2: ip_src@0 ip_dst@32
//	word 3: ip_proto@0 tp_src@8 tp_dst@24 metadata@40 ct_state@56
var (
	fieldWord = [NumFields]uint8{
		FieldInPort: 0, FieldEthSrc: 0,
		FieldEthDst: 1, FieldEthType: 1,
		FieldIPSrc: 2, FieldIPDst: 2,
		FieldIPProto: 3, FieldTpSrc: 3, FieldTpDst: 3, FieldMeta: 3, FieldCtState: 3,
	}
	fieldShift = [NumFields]uint8{
		FieldInPort: 0, FieldEthSrc: 16,
		FieldEthDst: 0, FieldEthType: 48,
		FieldIPSrc: 0, FieldIPDst: 32,
		FieldIPProto: 0, FieldTpSrc: 8, FieldTpDst: 24, FieldMeta: 40, FieldCtState: 56,
	}
	fieldMax = func() (m [NumFields]uint64) {
		for f, w := range fieldWidths {
			m[f] = 1<<w - 1
		}
		return m
	}()
)

// fieldNames holds the canonical display name of each field.
var fieldNames = [NumFields]string{
	FieldInPort:  "in_port",
	FieldEthSrc:  "eth_src",
	FieldEthDst:  "eth_dst",
	FieldEthType: "eth_type",
	FieldIPSrc:   "ip_src",
	FieldIPDst:   "ip_dst",
	FieldIPProto: "ip_proto",
	FieldTpSrc:   "tp_src",
	FieldTpDst:   "tp_dst",
	FieldMeta:    "metadata",
	FieldCtState: "ct_state",
}

// HeaderFields is the set of real packet-header fields (everything except
// the metadata register and the conntrack state bits). The disjointness
// analysis partitions over these.
const HeaderFields = AllFields &^ (1 << FieldMeta) &^ (1 << FieldCtState)

// Width reports the bit width of field f.
func (f FieldID) Width() uint { return fieldWidths[f] }

// MaxValue reports the largest value representable in field f.
func (f FieldID) MaxValue() uint64 { return fieldMax[f] }

// Valid reports whether f names one of the NumFields header fields.
func (f FieldID) Valid() bool { return f < NumFields }

// String returns the canonical field name, e.g. "ip_dst".
func (f FieldID) String() string {
	if !f.Valid() {
		return fmt.Sprintf("field(%d)", uint8(f))
	}
	return fieldNames[f]
}

// FieldByName resolves a canonical field name to its FieldID.
func FieldByName(name string) (FieldID, bool) {
	for i, n := range fieldNames {
		if n == name {
			return FieldID(i), true
		}
	}
	return 0, false
}

// FieldSet is a bitset of FieldIDs. It is the currency of the disjointness
// analysis in the sub-traversal partitioner: two tables are disjoint when
// their FieldSets do not intersect.
type FieldSet uint16

// NewFieldSet builds a set containing the given fields.
func NewFieldSet(fields ...FieldID) FieldSet {
	var s FieldSet
	for _, f := range fields {
		s = s.Add(f)
	}
	return s
}

// Add returns s with field f included.
func (s FieldSet) Add(f FieldID) FieldSet { return s | 1<<f }

// Remove returns s with field f excluded.
func (s FieldSet) Remove(f FieldID) FieldSet { return s &^ (1 << f) }

// Contains reports whether f is in the set.
func (s FieldSet) Contains(f FieldID) bool { return s&(1<<f) != 0 }

// Union returns the set union of s and t.
func (s FieldSet) Union(t FieldSet) FieldSet { return s | t }

// Intersect returns the set intersection of s and t.
func (s FieldSet) Intersect(t FieldSet) FieldSet { return s & t }

// Overlaps reports whether s and t share at least one field.
func (s FieldSet) Overlaps(t FieldSet) bool { return s&t != 0 }

// Empty reports whether the set contains no fields.
func (s FieldSet) Empty() bool { return s == 0 }

// Len reports the number of fields in the set.
func (s FieldSet) Len() int {
	n := 0
	for v := s; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Fields returns the members of the set in canonical order.
func (s FieldSet) Fields() []FieldID {
	out := make([]FieldID, 0, s.Len())
	for f := FieldID(0); f < NumFields; f++ {
		if s.Contains(f) {
			out = append(out, f)
		}
	}
	return out
}

// String renders the set as "{ip_dst,tp_dst}".
func (s FieldSet) String() string {
	out := "{"
	first := true
	for f := FieldID(0); f < NumFields; f++ {
		if s.Contains(f) {
			if !first {
				out += ","
			}
			out += f.String()
			first = false
		}
	}
	return out + "}"
}

// AllFields is the FieldSet containing every header field.
const AllFields FieldSet = 1<<NumFields - 1
