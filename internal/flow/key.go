package flow

import (
	"fmt"
	"strings"
)

// Key is a concrete flow signature: one value per header field, packed at
// fixed bit offsets into NumWords words (fields.go's layout). A word holds
// several fields, so a field is read and written only through Get and Set;
// whole-key work (Apply, Matches, hashing a key's words) goes word by word.
// Keys are comparable and hashable (usable directly as Go map keys), which
// the exact-match Microflow cache and the TSS hash buckets rely on.
type Key [NumWords]uint64

// Get returns the value of field f: a shift and a mask of the word
// holding it.
//
//gf:hotpath
func (k Key) Get(f FieldID) uint64 {
	return k[fieldWord[f]&(NumWords-1)] >> fieldShift[f] & fieldMax[f]
}

// With returns a copy of k with field f set to v (truncated to the field
// width).
func (k Key) With(f FieldID, v uint64) Key {
	k.Set(f, v)
	return k
}

// Set assigns field f in place (truncated to the field width). It is the
// mutating twin of With for builders on the packet fast path, where
// copying the whole key per field would be waste.
//
//gf:hotpath
func (k *Key) Set(f FieldID, v uint64) {
	k.SetMasked(f, v, fieldMax[f])
}

// FlowHash mixes the 5-tuple (addresses, protocol, ports) into a 64-bit
// fingerprint: multiply-xor over the five fields with a murmur-style
// finisher so both the high bits (flight-record fingerprints) and the
// low bits (worker-shard modulo) are well distributed. A handful of
// arithmetic ops — cheap enough to call per packet on the fast path.
//
//gf:hotpath
func (k *Key) FlowHash() uint64 {
	const prime = 0x100000001b3
	h := uint64(0x9e3779b97f4a7c15)
	h = (h ^ k.Get(FieldIPSrc)) * prime
	h = (h ^ k.Get(FieldIPDst)) * prime
	h = (h ^ k.Get(FieldIPProto)) * prime
	h = (h ^ k.Get(FieldTpSrc)) * prime
	h = (h ^ k.Get(FieldTpDst)) * prime
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// SymHash is FlowHash made invariant under endpoint reversal: both
// directions of a connection hash identically, so conntrack-mode
// sharding lands a conversation's packets on one worker. The (IP, port)
// endpoint pair is canonicalized by ordering before hashing.
//
//gf:hotpath
func (k *Key) SymHash() uint64 {
	return SymHash5(k.Get(FieldIPSrc), k.Get(FieldIPDst), k.Get(FieldIPProto), k.Get(FieldTpSrc), k.Get(FieldTpDst))
}

// SymHash5 is the symmetric 5-tuple mix backing Key.SymHash, factored
// out so the wire-bytes RSS extractor (internal/packet.RSSTuple and
// Tuple.SymHash) produces bit-identical shard assignments without
// building a Key: any caller
// holding the five tuple values — from a decoded key or straight from
// L3/L4 header words — lands a flow's two directions on the same shard.
//
//gf:hotpath
func SymHash5(srcIP, dstIP, proto, srcPort, dstPort uint64) uint64 {
	a, ap := srcIP, srcPort
	b, bp := dstIP, dstPort
	if a > b || (a == b && ap > bp) {
		a, b, ap, bp = b, a, bp, ap
	}
	const prime = 0x100000001b3
	h := uint64(0x9e3779b97f4a7c15)
	h = (h ^ a) * prime
	h = (h ^ b) * prime
	h = (h ^ proto) * prime
	h = (h ^ ap) * prime
	h = (h ^ bp) * prime
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// WithMasked returns a copy of k where the bits of f selected by mask are
// replaced by the corresponding bits of v.
func (k Key) WithMasked(f FieldID, v, mask uint64) Key {
	k.SetMasked(f, v, mask)
	return k
}

// SetMasked is WithMasked in place: one read-modify-write of the word
// holding f.
//
//gf:hotpath
func (k *Key) SetMasked(f FieldID, v, mask uint64) {
	w, s := fieldWord[f]&(NumWords-1), fieldShift[f]
	mask &= fieldMax[f]
	k[w] = k[w]&^(mask<<s) | (v&mask)<<s
}

// Apply returns k with every field ANDed against the mask, i.e. the
// canonical representative of k under m.
func (k Key) Apply(m Mask) Key {
	var out Key
	for i := range k {
		out[i] = k[i] & m[i]
	}
	return out
}

// String renders the key as a comma-separated field=value list with
// MAC/IP-style formatting for address fields.
func (k Key) String() string {
	parts := make([]string, 0, NumFields)
	for f := FieldID(0); f < NumFields; f++ {
		parts = append(parts, fmt.Sprintf("%s=%s", f, FormatValue(f, k.Get(f))))
	}
	return strings.Join(parts, ",")
}

// FormatValue renders a field value in its conventional notation: MACs as
// colon-separated hex, IPs as dotted quads, eth_type as hex, and everything
// else as decimal.
func FormatValue(f FieldID, v uint64) string {
	switch f {
	case FieldEthSrc, FieldEthDst:
		return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case FieldIPSrc, FieldIPDst:
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case FieldEthType:
		return fmt.Sprintf("0x%04x", v)
	default:
		return fmt.Sprintf("%d", v)
	}
}
