package flow

import (
	"fmt"
	"strings"
)

// Mask is a per-bit wildcard: a set bit means the corresponding key bit is
// significant (matched); a clear bit is wildcarded. Its words are packed
// like a Key's, so a field's bits are read and written through Get and
// the With family. Masks are comparable, which TSS exploits to group rules
// into tuples by identical mask.
type Mask [NumWords]uint64

// EmptyMask matches nothing about a packet — every bit wildcarded.
var EmptyMask Mask

// FullMask returns the mask with every bit of every field significant. The
// fields tile all NumWords words, so that is every bit.
func FullMask() Mask {
	return Mask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// ExactFields returns a mask that fully matches the given fields and
// wildcards the rest.
func ExactFields(fields ...FieldID) Mask {
	var m Mask
	for _, f := range fields {
		m.OrField(f, f.MaxValue())
	}
	return m
}

// PrefixMask returns the mask selecting the top plen bits of field f
// (longest-prefix-match style; meaningful for IP fields but defined for
// any field).
func PrefixMask(f FieldID, plen uint) uint64 {
	w := f.Width()
	if plen >= w {
		return f.MaxValue()
	}
	if plen == 0 {
		return 0
	}
	return ((uint64(1) << plen) - 1) << (w - plen)
}

// Get returns the mask bits of field f.
func (m Mask) Get(f FieldID) uint64 {
	return m[fieldWord[f]&(NumWords-1)] >> fieldShift[f] & fieldMax[f]
}

// With returns a copy of m with field f's mask set to bits (truncated to
// the field width).
func (m Mask) With(f FieldID, bits uint64) Mask {
	w, s := fieldWord[f]&(NumWords-1), fieldShift[f]
	m[w] = m[w]&^(fieldMax[f]<<s) | (bits&fieldMax[f])<<s
	return m
}

// WithField returns a copy of m with field f fully significant.
func (m Mask) WithField(f FieldID) Mask {
	m.OrField(f, f.MaxValue())
	return m
}

// OrField makes the given bits of field f significant in place (bits
// beyond the field width are ignored): one OR into the word holding f.
//
//gf:hotpath
func (m *Mask) OrField(f FieldID, bits uint64) {
	m[fieldWord[f]&(NumWords-1)] |= (bits & fieldMax[f]) << fieldShift[f]
}

// Union returns the bitwise OR of the two masks: significant anywhere
// either is. This is the ω_k computation of §4.2.3 (union of the W_i of a
// sub-traversal's tables).
func (m Mask) Union(o Mask) Mask {
	var out Mask
	for i := range m {
		out[i] = m[i] | o[i]
	}
	return out
}

// IsEmpty reports whether the mask wildcards everything.
func (m Mask) IsEmpty() bool { return m == EmptyMask }

// Fields returns the set of fields with at least one significant bit.
func (m Mask) Fields() FieldSet {
	var s FieldSet
	for f := FieldID(0); f < NumFields; f++ {
		if m.Get(f) != 0 {
			s = s.Add(f)
		}
	}
	return s
}

// Covers reports whether every significant bit of o is also significant in
// m (m is at least as specific as o on o's bits).
func (m Mask) Covers(o Mask) bool {
	for i := range m {
		if o[i]&^m[i] != 0 {
			return false
		}
	}
	return true
}

// BitCount returns the total number of significant bits across all fields.
func (m Mask) BitCount() int {
	n := 0
	for _, bits := range m {
		for v := bits; v != 0; v &= v - 1 {
			n++
		}
	}
	return n
}

// String renders the mask as "field/0x.." pairs for significant fields, or
// "*" when fully wildcarded.
func (m Mask) String() string {
	if m.IsEmpty() {
		return "*"
	}
	var parts []string
	for f := FieldID(0); f < NumFields; f++ {
		bits := m.Get(f)
		if bits == 0 {
			continue
		}
		if bits == f.MaxValue() {
			parts = append(parts, f.String())
		} else {
			parts = append(parts, fmt.Sprintf("%s/0x%x", f, bits))
		}
	}
	return strings.Join(parts, ",")
}
