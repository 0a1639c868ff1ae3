package flow

import "fmt"

// Match is a ternary predicate over flow keys: a key matches when it agrees
// with Key on every significant bit of Mask. Matches are stored normalized
// (Key ANDed with Mask) so that equal predicates compare equal.
type Match struct {
	Key  Key
	Mask Mask
}

// NewMatch builds a normalized match from a key and a mask.
func NewMatch(k Key, m Mask) Match {
	return Match{Key: k.Apply(m), Mask: m}
}

// ExactMatch builds a match requiring every field of k exactly.
func ExactMatch(k Key) Match { return Match{Key: k, Mask: FullMask()} }

// MatchAll is the fully wildcarded match.
func MatchAll() Match { return Match{} }

// Matches reports whether k satisfies the predicate.
func (m Match) Matches(k Key) bool {
	for i := range k {
		if (k[i]^m.Key[i])&m.Mask[i] != 0 {
			return false
		}
	}
	return true
}

// Normalize returns m with its key canonicalized under its mask.
func (m Match) Normalize() Match { return NewMatch(m.Key, m.Mask) }

// NormalizeInPlace is Normalize on the match itself: the form the install
// paths use, where a 176-byte predicate travels by pointer.
func (m *Match) NormalizeInPlace() {
	for i := range m.Key {
		m.Key[i] &= m.Mask[i]
	}
}

// Fields returns the set of fields the match constrains.
func (m Match) Fields() FieldSet { return m.Mask.Fields() }

// WithField returns m additionally requiring field f to equal v exactly.
func (m Match) WithField(f FieldID, v uint64) Match {
	m.Key = m.Key.With(f, v)
	m.Mask = m.Mask.WithField(f)
	return m
}

// WithMaskedField returns m additionally requiring the bits of f under mask
// to equal the corresponding bits of v.
func (m Match) WithMaskedField(f FieldID, v, mask uint64) Match {
	m.Mask = m.Mask.With(f, m.Mask[f]|mask&f.MaxValue())
	m.Key = m.Key.WithMasked(f, v&mask, mask)
	return m
}

// Subsumes reports whether every key matched by o is also matched by m
// (m is the more general predicate). Requires both normalized.
func (m Match) Subsumes(o Match) bool {
	if !o.Mask.Covers(m.Mask) {
		return false
	}
	for i := range m.Key {
		if (m.Key[i]^o.Key[i])&m.Mask[i] != 0 {
			return false
		}
	}
	return true
}

// Overlaps reports whether some key satisfies both m and o: on every bit
// significant to both, the two keys must agree.
func (m Match) Overlaps(o Match) bool {
	for i := range m.Key {
		common := m.Mask[i] & o.Mask[i]
		if (m.Key[i]^o.Key[i])&common != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two matches are identical predicates; neither
// needs to be normalized.
func (m Match) Equal(o Match) bool { return m.EqualTo(&o) }

// EqualTo is Equal with both predicates by pointer.
func (m *Match) EqualTo(o *Match) bool {
	for i := range m.Mask {
		if m.Mask[i] != o.Mask[i] || (m.Key[i]^o.Key[i])&m.Mask[i] != 0 {
			return false
		}
	}
	return true
}

// String renders the match as "field=value[/mask]" pairs, or "*" when it
// matches everything.
func (m Match) String() string {
	if m.Mask.IsEmpty() {
		return "*"
	}
	out := ""
	for f := FieldID(0); f < NumFields; f++ {
		bits := m.Mask[f]
		if bits == 0 {
			continue
		}
		if out != "" {
			out += ","
		}
		if bits == f.MaxValue() {
			out += fmt.Sprintf("%s=%s", f, FormatValue(f, m.Key[f]))
		} else if (f == FieldIPSrc || f == FieldIPDst) && isPrefix(bits, f.Width()) {
			out += fmt.Sprintf("%s=%s/%d", f, FormatValue(f, m.Key[f]), popcount(bits))
		} else {
			out += fmt.Sprintf("%s=%s/0x%x", f, FormatValue(f, m.Key[f]), bits)
		}
	}
	return out
}

// isPrefix reports whether bits is a contiguous run of ones anchored at the
// top of a w-bit field.
func isPrefix(bits uint64, w uint) bool {
	n := popcount(bits)
	return bits == PrefixMask0(w, uint(n))
}

// PrefixMask0 returns the top-plen-bits mask for a w-bit field.
func PrefixMask0(w, plen uint) uint64 {
	if plen >= w {
		if w >= 64 {
			return ^uint64(0)
		}
		return (uint64(1) << w) - 1
	}
	if plen == 0 {
		return 0
	}
	return ((uint64(1) << plen) - 1) << (w - plen)
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
