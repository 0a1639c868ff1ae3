package flow

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseValue parses a field value in the notation produced by FormatValue:
// MACs as colon-separated hex, IPs as dotted quads, and plain decimal or
// 0x-prefixed hex for everything else.
func ParseValue(f FieldID, s string) (uint64, error) {
	switch f {
	case FieldEthSrc, FieldEthDst:
		if strings.Contains(s, ":") {
			return parseMAC(s)
		}
	case FieldIPSrc, FieldIPDst:
		if strings.Contains(s, ".") {
			return parseIPv4(s)
		}
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("flow: bad value %q for %s: %v", s, f, err)
	}
	if v > f.MaxValue() {
		return 0, fmt.Errorf("flow: value %q overflows %d-bit field %s", s, f.Width(), f)
	}
	return v, nil
}

func parseMAC(s string) (uint64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return 0, fmt.Errorf("flow: bad MAC %q", s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return 0, fmt.Errorf("flow: bad MAC %q: %v", s, err)
		}
		v = v<<8 | b
	}
	return v, nil
}

func parseIPv4(s string) (uint64, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("flow: bad IPv4 %q", s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("flow: bad IPv4 %q: %v", s, err)
		}
		v = v<<8 | b
	}
	return v, nil
}

// ParseMatch parses a comma-separated "field=value[/plen|/0xmask]" list
// into a Match. An empty string or "*" yields the match-all predicate.
//
//	ParseMatch("eth_type=0x0800,ip_dst=10.0.0.0/24,tp_dst=80")
func ParseMatch(s string) (Match, error) {
	m := MatchAll()
	s = strings.TrimSpace(s)
	if s == "" || s == "*" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Match{}, fmt.Errorf("flow: bad match term %q", part)
		}
		f, ok := FieldByName(strings.TrimSpace(kv[0]))
		if !ok {
			return Match{}, fmt.Errorf("flow: unknown field %q", kv[0])
		}
		valStr, maskStr, hasMask := strings.Cut(kv[1], "/")
		v, err := ParseValue(f, valStr)
		if err != nil {
			return Match{}, err
		}
		if !hasMask {
			m = m.WithField(f, v)
			continue
		}
		var bits uint64
		if strings.HasPrefix(maskStr, "0x") || strings.HasPrefix(maskStr, "0X") {
			bits, err = strconv.ParseUint(maskStr, 0, 64)
			if err != nil {
				return Match{}, fmt.Errorf("flow: bad mask %q: %v", maskStr, err)
			}
		} else {
			plen, err := strconv.ParseUint(maskStr, 10, 8)
			if err != nil {
				return Match{}, fmt.Errorf("flow: bad prefix length %q: %v", maskStr, err)
			}
			bits = PrefixMask(f, uint(plen))
		}
		m = m.WithMaskedField(f, v, bits)
	}
	m.NormalizeInPlace()
	return m, nil
}

// MustParseMatch is ParseMatch that panics on error; for tests and
// statically known literals.
func MustParseMatch(s string) Match {
	m, err := ParseMatch(s)
	if err != nil {
		panic(err)
	}
	return m
}

// ParseKey parses a comma-separated "field=value" list into a Key; fields
// not mentioned are zero.
func ParseKey(s string) (Key, error) {
	var k Key
	s = strings.TrimSpace(s)
	if s == "" {
		return k, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Key{}, fmt.Errorf("flow: bad key term %q", part)
		}
		f, ok := FieldByName(strings.TrimSpace(kv[0]))
		if !ok {
			return Key{}, fmt.Errorf("flow: unknown field %q", kv[0])
		}
		v, err := ParseValue(f, kv[1])
		if err != nil {
			return Key{}, err
		}
		k = k.With(f, v)
	}
	return k, nil
}

// MustParseKey is ParseKey that panics on error.
func MustParseKey(s string) Key {
	k, err := ParseKey(s)
	if err != nil {
		panic(err)
	}
	return k
}
