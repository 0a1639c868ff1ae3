package flow

import "testing"

// FuzzParseMatch checks that ParseMatch never panics and that anything it
// accepts survives a format/parse round trip as an equal predicate.
func FuzzParseMatch(f *testing.F) {
	for _, seed := range []string{
		"",
		"*",
		"eth_type=0x0800,ip_dst=10.0.0.0/24",
		"eth_src=aa:bb:cc:dd:ee:ff,tp_dst=443",
		"ip_dst=10.0.0.1/0xff00ff00",
		"in_port=3,ip_proto=6,metadata=7",
		"ip_dst=999.0.0.0/24",
		"tp_dst=80/",
		"=,=,=",
		"ip_dst=10.0.0.0/24,ip_dst=10.0.0.0/16",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMatch(s)
		if err != nil {
			return
		}
		rt, err := ParseMatch(m.String())
		if err != nil {
			t.Fatalf("accepted %q but cannot re-parse its String %q: %v", s, m.String(), err)
		}
		if !m.EqualTo(&rt) {
			t.Fatalf("round trip changed %q: %q -> %q", s, m.String(), rt.String())
		}
	})
}

// FuzzParseKey checks that ParseKey never panics and round-trips.
func FuzzParseKey(f *testing.F) {
	for _, seed := range []string{
		"",
		"ip_dst=10.0.0.1,tp_dst=80",
		"eth_src=aa:bb:cc:dd:ee:ff",
		"metadata=65535",
		"ip_proto=300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		if err != nil {
			return
		}
		rt, err := ParseKey(k.String())
		if err != nil {
			t.Fatalf("accepted %q but cannot re-parse its String %q: %v", s, k.String(), err)
		}
		if k != rt {
			t.Fatalf("round trip changed %q: %s -> %s", s, k, rt)
		}
	})
}

// fold is the rewrite a set-field action list amounts to: each action
// overwrites its bits of the mask and the value, so a later action on the
// same bits wins, as it does under ApplyTo.
func fold(acts []Action) Rewrite {
	var r Rewrite
	for _, a := range acts {
		r.Mask.OrField(a.Field, a.Mask)
		r.Val.SetMasked(a.Field, a.Value, a.Mask)
	}
	return r
}

// FuzzRewrite folds a set-field action list read off the tape (per action:
// a field byte whose top bit asks for a masked set, then eight bytes of
// value and, for a masked set, eight of mask) into a Rewrite, and checks
// that Apply does to the key what ApplyTo does with the list, that Val
// holds nothing outside Mask, and that Actions lists a rewrite that folds
// back to itself and applies the same way.
func FuzzRewrite(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), []byte{})
	f.Add(^uint64(0), uint64(1), uint64(2), uint64(3),
		[]byte{byte(FieldIPDst), 10, 0, 0, 1, 0, 0, 0, 0})
	f.Add(uint64(0x1234), ^uint64(0), uint64(0), uint64(0xdeadbeef),
		[]byte{0x80 | byte(FieldEthDst), 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0x0f, 0xf0, 0, 0, 0, 0, 0, 0,
			byte(FieldEthDst), 1, 2, 3, 4, 5, 6, 7, 8,
			0x80 | byte(FieldTpSrc), 0x50, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(7), uint64(7), uint64(7), uint64(7),
		[]byte{byte(FieldCtState), 0xff, 0, 0, 0, 0, 0, 0, 0, byte(FieldInPort), 3, 0, 0, 0, 0, 0, 0, 0,
			0x80 | byte(FieldMeta), 0xaa, 0xaa, 0, 0, 0, 0, 0, 0, 0x0f, 0x0f, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, k0, k1, k2, k3 uint64, tape []byte) {
		word := func(b []byte) uint64 {
			var v uint64
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			return v
		}
		var acts []Action
		for len(tape) >= 9 {
			fld, masked := FieldID(tape[0]&0x7f)%NumFields, tape[0]&0x80 != 0
			if masked && len(tape) < 17 {
				break
			}
			if masked {
				acts = append(acts, SetFieldMasked(fld, word(tape[1:]), word(tape[9:])))
				tape = tape[17:]
			} else {
				acts = append(acts, SetField(fld, word(tape[1:])))
				tape = tape[9:]
			}
		}
		r, k := fold(acts), Key{k0, k1, k2, k3}
		got, want := k, k
		r.Apply(&got)
		ApplyTo(&want, acts)
		if got != want {
			t.Fatalf("%v: Apply(%s) = %s, ApplyTo %s", acts, k, got, want)
		}
		for w := range r.Val {
			if r.Val[w]&^r.Mask[w] != 0 {
				t.Fatalf("%v: Val word %d has bits outside Mask: %#x / %#x", acts, w, r.Val[w], r.Mask[w])
			}
		}
		listed := r.Actions()
		if back := fold(listed); back != r {
			t.Fatalf("%v: Actions() = %v folds to %+v, want %+v", acts, listed, back, r)
		}
		again := k
		if ApplyTo(&again, listed); again != got {
			t.Fatalf("%v: ApplyTo(%s, Actions()) = %s, Apply %s", acts, k, again, got)
		}
	})
}
