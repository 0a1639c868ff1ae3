package flow

// Rewrite is a commit in the form a cache entry carries it: one masked
// overwrite of the key. Every bit Mask selects is set to Val's bit there,
// every other bit is left alone, and Val holds nothing outside Mask, so two
// rewrites that do the same thing are equal under ==. It is the action data
// α of an LTM entry — a value-plus-mask set, like OVS's
// OVS_ACTION_ATTR_SET_MASKED — applied in four word operations where a
// set-field action list walks one action at a time.
type Rewrite struct {
	Mask Mask
	Val  Key
}

// Apply rewrites *k in place: four words, no branches.
//
//gf:hotpath
func (r *Rewrite) Apply(k *Key) {
	k[0] = k[0]&^r.Mask[0] | r.Val[0]
	k[1] = k[1]&^r.Mask[1] | r.Val[1]
	k[2] = k[2]&^r.Mask[2] | r.Val[2]
	k[3] = k[3]&^r.Mask[3] | r.Val[3]
}

// Actions lists the rewrite as set-field actions, one per field it writes,
// in field order: the action list ApplyTo would apply to the same effect,
// nil when the rewrite writes nothing.
func (r *Rewrite) Actions() []Action {
	var out []Action
	for f := FieldID(0); f < NumFields; f++ {
		if bits := r.Mask.Get(f); bits != 0 {
			out = append(out, SetFieldMasked(f, r.Val.Get(f), bits))
		}
	}
	return out
}
