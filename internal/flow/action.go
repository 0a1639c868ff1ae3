package flow

import "fmt"

// ActionType discriminates the kinds of actions a rule can carry.
type ActionType uint8

const (
	// ActionSetField rewrites (part of) a header field.
	ActionSetField ActionType = iota
	// ActionOutput forwards the packet to a port and terminates processing.
	ActionOutput
	// ActionDrop discards the packet and terminates processing.
	ActionDrop
	// ActionDNAT rewrites the destination of a tracked connection to a
	// backend drawn from the NAT pool named by Value. The binding is chosen
	// once per connection and resolved into concrete set-field rewrites by
	// the conntrack layer during traversal; without a resolver the action
	// is a no-op, like any unknown action.
	ActionDNAT
	// ActionSNAT rewrites the source of a tracked connection from the NAT
	// pool named by Value, resolved like ActionDNAT.
	ActionSNAT
	// ActionCtNAT applies the connection's recorded NAT binding in the
	// direction the packet travels: reply packets get the inverse rewrite
	// (un-DNAT the source / un-SNAT the destination).
	ActionCtNAT
)

// Action is one packet-processing primitive. Actions are plain comparable
// values so that rule-generation code can diff and deduplicate them.
type Action struct {
	Type  ActionType
	Field FieldID // ActionSetField only
	Value uint64  // SetField value, or Output port number
	Mask  uint64  // SetField bit mask; full field width for a whole-field set
}

// SetField builds an action rewriting all of field f to v.
func SetField(f FieldID, v uint64) Action {
	return Action{Type: ActionSetField, Field: f, Value: v & f.MaxValue(), Mask: f.MaxValue()}
}

// SetFieldMasked builds an action rewriting only the bits of f under mask.
func SetFieldMasked(f FieldID, v, mask uint64) Action {
	mask &= f.MaxValue()
	return Action{Type: ActionSetField, Field: f, Value: v & mask, Mask: mask}
}

// Output builds an action forwarding the packet to port.
func Output(port uint16) Action {
	return Action{Type: ActionOutput, Value: uint64(port)}
}

// Drop builds an action discarding the packet.
func Drop() Action { return Action{Type: ActionDrop} }

// DNAT builds an action rewriting the destination to a backend from NAT
// pool `pool`.
func DNAT(pool uint16) Action {
	return Action{Type: ActionDNAT, Value: uint64(pool)}
}

// SNAT builds an action rewriting the source from NAT pool `pool`.
func SNAT(pool uint16) Action {
	return Action{Type: ActionSNAT, Value: uint64(pool)}
}

// CtNAT builds an action applying the tracked connection's NAT binding in
// the packet's direction (the reverse rewrite for reply packets).
func CtNAT() Action { return Action{Type: ActionCtNAT} }

// String renders the action in OVS-like notation.
func (a Action) String() string {
	switch a.Type {
	case ActionSetField:
		if a.Mask == a.Field.MaxValue() {
			return fmt.Sprintf("set(%s=%s)", a.Field, FormatValue(a.Field, a.Value))
		}
		return fmt.Sprintf("set(%s=%s/0x%x)", a.Field, FormatValue(a.Field, a.Value), a.Mask)
	case ActionOutput:
		return fmt.Sprintf("output(%d)", a.Value)
	case ActionDrop:
		return "drop"
	case ActionDNAT:
		return fmt.Sprintf("dnat(%d)", a.Value)
	case ActionSNAT:
		return fmt.Sprintf("snat(%d)", a.Value)
	case ActionCtNAT:
		return "ct_nat"
	default:
		return fmt.Sprintf("action(%d)", a.Type)
	}
}

// VerdictKind classifies the fate of a packet after executing an action
// list.
type VerdictKind uint8

const (
	// VerdictNone means processing continues (no terminal action seen).
	VerdictNone VerdictKind = iota
	// VerdictOutput means the packet was forwarded.
	VerdictOutput
	// VerdictDrop means the packet was discarded.
	VerdictDrop
)

// Verdict is the terminal outcome of processing, if any.
type Verdict struct {
	Kind VerdictKind
	Port uint16 // valid when Kind == VerdictOutput
}

// Terminal reports whether the verdict ends packet processing.
func (v Verdict) Terminal() bool { return v.Kind != VerdictNone }

// String renders the verdict.
func (v Verdict) String() string {
	switch v.Kind {
	case VerdictOutput:
		return fmt.Sprintf("output(%d)", v.Port)
	case VerdictDrop:
		return "drop"
	default:
		return "continue"
	}
}

// Apply executes the action list against key k, returning the rewritten key
// and the terminal verdict (if any). Actions after a terminal action are
// ignored, mirroring switch semantics.
//
//gf:hotpath
func Apply(k Key, actions []Action) (Key, Verdict) {
	v := ApplyTo(&k, actions)
	return k, v
}

// ApplyTo is Apply rewriting *k in place: the form the pipeline walk uses
// on each step's rule actions, where a fresh copy per action would be
// waste. A cache entry's commit is a Rewrite instead.
//
//gf:hotpath
func ApplyTo(k *Key, actions []Action) Verdict {
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case ActionSetField:
			k.SetMasked(a.Field, a.Value, a.Mask)
		case ActionOutput:
			return Verdict{Kind: VerdictOutput, Port: uint16(a.Value)}
		case ActionDrop:
			return Verdict{Kind: VerdictDrop}
		}
	}
	return Verdict{}
}

// ActionsEqual reports whether two action lists are element-wise identical.
func ActionsEqual(a, b []Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
