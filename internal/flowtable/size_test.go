package flowtable_test

import (
	"testing"
	"unsafe"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
	"gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
)

// TestPackedSizes pins what the packed 256-bit key buys every tier: a key
// is four words, a ternary match eight, and a flow-table slot with a
// three-word value one 64-byte cache line. The entry sizes move whenever
// a field is added to or dropped from them; update the pin (DESIGN.md
// "Main cache" quotes only the key's and the slot's).
func TestPackedSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"flow.Key", unsafe.Sizeof(flow.Key{}), 32},
		{"flow.Mask", unsafe.Sizeof(flow.Mask{}), 32},
		{"flow.Match", unsafe.Sizeof(flow.Match{}), 64},
		{"flowtable slot, 24-byte value", flowtable.SlotSize[[3]uint64](), 64},
		{"gigaflow.Entry", unsafe.Sizeof(gigaflow.Entry{}), 256},
		{"gigaflow.ActionRow", unsafe.Sizeof(gigaflow.ActionRow{}), 80},
		{"megaflow.Entry", unsafe.Sizeof(megaflow.Entry{}), 264},
		{"microflow.Entry", unsafe.Sizeof(microflow.Entry{}), 128},
		{"conntrack.Conn", unsafe.Sizeof(conntrack.Conn{}), 472}, // two held results of 152 bytes each
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
