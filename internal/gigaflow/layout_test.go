package gigaflow

import (
	"testing"
	"unsafe"
)

// TestEntryLayout pins the LTM entry's cache-line layout, the one Entry's
// comment describes: the classifier node leads the entry, which entryOf's
// conversion from node to entry relies on; every field a terminal hit
// writes in its path's entries (the counters, the table, the LRU links),
// and the conntrack epoch the benchmark's shadow chain checks on a hit,
// sit in one 64-byte line; and the entry is a whole number of 64-byte
// lines. The allocator's size class for it places every entry on a
// 64-byte boundary, so each of those lines is one cache line; the last
// check holds the allocator to that.
func TestEntryLayout(t *testing.T) {
	var e Entry
	if off := unsafe.Offsetof(e.Entry); off != 0 {
		t.Errorf("the classifier node is at byte %d, want byte 0", off)
	}
	line := unsafe.Offsetof(e.Hits) / 64
	for _, f := range []struct {
		name       string
		off, bytes uintptr
	}{
		{"Hits", unsafe.Offsetof(e.Hits), unsafe.Sizeof(e.Hits)},
		{"LastHit", unsafe.Offsetof(e.LastHit), unsafe.Sizeof(e.LastHit)},
		{"table", unsafe.Offsetof(e.table), unsafe.Sizeof(e.table)},
		{"prev", unsafe.Offsetof(e.prev), unsafe.Sizeof(e.prev)},
		{"next", unsafe.Offsetof(e.next), unsafe.Sizeof(e.next)},
		{"CtEpoch", unsafe.Offsetof(e.CtEpoch), unsafe.Sizeof(e.CtEpoch)},
	} {
		if f.off/64 != line || (f.off+f.bytes-1)/64 != line {
			t.Errorf("%s occupies bytes %d–%d, want it within line %d (bytes %d–%d)", f.name, f.off, f.off+f.bytes-1, line, line*64, line*64+63)
		}
	}
	if size := unsafe.Sizeof(e); size%64 != 0 {
		t.Errorf("Entry is %d bytes, not a whole number of 64-byte lines", size)
	}
	layoutSink = make([]*Entry, 256) // escapes, so the entries are heap objects
	for i := range layoutSink {
		layoutSink[i] = &Entry{}
		if addr := uintptr(unsafe.Pointer(layoutSink[i])); addr%64 != 0 {
			t.Fatalf("entry %d allocated at %#x, not on a 64-byte boundary", i, addr)
		}
	}
	layoutSink = nil
}

var layoutSink []*Entry
