package gigaflow

import (
	"testing"
	"unsafe"
)

// TestEntryLayout pins the LTM entry's cache-line layout, the one Entry's
// comment describes: the rewrite a hit applies fills line 0, every other
// field find, touch and DropStale read or write sits in line 1, and the
// entry is a whole number of 64-byte lines. The allocator's size class for
// it places every entry on a 64-byte boundary, so each of those lines is
// one cache line; the last check holds the allocator to that.
func TestEntryLayout(t *testing.T) {
	var e Entry
	if off, size := unsafe.Offsetof(e.Commit), unsafe.Sizeof(e.Commit); off != 0 || size != 64 {
		t.Errorf("Commit is at byte %d, %d bytes; want byte 0, 64 bytes", off, size)
	}
	for _, f := range []struct {
		name       string
		off, bytes uintptr
	}{
		{"nextSlot", unsafe.Offsetof(e.nextSlot), unsafe.Sizeof(e.nextSlot)},
		{"slot", unsafe.Offsetof(e.slot), unsafe.Sizeof(e.slot)},
		{"Terminal", unsafe.Offsetof(e.Terminal), unsafe.Sizeof(e.Terminal)},
		{"Verdict", unsafe.Offsetof(e.Verdict), unsafe.Sizeof(e.Verdict)},
		{"Hits", unsafe.Offsetof(e.Hits), unsafe.Sizeof(e.Hits)},
		{"LastHit", unsafe.Offsetof(e.LastHit), unsafe.Sizeof(e.LastHit)},
		{"table", unsafe.Offsetof(e.table), unsafe.Sizeof(e.table)},
		{"prev", unsafe.Offsetof(e.prev), unsafe.Sizeof(e.prev)},
		{"next", unsafe.Offsetof(e.next), unsafe.Sizeof(e.next)},
		{"CtEpoch", unsafe.Offsetof(e.CtEpoch), unsafe.Sizeof(e.CtEpoch)},
	} {
		if f.off < 64 || f.off+f.bytes > 128 {
			t.Errorf("%s occupies bytes %d–%d, want it within 64–127", f.name, f.off, f.off+f.bytes-1)
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
