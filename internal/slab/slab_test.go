package slab

import (
	"math/rand"
	"testing"
)

// find is the probe loop a tier writes over Slots: the slot holding ref
// under hash h, or nil.
func find(x *Index, h uint64, ref uint32) *Slot {
	m := x.Mask()
	for i := h & m; ; i = (i + 1) & m {
		s := &x.Slots[i]
		if s.Hash == 0 {
			return nil
		}
		if s.Hash == h && s.Ref == ref {
			return s
		}
	}
}

// TestIndexGrowsAndBackshifts drives an index sized for 8 slots through
// growth and random deletes — with hashes whose low bits, the home slot,
// take 64 values, so probe chains run long and wrap while the index is
// small — against a map of what it should hold.
// The microflow tier never grows its index; the connection table grows it
// only when unbounded, which no other test fills far enough to reach.
func TestIndexGrowsAndBackshifts(t *testing.T) {
	x := NewIndex(8)
	rng := rand.New(rand.NewSource(1))
	var want []Slot
	for ref := uint32(1); ref <= 4096; ref++ {
		h := uint64(rng.Intn(1<<20))<<32 | uint64(1+rng.Intn(64)) // 64 home slots at most: chains run long
		x.Insert(h, ref)
		want = append(want, Slot{h, ref})
		if rng.Intn(3) == 0 { // delete one at random
			i := rng.Intn(len(want))
			if s := want[i]; !x.Delete(s.Hash, s.Ref) {
				t.Fatalf("Delete(%#x, %d) missed a held slot", s.Hash, s.Ref)
			}
			want[i] = want[len(want)-1]
			want = want[:len(want)-1]
		}
	}
	if x.Delete(1, 99999) {
		t.Fatal("Delete of a slot never inserted reported success")
	}
	held := 0
	for _, s := range x.Slots {
		if s.Hash != 0 {
			held++
		}
	}
	if held != len(want) || held > len(x.Slots)*3/4 {
		t.Fatalf("%d slots held of %d, want %d and at most 3/4 full", held, len(x.Slots), len(want))
	}
	for _, s := range want {
		if find(&x, s.Hash, s.Ref) == nil {
			t.Fatalf("slot %+v lost", s)
		}
	}
}

// TestSlabChunks: refs name stable storage across chunk growth, the last
// chunk stops at the limit, and Reset hands the first record out again,
// zeroed.
func TestSlabChunks(t *testing.T) {
	s := New[[2]uint64](chunkSize + 3)
	first, ref := s.Next()
	first[0] = 7
	for i := 1; i < chunkSize+3; i++ {
		r, n := s.Next()
		r[0] = uint64(n)
	}
	if ref != 1 || s.At(1) != first || first[0] != 7 || s.Used() != chunkSize+3 {
		t.Fatalf("ref %d, first record moved or changed: %v, used %d", ref, *s.At(1), s.Used())
	}
	if n := len(s.chunks[1]); n != 3 {
		t.Fatalf("last chunk holds %d records, want 3 (the limit)", n)
	}
	if s.At(chunkSize + 3)[0] != chunkSize+3 {
		t.Fatal("record in the second chunk lost its value")
	}
	s.Reset()
	if r, n := s.Next(); n != 1 || r != first || *r != [2]uint64{} {
		t.Fatalf("after Reset: ref %d, %v", n, *r)
	}
}
