// Package slab is the storage layout of the exact-match tiers, the
// microflow cache and the connection table: fixed-size records kept in
// chunks allocated as the slab fills, so a record's address never
// changes, and named by uint32 ref (position plus one; zero names none);
// found through a hash-only open-addressing index of {hash, ref} slots,
// so a key is stored once, in its record. Each tier threads its own lists
// through its records by ref and keeps its own probe loop over
// Index.Slots, since only the tier can compare its keys; insertion,
// deletion and growth live here, once. The LTM cache's action table
// (internal/gigaflow) finds its rows through an Index too; its rows are a
// flat slice the hit path indexes directly.
package slab

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // records per chunk
)

// Slab is chunked storage for at most limit records of type T (0 is no
// limit).
type Slab[T any] struct {
	chunks [][]T
	used   uint32 // records handed out at least once: refs 1..used
	limit  int
}

// New returns an empty slab of at most limit records (0 is no limit).
func New[T any](limit int) Slab[T] { return Slab[T]{limit: limit} }

// At resolves a non-zero ref to its record.
//
//gf:hotpath
func (s *Slab[T]) At(ref uint32) *T {
	i := ref - 1
	return &s.chunks[i>>chunkShift][i&(chunkSize-1)]
}

// Used reports how many records have been handed out since the slab was
// made or last reset: refs 1 to Used name storage.
func (s *Slab[T]) Used() uint32 { return s.used }

// Next hands out the next never-used record; storage the tier has freed
// is the tier's to reuse first.
//
//gf:hotpath
func (s *Slab[T]) Next() (*T, uint32) {
	if int(s.used) == len(s.chunks)*chunkSize {
		s.grow()
	}
	s.used++
	return s.At(s.used), s.used
}

// grow appends one chunk, cut short at the limit.
//
//gf:hotpath-safe runs once per 256 records while a slab fills up to its limit, never again until Shrink has released chunks and Raise lets it refill them
func (s *Slab[T]) grow() {
	n := chunkSize
	if s.limit > 0 {
		n = min(n, s.limit-len(s.chunks)*chunkSize)
	}
	s.chunks = append(s.chunks, make([]T, n))
}

// Reset zeroes and forgets every record handed out, keeping the chunks.
func (s *Slab[T]) Reset() {
	for _, ch := range s.chunks[:(int(s.used)+chunkSize-1)>>chunkShift] {
		clear(ch)
	}
	s.used = 0
}

// Chunks reports how many chunks the slab holds.
func (s *Slab[T]) Chunks() int { return len(s.chunks) }

// Shrink resets the slab (see Reset) and releases every chunk past those
// that hold its first n records, whose whole chunks become its limit, so
// Raise can later extend it chunk after chunk as before.
func (s *Slab[T]) Shrink(n int) {
	keep := (n + chunkSize - 1) >> chunkShift
	for _, ch := range s.chunks[:min(keep, (int(s.used)+chunkSize-1)>>chunkShift)] {
		clear(ch)
	}
	if keep < len(s.chunks) {
		clear(s.chunks[keep:]) // the chunks array must not keep them reachable
		s.chunks = s.chunks[:keep]
	}
	s.used, s.limit = 0, keep<<chunkShift
}

// Raise lifts the slab's limit to n records (0 is no limit), keeping refs.
func (s *Slab[T]) Raise(n int) { s.limit = n }

// Slot is one cell of an Index; Hash 0 marks it empty, so no key may hash
// to 0.
type Slot struct {
	Hash uint64
	Ref  uint32
}

// Index is an open-addressing table of Slots: a power-of-two slot count,
// linear probing from Hash & Mask(), at most 3/4 full.
type Index struct {
	Slots []Slot
	count int
}

// NewIndex returns an empty index with room for n slots without growth.
func NewIndex(n int) Index {
	size := 8
	for size*3/4 < n {
		size <<= 1
	}
	return Index{Slots: make([]Slot, size)}
}

// Mask is the slot count minus one.
//
//gf:hotpath
func (x *Index) Mask() uint64 { return uint64(len(x.Slots) - 1) }

// Insert adds the slot {h, ref}, doubling the index first when it is 3/4
// full.
//
//gf:hotpath
func (x *Index) Insert(h uint64, ref uint32) {
	if x.count >= len(x.Slots)*3/4 {
		x.grow()
	}
	m := x.Mask()
	i := h & m
	for x.Slots[i].Hash != 0 {
		i = (i + 1) & m
	}
	x.Slots[i] = Slot{h, ref}
	x.count++
}

// grow doubles the slot array, relocating every slot by its stored hash.
//
//gf:hotpath-safe an index sized for what it holds never grows; an unbounded one doubles, once per as many inserts again
func (x *Index) grow() {
	old := x.Slots
	x.Slots, x.count = make([]Slot, 2*len(old)), 0
	for _, s := range old {
		if s.Hash != 0 {
			x.Insert(s.Hash, s.Ref)
		}
	}
}

// Delete removes the slot {h, ref} and reports whether it was there.
// Removal backshifts the probe chain: every displaced slot after the hole
// is moved back unless that would skip past its home slot, so no
// tombstones are left behind. flowtable.Table.Delete runs the same loop
// over slots that carry their keys, and the wrap-around condition
// (j-home)&m >= (j-i)&m must stay the same in both — fix one, fix the
// other. FuzzMicroflowOps and FuzzEpochValid guard this copy,
// FuzzOpsDifferential that one.
//
//gf:hotpath
func (x *Index) Delete(h uint64, ref uint32) bool {
	m := x.Mask()
	i := h & m
	for s := x.Slots[i]; s.Hash != h || s.Ref != ref; s = x.Slots[i] {
		if s.Hash == 0 {
			return false
		}
		i = (i + 1) & m
	}
	for j := i; ; {
		j = (j + 1) & m
		s := x.Slots[j]
		if s.Hash == 0 {
			break
		}
		if home := s.Hash & m; (j-home)&m >= (j-i)&m {
			x.Slots[i] = s
			i = j
		}
	}
	x.Slots[i] = Slot{}
	x.count--
	return true
}

// Clear empties the index, keeping its size.
func (x *Index) Clear() {
	clear(x.Slots)
	x.count = 0
}
