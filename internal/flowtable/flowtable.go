// Package flowtable provides the specialized hash table behind every
// matching tier: a stdlib-only, open-addressing store keyed by flow.Key
// under a fixed per-table wildcard mask.
//
// Every wildcard tier of the cache hierarchy — the Megaflow TSS
// classifier, the Gigaflow LTM's per-tag classifiers, the pipeline's own
// tables — ultimately answers the same question: "which stored key equals
// this packet's key on the bits my mask cares about?" (The exact-match
// tiers — the microflow cache and the connection table — keep hash-only
// indexes of their own, from internal/slab, and borrow only the hash.)
// A Go map answers it the expensive way: copy the 32-byte key through
// Key.Apply(mask), then hash all four words again inside the map runtime. This table answers it with a
// fused mask+hash probe: the indices of the mask's non-zero words are
// precomputed at construction, and one pass over only those words masks
// the probe key and folds it through an inline wyhash-style multiply mix
// at the same time; a candidate whose stored hash matches is compared on
// those words alone.
//
// Layout and policy:
//
//   - power-of-two slot count with linear probing;
//   - the 64-bit hash is stored alongside each entry, so probe collisions
//     are rejected on one word compare before any key words are touched
//     (hash 0 marks an empty slot; computed hashes are never 0);
//   - deletion backshifts the probe chain (no tombstones), so lookup cost
//     never degrades under churn and load factor is exact;
//   - growth doubles at 3/4 load and relocates by stored hash — keys are
//     never rehashed after insert;
//   - iteration (Iter/Range) walks slots in index order, which is a pure
//     function of the operation history: the hash is seedless and
//     deterministic, so two tables driven through the same sequence of
//     inserts and deletes iterate identically, run after run. Expiry and
//     revalidation sweeps built on it stay replay-deterministic.
//
// Lookup is allocation-free (enforced by gflint's hotalloc analyzer via
// the //gf:hotpath annotations) and writes nothing, so a table nobody is
// changing may be read from many goroutines at once — the pipeline every
// service shard walks. Put and Delete need the table to themselves.
package flowtable

import (
	"math/bits"

	"gigaflow/internal/flow"
)

const (
	// hashInit seeds the word fold (the 64-bit golden ratio); it also
	// substitutes for a computed hash of zero so slot hashes are never 0.
	hashInit = 0x9e3779b97f4a7c15
	// hashMul is the wyhash primary multiplier, xored into each masked
	// word before the 128-bit multiply fold.
	hashMul = 0xa0761d6478bd642f

	// minSlots is the smallest table; small enough that empty tuples stay
	// cheap, large enough to avoid immediate growth.
	minSlots = 8
)

// slot is one open-addressing cell. hash==0 means empty. The value sits
// next to the hash, ahead of the key, so a small V (a pointer, a tss
// bucket head) shares the cache line the stored-hash reject already
// loaded.
type slot[V any] struct {
	hash uint64
	val  V
	key  flow.Key // normalized: zero outside the table mask
}

// Table maps flow keys, compared under a fixed mask, to values of type V.
// The zero value is not usable; construct with New.
type Table[V any] struct {
	mask flow.Mask
	// words holds the indices of the mask's non-zero words; the fused
	// probe touches only these. nwords is the live prefix length.
	words  [flow.NumWords]uint8
	nwords int
	slots  []slot[V]
	count  int
	growAt int // count threshold that triggers doubling (3/4 load)
}

// New builds a table whose keys are compared under mask, pre-sized so that
// sizeHint entries fit without growth (sizeHint <= 0 gets the minimum).
func New[V any](mask flow.Mask, sizeHint int) *Table[V] {
	t := &Table[V]{mask: mask}
	for w := range mask {
		if mask[w] != 0 {
			t.words[t.nwords] = uint8(w)
			t.nwords++
		}
	}
	n := minSlots
	for n*3/4 < sizeHint {
		n <<= 1
	}
	t.init(n)
	return t
}

func (t *Table[V]) init(n int) {
	t.slots = make([]slot[V], n)
	t.count = 0
	t.growAt = n * 3 / 4
}

// probeHash is the fused mask+hash pass: one loop over the mask's
// non-zero words masks the key and folds each masked word through the
// wyhash-style mix. No 32-byte Apply copy, no second full-key hash.
//
//gf:hotpath
func (t *Table[V]) probeHash(k *flow.Key) uint64 {
	h := uint64(hashInit)
	for i := 0; i < t.nwords; i++ {
		w := t.words[i]
		h = mix(h, k[w]&t.mask[w])
	}
	return nonzero(h)
}

// mix folds one word into the hash h.
//
//gf:hotpath
func mix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(w^hashMul, h)
	return hi ^ lo
}

// nonzero substitutes for a hash of 0, the empty-slot sentinel.
//
//gf:hotpath
func nonzero(h uint64) uint64 {
	if h == 0 {
		return hashInit
	}
	return h
}

// HashKey is probeHash for a full-mask table, without the table: the fold
// over every word of *k. An exact-match store that keeps its own index
// (internal/microflow) hashes with it, so its flow identifiers equal the
// ones a full-mask Table computes for in-width keys.
//
//gf:hotpath
func HashKey(k *flow.Key) uint64 {
	h := uint64(hashInit)
	for _, w := range k {
		h = mix(h, w)
	}
	return nonzero(h)
}

// HashWords is probeHash for a mask with two non-zero words, without the
// table: the fold of the two masked words a and b, in word order. The
// connection table hashes a 5-tuple with it (words 2 and 3 under
// conntrack.TupleMask), never building the masked key.
//
//gf:hotpath
func HashWords(a, b uint64) uint64 { return nonzero(mix(mix(hashInit, a), b)) }

// probeEqual reports whether a stored (normalized) key equals *k under
// the table mask, comparing only the mask's non-zero words.
//
//gf:hotpath
func (t *Table[V]) probeEqual(sk, k *flow.Key) bool {
	for i := 0; i < t.nwords; i++ {
		if w := t.words[i]; sk[w] != k[w]&t.mask[w] {
			return false
		}
	}
	return true
}

// Find returns a pointer to the value stored for *k under the table mask,
// or nil. It is the hot probe shared by every tier: fused mask+hash, then
// a linear scan with stored-hash early reject. The key travels by pointer
// and the value is handed back in place, so a probe copies neither; the
// pointer is valid until the next Put or Delete.
//
//gf:hotpath
func (t *Table[V]) Find(k *flow.Key) *V {
	h := t.probeHash(k)
	m := uint64(len(t.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := &t.slots[i]
		if s.hash == 0 {
			return nil
		}
		if s.hash == h && t.probeEqual(&s.key, k) {
			return &s.val
		}
	}
}

// Lookup is Find with the key and the value passed by value.
//
//gf:hotpath
func (t *Table[V]) Lookup(k flow.Key) (V, bool) {
	if v := t.Find(&k); v != nil {
		return *v, true
	}
	var zero V
	return zero, false
}

// Put stores v for k (masked), replacing any existing value; it reports
// whether a value was replaced.
func (t *Table[V]) Put(k flow.Key, v V) (replaced bool) {
	if t.count >= t.growAt {
		t.grow()
	}
	h := t.probeHash(&k)
	m := uint64(len(t.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := &t.slots[i]
		if s.hash == 0 {
			s.hash = h
			s.key = k.Apply(t.mask)
			s.val = v
			t.count++
			return false
		}
		if s.hash == h && t.probeEqual(&s.key, &k) {
			s.val = v
			return true
		}
	}
}

// Delete removes the entry for k, reporting whether one existed. Removal
// backshifts the probe chain: every displaced entry after the hole is
// moved back unless that would skip past its home slot, so no tombstones
// are left behind. slab.Index.Delete runs the same backshift loop over
// hash-only slots; keep the two in step.
func (t *Table[V]) Delete(k flow.Key) bool {
	h := t.probeHash(&k)
	m := uint64(len(t.slots) - 1)
	i := h & m
	for {
		s := &t.slots[i]
		if s.hash == 0 {
			return false
		}
		if s.hash == h && t.probeEqual(&s.key, &k) {
			break
		}
		i = (i + 1) & m
	}
	// Backshift deletion: slide chain members into the hole while doing so
	// keeps them no earlier than their home slot.
	j := i
	for {
		j = (j + 1) & m
		s := &t.slots[j]
		if s.hash == 0 {
			break
		}
		home := s.hash & m
		if (j-home)&m >= (j-i)&m {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.count--
	return true
}

// grow doubles the slot array, relocating entries by their stored hashes —
// keys are never rehashed after insertion.
func (t *Table[V]) grow() {
	old := t.slots
	t.init(len(old) * 2)
	m := uint64(len(t.slots) - 1)
	for oi := range old {
		s := &old[oi]
		if s.hash == 0 {
			continue
		}
		i := s.hash & m
		for t.slots[i].hash != 0 {
			i = (i + 1) & m
		}
		t.slots[i] = *s
		t.count++
	}
}

// Iter returns a slot-order iterator. The order is deterministic: it
// depends only on the sequence of Put/Delete calls, never on a per-process
// seed (unlike Go map iteration). The table must not be mutated while an
// iterator is live.
func (t *Table[V]) Iter() Iter[V] { return Iter[V]{t: t, i: -1} }

// Iter walks a table's occupied slots in index order. The zero value is
// exhausted; obtain live iterators from Table.Iter.
type Iter[V any] struct {
	t *Table[V]
	i int
}

// Next advances to the next occupied slot, reporting whether one exists.
//
//gf:hotpath
func (it *Iter[V]) Next() bool {
	if it.t == nil {
		return false
	}
	for it.i++; it.i < len(it.t.slots); it.i++ {
		if it.t.slots[it.i].hash != 0 {
			return true
		}
	}
	return false
}

// Key returns the current entry's (normalized) key. Valid only after a
// Next call that returned true.
//
//gf:hotpath
func (it *Iter[V]) Key() flow.Key { return it.t.slots[it.i].key }

// Value returns the current entry's value. Valid only after a Next call
// that returned true.
//
//gf:hotpath
func (it *Iter[V]) Value() V { return it.t.slots[it.i].val }

// Range calls fn for every entry in deterministic slot order until fn
// returns false. The table must not be mutated during Range.
func (t *Table[V]) Range(fn func(flow.Key, V) bool) {
	for it := t.Iter(); it.Next(); {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}
