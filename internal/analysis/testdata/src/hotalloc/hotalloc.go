// Package hotalloc is a gflint fixture: each //gf:hotpath function below
// exercises one allocating construct the analyzer must flag, and the
// clean/cold functions prove it stays silent on the fixed patterns.
package hotalloc

import (
	"fmt"
	"math/bits"
)

type big struct{ a, b, c int }

type cache struct {
	buf []int
	n   int
}

func use(v any) { _ = v }

func useAll(vs ...any) { _ = vs }

//gf:hotpath
func hotClosure() func() {
	return func() {} // want "closure literal in hot function hotClosure"
}

//gf:hotpath
func hotLiterals() {
	_ = map[int]int{} // want "map literal in hot function hotLiterals"
	_ = []int{1, 2}   // want "slice literal in hot function hotLiterals"
	_ = &big{}        // want "&composite literal in hot function hotLiterals"
}

//gf:hotpath
func hotStrings(a, b string) string {
	s := a + b // want "string concatenation in hot function hotStrings"
	s += a     // want "string append"
	return s
}

//gf:hotpath
func hotConvert(bs []byte, s string) {
	_ = string(bs) // want "conversion to string in hot function hotConvert"
	_ = []byte(s)  // want "string-to-slice conversion in hot function hotConvert"
}

//gf:hotpath
func hotBuiltins(c *cache, xs []int) {
	xs = append(xs, 1) // want "append to a non-field-backed slice"
	_ = make([]int, 4) // want "make in hot function hotBuiltins"
	_ = new(big)       // want "new in hot function hotBuiltins"
	c.buf = append(c.buf[:0], xs...)
}

//gf:hotpath
func hotFmt() {
	fmt.Println("x") // want "fmt.Println in hot function hotFmt"
}

//gf:hotpath
func hotBox(v big, p *big) {
	use(v) // want "as interface in hot function hotBox boxes"
	use(p)
	use(nil)
}

//gf:hotpath
func hotVariadic(a int, p *big) {
	useAll(a, p) // want "passing non-pointer int as interface"
}

// hotClean is fully annotated and fully allocation-free: field updates,
// re-sliced reusable buffer, arithmetic.
//
//gf:hotpath
func hotClean(c *cache, k int) int {
	c.n++
	c.buf = c.buf[:0]
	c.buf = append(c.buf, k)
	return c.buf[0] + k
}

// hotWireDecode is the internal/packet decoder idiom: big-endian field
// extraction from a byte slice with `_ = b[n]` bounds hints, a value
// struct threaded through by copy, and a fixed-size array key mutated
// through a pointer receiver. None of it allocates; the analyzer must
// stay silent.
//
//gf:hotpath
func hotWireDecode(frame []byte, k *[4]uint64) (uint64, wireInfo) {
	var info wireInfo
	if len(frame) < 6 {
		info.err = 1
		return 0, info
	}
	_ = frame[5]
	v := uint64(frame[0])<<40 | uint64(frame[1])<<32 | uint64(frame[2])<<24 |
		uint64(frame[3])<<16 | uint64(frame[4])<<8 | uint64(frame[5])
	k[0] = v & 0xffffffffffff
	info.headerLen = 6
	return v, info
}

type wireInfo struct {
	err       uint8
	headerLen int
}

// batchLookup mirrors the cache-tier batch accumulator: a value struct
// holding a cache pointer and a local counter delta folded back in one
// flush per batch.
type batchLookup struct {
	c     *cache
	delta int
}

// hotBatch is the VSwitch.ProcessBatch idiom: caller-provided result
// slices written in place with an `_ = out[...]` bounds hint, local
// counters accumulated across the loop, a field-backed reusable buffer,
// and a single fold into shared state at the end. Fully allocation-free;
// the analyzer must stay silent.
//
//gf:hotpath
func hotBatch(c *cache, keys []int, out []int) int {
	if len(keys) == 0 {
		return 0
	}
	_ = out[len(keys)-1]
	b := batchLookup{c: c}
	var hits int
	for i := range keys {
		c.buf = append(c.buf[:0], keys[i])
		out[i] = c.buf[0]
		b.delta++
		hits++
	}
	b.c.n += b.delta
	return hits
}

// hotBatchGather looks batch-shaped but accumulates results by appending
// to a loop-local slice — the per-batch allocation the accumulator
// pattern exists to avoid. The analyzer must flag it.
//
//gf:hotpath
func hotBatchGather(keys []int) []int {
	var res []int
	for _, k := range keys {
		res = append(res, k) // want "append to a non-field-backed slice"
	}
	return res
}

// probeSlot / probeTable mirror internal/flowtable's open-addressing
// layout: slots carry a stored hash, a fixed-size key array, and a value.
type probeSlot struct {
	hash uint64
	key  [4]uint64
	val  int
}

type probeTable struct {
	mask   [4]uint64
	words  [4]uint8
	nwords int
	probe  [4]uint64
	slots  []probeSlot
}

// hotFusedProbe is the internal/flowtable lookup idiom: one pass over the
// precomputed non-zero mask word indices that simultaneously masks the key
// into a table-owned scratch array and folds a multiply-mix hash, then a
// linear probe over the slot array with stored-hash early reject and
// masked-word comparison against the scratch. Nothing escapes, nothing
// allocates; the analyzer must stay silent.
//
//gf:hotpath
func hotFusedProbe(t *probeTable, k *[4]uint64) (int, bool) {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < t.nwords; i++ {
		w := t.words[i]
		mw := k[w] & t.mask[w]
		t.probe[i] = mw
		hi, lo := bits.Mul64(mw^0xa0761d6478bd642f, h)
		h = hi ^ lo
	}
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	m := uint64(len(t.slots) - 1)
	for j := h & m; ; j = (j + 1) & m {
		s := &t.slots[j]
		if s.hash == 0 {
			return 0, false
		}
		if s.hash != h {
			continue
		}
		match := true
		for i := 0; i < t.nwords; i++ {
			if s.key[t.words[i]]&t.mask[t.words[i]] != t.probe[i] {
				match = false
				break
			}
		}
		if match {
			return s.val, true
		}
	}
}

// flightRec / flightRing mirror internal/telemetry's flight recorder: a
// power-of-two ring of fixed-size value records overwritten in place
// through a masked sequence counter, plus a per-tier pending array
// folded once per run.
type flightRec struct {
	ts      int64
	keyHash uint64
	latNs   int32
	batch   uint32
	tier    uint8
	flags   uint8
}

type flightRing struct {
	ring    []flightRec
	mask    uint64
	seq     uint64
	batch   uint32
	pending [4]uint32
}

// hotRingRecord is the flight-recorder hit idiom: index the preallocated
// ring through seq&mask, store the per-packet facts field by field into
// the resident record (no composite literal, which would build the
// record on the stack just to copy it), and bump the counters. Nothing
// escapes, nothing allocates; the analyzer must stay silent.
//
//gf:hotpath
func hotRingRecord(r *flightRing, tier uint8, keyHash uint64) {
	s := &r.ring[r.seq&r.mask]
	s.keyHash = keyHash
	s.batch = r.batch
	s.tier = tier
	s.flags = 1
	r.seq++
	r.pending[tier]++
}

// hotRingFold closes a run: sums the pending array, shares the span
// across the records, and clears the counters in place — the once-per-
// batch companion to hotRingRecord. Silent.
//
//gf:hotpath
func hotRingFold(r *flightRing, span int64) int64 {
	n := uint32(0)
	for t := range r.pending {
		n += r.pending[t]
	}
	if n == 0 {
		return 0
	}
	per := span / int64(n)
	for t := range r.pending {
		r.pending[t] = 0
	}
	return per
}

// slabEntry / slabSlot / slabCache mirror internal/microflow's storage:
// entries in a chunked slab named by index-plus-one refs, an
// open-addressing index of {hash, ref} slots, and an LRU list threaded
// through the entries by ref.
type slabEntry struct {
	key        [4]uint64
	val        int
	hash       uint64
	prev, next uint32
}

type slabSlot struct {
	hash uint64
	ref  uint32
}

type slabCache struct {
	index      []slabSlot
	chunks     [][]slabEntry
	head, tail uint32
}

// hotSlabRecycle is the microflow insert-into-a-full-tier idiom: resolve
// the LRU tail's ref to its slab entry, backshift-delete its slot from
// the index by stored hash, overwrite the entry field by field with the
// new flow, write one slot, relink at the head. The entry's storage is
// reused where it stands; nothing escapes, nothing allocates; the
// analyzer must stay silent.
//
//gf:hotpath
func hotSlabRecycle(c *slabCache, k *[4]uint64, h uint64, v int) *slabEntry {
	ref := c.tail
	e := &c.chunks[(ref-1)>>8][(ref-1)&255]
	m := uint64(len(c.index) - 1)
	i := e.hash & m
	for c.index[i].ref != ref {
		i = (i + 1) & m
	}
	for j := i; ; {
		j = (j + 1) & m
		s := c.index[j]
		if s.hash == 0 {
			break
		}
		if home := s.hash & m; (j-home)&m >= (j-i)&m {
			c.index[i] = s
			i = j
		}
	}
	c.index[i] = slabSlot{}
	c.tail = e.prev
	c.chunks[(e.prev-1)>>8][(e.prev-1)&255].next = 0
	e.key, e.val, e.hash = *k, v, h
	i = h & m
	for c.index[i].hash != 0 {
		i = (i + 1) & m
	}
	c.index[i] = slabSlot{hash: h, ref: ref}
	e.prev, e.next = 0, c.head
	c.chunks[(c.head-1)>>8][(c.head-1)&255].prev = ref
	c.head = ref
	return e
}

// hotSlabGrow grows the slab from inside a hot function. Appending the
// chunk to the field-backed chunk list is the sanctioned buffer idiom,
// but the chunk itself is a fresh allocation: growth belongs behind a
// //gf:hotpath-safe boundary, and the analyzer must flag it here.
//
//gf:hotpath
func hotSlabGrow(c *slabCache) {
	c.chunks = append(c.chunks, make([]slabEntry, 256)) // want "make in hot function hotSlabGrow"
}

// coldAlloc allocates freely but carries no annotation: silent.
func coldAlloc() []int {
	s := fmt.Sprint("cold")
	_ = s
	return []int{1, 2, 3}
}
