// Package tss implements the Tuple Space Search packet classifier
// (Srinivasan, Suri, Varghese; SIGCOMM '99) as used by Open vSwitch for
// both OpenFlow tables and the Megaflow cache.
//
// Rules are grouped into "tuples" by identical wildcard mask; each tuple is
// a fused mask+hash flow table (internal/flowtable) keyed by the masked
// flow key, whose slots hold the winning entry's priority and payload
// beside the chain of entries with that predicate. Probing a tuple masks
// and hashes the packet key in one pass over the mask's non-zero words —
// no 32-byte Apply copy, no second full-key hash, no Go map overhead. A
// lookup probes tuples in decreasing order of their maximum rule priority
// and stops as soon as the best match found so far outranks every
// remaining tuple — the same staged-lookup optimisation OVS applies. The
// per-lookup cost is O(M) hash probes in the worst case, M being the
// number of distinct masks; every lookup returns its probe count so the
// caller can charge CPU cycles accordingly.
//
// A lookup writes nothing to the classifier once its tuple order is
// settled (Settle, or the first lookup after a mutation), so a settled
// classifier may be read from many goroutines at once.
package tss

import (
	"cmp"
	"fmt"
	"slices"

	"gigaflow/internal/flow"
	"gigaflow/internal/flowtable"
)

// Entry is one classifier rule: a ternary match with a priority and an
// opaque payload. Priority and Value must not change while the entry is
// in a classifier.
type Entry[T any] struct {
	Match    flow.Match
	Priority int
	Value    T

	// next chains the entries sharing this exact predicate, by priority
	// descending.
	next *Entry[T]
}

// bucket is what a tuple's table stores per distinct predicate: the chain
// of entries with that predicate, and a copy of the winning (head)
// entry's priority and payload. A lookup that only wants the payload
// reads it from the slot the probe already loaded instead of chasing
// bucket → entry → Value.
type bucket[T any] struct {
	val  T
	prio int
	head *Entry[T]
}

func (b *bucket[T]) setHead(e *Entry[T]) {
	b.val, b.prio, b.head = e.Value, e.Priority, e
}

// tuple is the set of rules sharing one mask: a fused-probe table from
// masked key to the bucket of entries with that exact predicate.
type tuple[T any] struct {
	mask    flow.Mask
	table   *flowtable.Table[bucket[T]]
	count   int
	maxPrio int
}

// Classifier is a tuple-space-search classifier. The zero value is not
// usable; construct with New.
type Classifier[T any] struct {
	tuples map[flow.Mask]*tuple[T]
	// order caches tuples sorted by maxPrio descending; rebuilt lazily.
	order []*tuple[T]
	dirty bool
	count int
}

// Probed is the caller-owned scratch LookupWildPreciseInto records its
// pass-1 tuple visits into, so the lookup writes nothing to the
// classifier. The zero value is ready; it grows to the longest visit.
type Probed[T any] struct{ tuples []*tuple[T] }

// New returns an empty classifier.
func New[T any]() *Classifier[T] {
	return &Classifier[T]{tuples: make(map[flow.Mask]*tuple[T])}
}

// Len reports the number of rules in the classifier.
func (c *Classifier[T]) Len() int { return c.count }

// NumTuples reports the number of distinct masks (tuples).
func (c *Classifier[T]) NumTuples() int { return len(c.tuples) }

// Insert adds an entry. If an entry with an identical match predicate and
// priority already exists, it is replaced and Insert reports true.
func (c *Classifier[T]) Insert(e *Entry[T]) (replaced bool) {
	e.Match.NormalizeInPlace()
	tp := c.tuples[e.Match.Mask]
	if tp == nil {
		tp = &tuple[T]{mask: e.Match.Mask, table: flowtable.New[bucket[T]](e.Match.Mask, 0)}
		c.tuples[e.Match.Mask] = tp
		c.dirty = true
	}
	if b := tp.table.Find(&e.Match.Key); b == nil {
		e.next = nil
		tp.table.Put(e.Match.Key, bucket[T]{val: e.Value, prio: e.Priority, head: e})
	} else {
		// The chain is sorted by priority descending.
		link := &b.head
		for *link != nil && (*link).Priority > e.Priority {
			link = &(*link).next
		}
		if old := *link; old != nil && old.Priority == e.Priority {
			e.next, old.next, replaced = old.next, nil, true
		} else {
			e.next = old
		}
		*link = e
		if link == &b.head {
			b.setHead(e)
		}
		if replaced {
			return true
		}
	}
	tp.count++
	c.count++
	if e.Priority > tp.maxPrio || tp.count == 1 {
		tp.maxPrio = e.Priority
		c.dirty = true
	}
	return false
}

// Delete removes the entry with the given match and priority, reporting
// whether one was found.
func (c *Classifier[T]) Delete(m flow.Match, priority int) bool {
	return c.unlink(&m, priority, nil)
}

// DeleteMatch is Delete with the predicate by pointer; *m need not be
// normalized and is not modified.
func (c *Classifier[T]) DeleteMatch(m *flow.Match, priority int) bool {
	return c.unlink(m, priority, nil)
}

// Remove removes e itself, reporting whether it was resident. An entry
// that was already deleted or replaced is left alone even when another
// entry now holds its predicate and priority — the identity check an
// owner that embeds its nodes needs before it recycles one.
func (c *Classifier[T]) Remove(e *Entry[T]) bool {
	return c.unlink(&e.Match, e.Priority, e)
}

// unlink removes the entry with predicate *m and the given priority —
// only if it is `only`, when only is non-nil.
func (c *Classifier[T]) unlink(m *flow.Match, priority int, only *Entry[T]) bool {
	tp := c.tuples[m.Mask]
	if tp == nil {
		return false
	}
	// Find masks the probe key itself, so an un-normalized *m lands on
	// the slot of its normalized form.
	b := tp.table.Find(&m.Key)
	if b == nil {
		return false
	}
	link := &b.head
	for *link != nil && (*link).Priority != priority {
		link = &(*link).next
	}
	e := *link
	if e == nil || (only != nil && e != only) {
		return false
	}
	*link, e.next = e.next, nil
	if b.head == nil {
		tp.table.Delete(e.Match.Key)
	} else if link == &b.head {
		b.setHead(b.head)
	}
	tp.count--
	c.count--
	if tp.count == 0 {
		delete(c.tuples, m.Mask)
		c.dirty = true
	}
	// tp.maxPrio is left as an upper bound: recomputing it on every delete
	// is O(tuple size) and caches with uniform priorities (e.g. megaflow,
	// where every entry has priority 0) delete constantly under LRU churn.
	// A stale-high maxPrio only makes the staged lookup probe a tuple it
	// could have skipped — sound, marginally less aggressive.
	return true
}

// Settle rebuilds the tuple order a mutation left stale, which the next
// lookup would otherwise do: after it, lookups write nothing until the
// classifier is mutated again.
func (c *Classifier[T]) Settle() {
	if c.dirty {
		c.rebuildOrder()
	}
}

// rebuildOrder refreshes the priority-descending tuple ordering.
//
//gf:hotpath-safe runs only on the first lookup after a rule change; sorting here keeps steady-state lookups allocation-free
func (c *Classifier[T]) rebuildOrder() {
	c.order = c.order[:0]
	for _, tp := range c.tuples {
		c.order = append(c.order, tp)
	}
	// A total order (masks are distinct per tuple), sorted without
	// sort.Slice's reflection swapper: a cache under churn gains and loses
	// tuples in steady state, and each change lands here.
	slices.SortFunc(c.order, func(a, b *tuple[T]) int {
		if a.maxPrio != b.maxPrio {
			return cmp.Compare(b.maxPrio, a.maxPrio)
		}
		// Deterministic tie-break on mask bits for reproducible probe counts.
		return compareMasks(&a.mask, &b.mask)
	})
	c.dirty = false
}

// find is the staged lookup every payload-or-entry lookup shares: the
// bucket of the highest-priority predicate matching *k, and the number of
// tuples probed. The bucket pointer aims into a tuple's table and is
// valid until the classifier is next mutated.
//
//gf:hotpath
func (c *Classifier[T]) find(k *flow.Key) (*bucket[T], int) {
	if c.dirty {
		c.rebuildOrder()
	}
	var best *bucket[T]
	probes := 0
	for _, tp := range c.order {
		if best != nil && best.prio >= tp.maxPrio {
			break // staged lookup: no remaining tuple can win
		}
		probes++
		if b := tp.table.Find(k); b != nil && (best == nil || b.prio > best.prio) {
			best = b
		}
	}
	return best, probes
}

// LookupValue returns the payload of the highest-priority entry matching
// *k, along with the number of tuples probed: the payload comes from the
// table slot the probe loaded, so no Entry is touched. ok is false when
// nothing matches.
//
//gf:hotpath
func (c *Classifier[T]) LookupValue(k *flow.Key) (v T, probes int, ok bool) {
	b, probes := c.find(k)
	if b == nil {
		return v, probes, false
	}
	return b.val, probes, true
}

// LookupWildInto is the lookup plus megaflow-style wildcard tracking: it
// writes into *wild (whatever it held is overwritten) the union of the
// masks of every tuple probed. Any packet equal to k on that mask's bits
// is guaranteed to classify to the same entry (OVS's rule: each tuple the
// search visits contributes its whole mask to the unwildcarded set, which
// also subsumes the per-rule dependency bits of §4.2.3 since every
// higher-priority rule lives in a visited tuple). The pipeline walk uses
// it to build a traversal step in place.
//
//gf:hotpath
func (c *Classifier[T]) LookupWildInto(k *flow.Key, wild *flow.Mask) (*Entry[T], int) {
	if c.dirty {
		c.rebuildOrder()
	}
	var best *Entry[T]
	*wild = flow.Mask{}
	probes := 0
	for _, tp := range c.order {
		if best != nil && best.Priority >= tp.maxPrio {
			break
		}
		probes++
		for i := range wild {
			wild[i] |= tp.mask[i]
		}
		if b := tp.table.Find(k); b != nil && (best == nil || b.prio > best.Priority) {
			best = b.head
		}
	}
	return best, probes
}

// LookupWildPreciseInto is LookupWildInto with minimal-bit dependency
// unwildcarding — the strategy of the paper's §4.2.3 example, where a
// packet matching a /16 route under /24 and /32 shadows gets wildcard
// 255.255.240.0 rather than a full /32. Instead of charging every probed
// tuple's whole mask, it adds (a) the matched entry's mask and (b) for
// every rule that outranks the match but did not fire, one distinguishing
// bit on which the key provably differs from that rule.
//
// The result is a strictly wider (never narrower) wildcard than
// LookupWildInto's, with the same guarantee: any key equal to k on the
// returned mask's bits classifies identically. The price is O(entries in
// outranking tuples) per lookup instead of O(tuples) — OVS chose the
// cheap variant; this one exists to model classifiers that spend the
// effort (and for the mask-diversity ablation).
//
// Pass 1 records the tuples it visits in the caller's scratch, and pass 2
// walks each visited tuple's table with a value iterator, so with a reused
// scratch the whole lookup is allocation-free.
//
//gf:hotpath
func (c *Classifier[T]) LookupWildPreciseInto(k *flow.Key, wild *flow.Mask, scratch *Probed[T]) (*Entry[T], int) {
	if c.dirty {
		c.rebuildOrder()
	}
	// Pass 1: find the winning entry and the tuples that were probed.
	var best *Entry[T]
	scratch.tuples = scratch.tuples[:0]
	for _, tp := range c.order {
		if best != nil && best.Priority >= tp.maxPrio {
			break
		}
		scratch.tuples = append(scratch.tuples, tp)
		if b := tp.table.Find(k); b != nil && (best == nil || b.prio > best.Priority) {
			best = b.head
		}
	}

	*wild = flow.Mask{}
	bestPrio := -1 << 62
	if best != nil {
		*wild = best.Match.Mask
		bestPrio = best.Priority
	}
	// Pass 2: one distinguishing bit against every rule that ranks at or
	// above the match and did not fire for k. Equal-priority rules must be
	// excluded too: a lookup resolves equal-priority ties by tuple order, so
	// a covered key newly matching one could steal the tie. (Rules sharing
	// the winner's exact predicate differ only in priority and cannot be
	// distinguished — nor need they be, since bucket order resolves them
	// identically for every covered key.)
	for _, tp := range scratch.tuples {
		if tp.maxPrio < bestPrio {
			continue
		}
		for it := tp.table.Iter(); it.Next(); {
			for e := it.Value().head; e != nil; e = e.next {
				if e.Priority < bestPrio {
					break // chains are sorted by priority descending
				}
				if e == best {
					continue
				}
				if diffBit, ok := distinguishingBit(k, &e.Match); ok {
					wild[diffBit.word] |= diffBit.mask
				}
			}
		}
	}
	return best, len(scratch.tuples)
}

// compareMasks orders two masks field by field, in canonical field order:
// the tuple tie-break, kept independent of how fields pack into words.
func compareMasks(a, b *flow.Mask) int {
	for f := flow.FieldID(0); f < flow.NumFields; f++ {
		if c := cmp.Compare(a.Get(f), b.Get(f)); c != 0 {
			return c
		}
	}
	return 0
}

// bitRef names one bit of one packed key word.
type bitRef struct {
	word int
	mask uint64
}

// distinguishingBit returns a significant bit of m on which k disagrees
// with m's key. It exists whenever k does not match m. Fields ascend in
// (word, bit) order, so the lowest differing bit of the first differing
// word is the lowest differing bit of the first differing field.
//
//gf:hotpath
func distinguishingBit(k *flow.Key, m *flow.Match) (bitRef, bool) {
	for w := range k {
		if diff := (k[w] ^ m.Key[w]) & m.Mask[w]; diff != 0 {
			return bitRef{word: w, mask: diff & -diff}, true
		}
	}
	return bitRef{}, false
}

// Get returns the entry with exactly the given match and priority, if any.
func (c *Classifier[T]) Get(m flow.Match, priority int) (*Entry[T], bool) {
	e := c.GetMatch(&m, priority)
	return e, e != nil
}

// GetMatch is Get with the predicate by pointer, nil when absent; *m need
// not be normalized and is not modified.
func (c *Classifier[T]) GetMatch(m *flow.Match, priority int) *Entry[T] {
	tp := c.tuples[m.Mask]
	if tp == nil {
		return nil
	}
	if b := tp.table.Find(&m.Key); b != nil {
		for e := b.head; e != nil; e = e.next {
			if e.Priority == priority {
				return e
			}
		}
	}
	return nil
}

// Range calls fn for every entry until fn returns false. Iteration order
// is deterministic: tuples are visited in the staged-lookup order
// (maxPrio descending, mask ascending) and each tuple's table in its
// slot order, both pure functions of the insert/delete history. Sweeps
// built on Range (expiry, revalidation) therefore replay identically
// under the same seed. The classifier must not be mutated during Range.
func (c *Classifier[T]) Range(fn func(*Entry[T]) bool) {
	if c.dirty {
		c.rebuildOrder()
	}
	for _, tp := range c.order {
		for it := tp.table.Iter(); it.Next(); {
			for e := it.Value().head; e != nil; e = e.next {
				if !fn(e) {
					return
				}
			}
		}
	}
}

// Entries returns all entries in deterministic Range order.
func (c *Classifier[T]) Entries() []*Entry[T] {
	out := make([]*Entry[T], 0, c.count)
	c.Range(func(e *Entry[T]) bool { out = append(out, e); return true })
	return out
}

// String summarises the classifier shape.
func (c *Classifier[T]) String() string {
	return fmt.Sprintf("tss(%d rules, %d tuples)", c.count, len(c.tuples))
}
