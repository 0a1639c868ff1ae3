package tss

import (
	"sort"

	"gigaflow/internal/flow"
)

// mapRef is the pre-flowtable classifier, kept verbatim as the
// differential-test reference and benchmark baseline: tuples are Go maps
// keyed by the Apply-masked key, so every probe pays the 32-byte copy and
// a second full-key hash. Its observable behaviour — lookup winners,
// wildcard masks, probe counts — must stay bit-identical to
// Classifier's.
type mapRef[T any] struct {
	tuples map[flow.Mask]*mapRefTuple[T]
	order  []*mapRefTuple[T]
	dirty  bool
	count  int
}

type mapRefTuple[T any] struct {
	mask    flow.Mask
	entries map[flow.Key][]*Entry[T]
	count   int
	maxPrio int
}

func newMapRef[T any]() *mapRef[T] {
	return &mapRef[T]{tuples: make(map[flow.Mask]*mapRefTuple[T])}
}

func (c *mapRef[T]) Len() int       { return c.count }
func (c *mapRef[T]) NumTuples() int { return len(c.tuples) }

func (c *mapRef[T]) Insert(e *Entry[T]) (replaced bool) {
	e.Match = e.Match.Normalize()
	tp := c.tuples[e.Match.Mask]
	if tp == nil {
		tp = &mapRefTuple[T]{mask: e.Match.Mask, entries: make(map[flow.Key][]*Entry[T])}
		c.tuples[e.Match.Mask] = tp
		c.dirty = true
	}
	bucket := tp.entries[e.Match.Key]
	for i, old := range bucket {
		if old.Priority == e.Priority {
			bucket[i] = e
			return true
		}
	}
	pos := sort.Search(len(bucket), func(i int) bool { return bucket[i].Priority < e.Priority })
	bucket = append(bucket, nil)
	copy(bucket[pos+1:], bucket[pos:])
	bucket[pos] = e
	tp.entries[e.Match.Key] = bucket
	tp.count++
	c.count++
	if e.Priority > tp.maxPrio || tp.count == 1 {
		tp.maxPrio = e.Priority
		c.dirty = true
	}
	return false
}

func (c *mapRef[T]) Delete(m flow.Match, priority int) bool {
	m = m.Normalize()
	tp := c.tuples[m.Mask]
	if tp == nil {
		return false
	}
	bucket := tp.entries[m.Key]
	for i, e := range bucket {
		if e.Priority == priority {
			bucket = append(bucket[:i], bucket[i+1:]...)
			if len(bucket) == 0 {
				delete(tp.entries, m.Key)
			} else {
				tp.entries[m.Key] = bucket
			}
			tp.count--
			c.count--
			if tp.count == 0 {
				delete(c.tuples, m.Mask)
				c.dirty = true
			}
			return true
		}
	}
	return false
}

func (c *mapRef[T]) rebuildOrder() {
	c.order = c.order[:0]
	for _, tp := range c.tuples {
		c.order = append(c.order, tp)
	}
	sort.Slice(c.order, func(i, j int) bool {
		if c.order[i].maxPrio != c.order[j].maxPrio {
			return c.order[i].maxPrio > c.order[j].maxPrio
		}
		return maskLess(c.order[i].mask, c.order[j].mask)
	})
	c.dirty = false
}

func (c *mapRef[T]) Lookup(k flow.Key) (*Entry[T], int) {
	if c.dirty {
		c.rebuildOrder()
	}
	var best *Entry[T]
	probes := 0
	for _, tp := range c.order {
		if best != nil && best.Priority >= tp.maxPrio {
			break
		}
		probes++
		if bucket, ok := tp.entries[k.Apply(tp.mask)]; ok && len(bucket) > 0 {
			if e := bucket[0]; best == nil || e.Priority > best.Priority {
				best = e
			}
		}
	}
	return best, probes
}

func (c *mapRef[T]) LookupWild(k flow.Key) (*Entry[T], flow.Mask, int) {
	if c.dirty {
		c.rebuildOrder()
	}
	var best *Entry[T]
	var wild flow.Mask
	probes := 0
	for _, tp := range c.order {
		if best != nil && best.Priority >= tp.maxPrio {
			break
		}
		probes++
		wild = wild.Union(tp.mask)
		if bucket, ok := tp.entries[k.Apply(tp.mask)]; ok && len(bucket) > 0 {
			if e := bucket[0]; best == nil || e.Priority > best.Priority {
				best = e
			}
		}
	}
	return best, wild, probes
}

func (c *mapRef[T]) LookupWildPrecise(k flow.Key) (*Entry[T], flow.Mask, int) {
	if c.dirty {
		c.rebuildOrder()
	}
	var best *Entry[T]
	probes := 0
	var probed []*mapRefTuple[T]
	for _, tp := range c.order {
		if best != nil && best.Priority >= tp.maxPrio {
			break
		}
		probes++
		probed = append(probed, tp)
		if bucket, ok := tp.entries[k.Apply(tp.mask)]; ok && len(bucket) > 0 {
			if e := bucket[0]; best == nil || e.Priority > best.Priority {
				best = e
			}
		}
	}

	var wild flow.Mask
	bestPrio := -1 << 62
	if best != nil {
		wild = wild.Union(best.Match.Mask)
		bestPrio = best.Priority
	}
	for _, tp := range probed {
		if tp.maxPrio < bestPrio {
			continue
		}
		for _, bucket := range tp.entries {
			for _, e := range bucket {
				if e.Priority < bestPrio {
					break
				}
				if e == best {
					continue
				}
				if diffBit, ok := distinguishingBit(&k, &e.Match); ok {
					wild[diffBit.word] |= diffBit.mask
				}
			}
		}
	}
	return best, wild, probes
}

func maskLess(a, b flow.Mask) bool {
	for f := flow.FieldID(0); f < flow.NumFields; f++ {
		if x, y := a.Get(f), b.Get(f); x != y {
			return x < y
		}
	}
	return false
}
