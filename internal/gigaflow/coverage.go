package gigaflow

import "math"

// Coverage counts the rule-space coverage of the cache: the number of
// distinct complete entry chains a packet could traverse — sequences of
// entries at strictly increasing table indices whose tags link from the
// pipeline's start table to a terminal entry. Sub-traversal sharing makes
// this a cross product across tables, which is how a 4×8K Gigaflow cache
// covers orders of magnitude more rule space than a 32K Megaflow cache
// (Table 2). The count saturates at MaxCoverage.
//
// This is the paper's rule-space metric: it counts tag-compatible
// combinations without checking that some concrete packet satisfies each
// chain's match intersection, i.e. an upper bound realisable when match
// predicates are field-disjoint — exactly what disjoint partitioning
// optimises for.
func (c *Cache) Coverage() uint64 {
	// chains[i][e] = number of distinct chains starting at entry e of table
	// i and reaching a terminal entry. Computed right-to-left.
	counts := make([]map[*Entry]uint64, len(c.tables))
	// tagIndex[i][tag] = total chains over entries of table i with Tag==tag.
	tagTotals := make([]map[int]uint64, len(c.tables))
	for i := len(c.tables) - 1; i >= 0; i-- {
		counts[i] = make(map[*Entry]uint64)
		tagTotals[i] = make(map[int]uint64)
		for _, e := range c.tables[i].entries() {
			var n uint64
			if e.act().Terminal {
				n = 1
			} else {
				for j := i + 1; j < len(c.tables); j++ {
					n = satAdd(n, tagTotals[j][e.NextTag])
				}
			}
			counts[i][e] = n
			tagTotals[i][e.Tag] = satAdd(tagTotals[i][e.Tag], n)
		}
	}
	var total uint64
	for i := range c.tables {
		total = satAdd(total, tagTotals[i][c.startTag])
	}
	return total
}

// MaxCoverage is the saturation bound for Coverage.
const MaxCoverage = math.MaxUint64 / 2

func satAdd(a, b uint64) uint64 {
	s := a + b
	if s > MaxCoverage || s < a {
		return MaxCoverage
	}
	return s
}
