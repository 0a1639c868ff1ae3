package gigaflow

import "gigaflow/internal/pipeline"

// Profile-guided partitioning (§7, "Alternative Methods for Sub-Traversal
// Partitioning"): the paper suggests optimising traversal partitioning
// based on traffic patterns. SchemeProfile implements that idea without
// any offline training: when choosing where to cut a traversal, segments
// whose LTM entries are *already resident* in the target table earn a
// reuse bonus that dominates the disjointness score. Recurring pipeline
// structure therefore converges onto one canonical partition per
// sub-traversal family — maximising sharing — while novel structure still
// falls back to disjoint partitioning.

// reuseBonusWeight makes one reused segment outweigh any achievable
// disjointness score (which is bounded by the traversal length).
const reuseBonusWeight = pipeline.DefaultMaxSteps + 1

// profilePartition computes the reuse-aware optimal partition of tr's
// steps from from.step on into the tables from from.table on: the
// DisjointPartition dynamic program with a per-(segment, target-table)
// reuse bonus, so its complexity gains a composition per candidate
// segment — O(N²·K) compositions.
func (c *Cache) profilePartition(tr *pipeline.Traversal, from suffix) Partition {
	return c.dp.partition(c.dp.stepFields(tr), len(c.tables)-from.table, c, tr, from)
}

// segmentResident reports whether the LTM entry this segment would compile
// to already exists (with identical semantics) in table ti.
//
//gf:hotpath
func (c *Cache) segmentResident(tr *pipeline.Traversal, seg Segment, ti int) bool {
	c.probe.compose(tr, seg)
	old := c.tables[ti].get(c.probe.tag, &c.probe.Match, c.probe.prio)
	return old != nil && c.probe.same(old)
}
