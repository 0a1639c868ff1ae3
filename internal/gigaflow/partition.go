// Package gigaflow implements the paper's core contribution: sub-traversal
// caching with Longest Traversal Matching (LTM) for SmartNICs.
//
// A vSwitch traversal (pipeline.Traversal) is partitioned into up to K
// contiguous sub-traversals, each compiled into one LTM rule ⟨τ, M, ρ, α⟩
// and installed into one of the K feed-forward cache tables. The partition
// is chosen to maximise disjointness between adjacent sub-traversals
// (§4.2.2), which maximises cross-product rule-space coverage; lookups use
// LTM semantics — highest span-length priority within a table, exact table
// tags sequencing sub-traversals (§4.1).
package gigaflow

import (
	"fmt"
	"math/rand"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
)

// Segment is a half-open range [Start, End) of traversal step indices
// forming one sub-traversal.
type Segment struct {
	Start, End int
}

// Len reports the number of pipeline tables the segment spans.
func (s Segment) Len() int { return s.End - s.Start }

// Partition is an ordered, contiguous, complete split of a traversal into
// sub-traversals.
type Partition []Segment

// Validate checks that p is a contiguous, complete partition of n steps
// into at most maxSegments non-empty segments (maxSegments ≤ 0 disables the
// limit).
func (p Partition) Validate(n, maxSegments int) error {
	if len(p) == 0 {
		return fmt.Errorf("gigaflow: empty partition")
	}
	if maxSegments > 0 && len(p) > maxSegments {
		return fmt.Errorf("gigaflow: %d segments exceeds limit %d", len(p), maxSegments)
	}
	at := 0
	for i, s := range p {
		if s.Start != at || s.End <= s.Start {
			return fmt.Errorf("gigaflow: segment %d = [%d,%d) is not contiguous from %d", i, s.Start, s.End, at)
		}
		at = s.End
	}
	if at != n {
		return fmt.Errorf("gigaflow: partition covers %d of %d steps", at, n)
	}
	return nil
}

// Scheme selects a partitioning strategy (Fig. 16 compares them).
type Scheme uint8

const (
	// SchemeDisjoint is the paper's dynamic-programming disjoint
	// partitioner (DP).
	SchemeDisjoint Scheme = iota
	// SchemeRandom cuts the traversal at random boundaries (RND baseline).
	SchemeRandom
	// SchemeOneToOne gives every pipeline table its own cache table (the
	// idealised 1-1 mapping baseline; requires K ≥ traversal length).
	SchemeOneToOne
	// SchemeProfile is the §7 traffic-aware partitioner: disjoint
	// partitioning augmented with a reuse bonus for segments already
	// resident in the cache (see profile.go).
	SchemeProfile
)

// String names the scheme as in the paper's Fig. 16.
func (s Scheme) String() string {
	switch s {
	case SchemeDisjoint:
		return "DP"
	case SchemeRandom:
		return "RND"
	case SchemeOneToOne:
		return "1-1"
	case SchemeProfile:
		return "PROF"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// AnalysisFields is the field set the disjointness analysis partitions
// over. Two kinds of fields are excluded because they carry no locality
// information and would spuriously glue disjoint segments together:
//
//   - the metadata register, which steering matches in nearly every stage
//     and which is not a packet header at all;
//   - eth_type, a near-constant discriminator (every IPv4 rule matches
//     0x0800) present in ETH, IP, and ACL stages alike. The paper's Fig. 7
//     places ETH and IP/24 in separate disjoint regions even though both
//     kinds of tables match the EtherType, which is exactly this rule.
var AnalysisFields = flow.HeaderFields.Remove(flow.FieldEthType)

// cohesive reports whether extending a segment whose accumulated field set
// is `acc` by a step matching `next` keeps the segment cohesive: the new
// step must share at least one field with what the segment already matches.
// Steps with no matched fields impose no constraint and merge freely.
func cohesive(acc, next flow.FieldSet) bool {
	return acc.Empty() || next.Empty() || acc.Overlaps(next)
}

// DisjointPartition computes the optimal partition of a traversal with the
// given per-step field sets into at most maxSegments sub-traversals,
// maximising the §4.2.2 score — the summed length of the cohesive
// segments — with ties broken toward fewer segments (longer
// sub-traversals need fewer cache entries, §4.2.2). Dynamic program over
// (steps consumed, segments used); O(N²·K) worst case with N ≤ MaxSteps.
func DisjointPartition(fields []flow.FieldSet, maxSegments int) Partition {
	var dp partitioner
	return dp.partition(fields, maxSegments, nil, nil, 0)
}

// partitioner is the scratch the partition dynamic program runs on: the
// per-step field sets, the DP table, and the partition it hands back. A
// cache owns one and partitions every miss on it; DisjointPartition and
// PartitionTraversal run on a throw-away one.
type partitioner struct {
	fields []flow.FieldSet
	// cells is the (maxSegments+1)×(n+1) table, row k holding the best
	// split of the first j steps into exactly k segments.
	cells []dpCell
	part  Partition
}

type dpCell struct {
	score int32
	prev  int32 // split point: the last segment is [prev, j)
	set   bool
}

// stepFields fills the scratch with the analysis field set of each step
// of tr and returns it.
//
//gf:hotpath
func (dp *partitioner) stepFields(tr *pipeline.Traversal) []flow.FieldSet {
	dp.fields = dp.fields[:0]
	for i := range tr.Steps {
		dp.fields = append(dp.fields, tr.StepFields(i).Intersect(AnalysisFields))
	}
	return dp.fields
}

// partition is the dynamic program behind DisjointPartition and, with a
// cache and the traversal supplied, SchemeProfile: there a segment whose
// LTM entry is already resident in its target table of c earns
// reuseBonusWeight on top of its disjointness score (profile.go), at the
// price of one composition per candidate segment; segment k goes to table
// table+k. The returned partition aliases the scratch and is valid until
// its next use.
//
//gf:hotpath
func (dp *partitioner) partition(fields []flow.FieldSet, maxSegments int, c *Cache, tr *pipeline.Traversal, table int) Partition {
	n := len(fields)
	if n == 0 || maxSegments <= 0 {
		return nil
	}
	if maxSegments > n {
		maxSegments = n
	}
	row := n + 1
	if (maxSegments+1)*row > cap(dp.cells) || maxSegments > cap(dp.part) {
		dp.grow((maxSegments+1)*row, maxSegments)
	}
	best := dp.cells[:(maxSegments+1)*row]
	clear(best)
	best[0] = dpCell{set: true}
	for k := 1; k <= maxSegments; k++ {
		for i := 0; i < n; i++ {
			from := best[(k-1)*row+i]
			if !from.set {
				continue
			}
			// Grow the segment [i, j) one step at a time, tracking its
			// cohesion incrementally.
			acc := flow.FieldSet(0)
			ok := true
			for j := i + 1; j <= n; j++ {
				step := fields[j-1]
				if j == i+1 {
					acc = step
				} else {
					if ok && !cohesive(acc, step) {
						ok = false
					}
					acc = acc.Union(step)
				}
				score := from.score
				if ok {
					score += int32(j - i)
				}
				if c != nil && c.segmentResident(tr, Segment{i, j}, table+k-1) {
					score += reuseBonusWeight
				}
				if cur := &best[k*row+j]; !cur.set || score > cur.score {
					*cur = dpCell{score: score, prev: int32(i), set: true}
				}
			}
		}
	}
	// Pick the best k for full coverage; ties prefer fewer segments.
	bestK := -1
	for k := 1; k <= maxSegments; k++ {
		if cur := best[k*row+n]; cur.set && (bestK == -1 || cur.score > best[bestK*row+n].score) {
			bestK = k
		}
	}
	if bestK == -1 {
		return nil
	}
	// Reconstruct.
	dp.part = dp.part[:bestK]
	j := n
	for k := bestK; k >= 1; k-- {
		i := int(best[k*row+j].prev)
		dp.part[k-1] = Segment{Start: i, End: j}
		j = i
	}
	return dp.part
}

// grow sizes the DP table for at least cells cells and the partition for
// segs segments.
//
//gf:hotpath-safe scratch growth: a cache's partitioner comes here only until its table fits the longest traversal it has seen
func (dp *partitioner) grow(cells, segs int) {
	if cap(dp.cells) < cells {
		dp.cells = make([]dpCell, cells)
	}
	if cap(dp.part) < segs {
		dp.part = make(Partition, segs)
	}
}

// RandomPartition cuts the traversal at up to maxSegments-1 random distinct
// boundaries (the RND baseline of Fig. 16).
func RandomPartition(n, maxSegments int, rng *rand.Rand) Partition {
	if n == 0 || maxSegments <= 0 {
		return nil
	}
	if maxSegments > n {
		maxSegments = n
	}
	nCuts := 0
	if maxSegments > 1 {
		nCuts = rng.Intn(maxSegments) // 0..maxSegments-1 cuts
	}
	cutSet := map[int]bool{}
	for len(cutSet) < nCuts {
		cutSet[1+rng.Intn(n-1)] = true
	}
	cuts := make([]int, 0, nCuts+2)
	cuts = append(cuts, 0)
	for c := 1; c < n; c++ {
		if cutSet[c] {
			cuts = append(cuts, c)
		}
	}
	cuts = append(cuts, n)
	out := make(Partition, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		out = append(out, Segment{Start: cuts[i], End: cuts[i+1]})
	}
	return out
}

// OneToOnePartition gives each traversal step its own segment.
func OneToOnePartition(n int) Partition {
	out := make(Partition, n)
	for i := range out {
		out[i] = Segment{Start: i, End: i + 1}
	}
	return out
}

// PartitionTraversal applies a scheme to a traversal. rng is used only by
// SchemeRandom.
func PartitionTraversal(tr *pipeline.Traversal, maxSegments int, scheme Scheme, rng *rand.Rand) (Partition, error) {
	n := tr.Len()
	if n == 0 {
		return nil, fmt.Errorf("gigaflow: empty traversal")
	}
	var p Partition
	switch scheme {
	case SchemeDisjoint:
		var dp partitioner
		p = dp.partition(dp.stepFields(tr), maxSegments, nil, nil, 0)
	case SchemeRandom:
		if rng == nil {
			return nil, fmt.Errorf("gigaflow: SchemeRandom requires an rng")
		}
		p = RandomPartition(n, maxSegments, rng)
	case SchemeOneToOne:
		if n > maxSegments {
			return nil, fmt.Errorf("gigaflow: 1-1 mapping needs %d tables, have %d", n, maxSegments)
		}
		p = OneToOnePartition(n)
	case SchemeProfile:
		return nil, fmt.Errorf("gigaflow: SchemeProfile needs cache state; use Cache.Insert")
	default:
		return nil, fmt.Errorf("gigaflow: unknown scheme %v", scheme)
	}
	if err := p.Validate(n, maxSegments); err != nil {
		return nil, err
	}
	return p, nil
}
