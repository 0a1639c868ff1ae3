package gigaflow

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
)

// Shorthand field sets (post-AnalysisFields view: no eth_type/metadata).
var (
	fETH  = flow.NewFieldSet(flow.FieldEthSrc, flow.FieldEthDst)
	fIP   = flow.NewFieldSet(flow.FieldIPDst)
	fIPRT = flow.NewFieldSet(flow.FieldIPDst, flow.FieldEthDst) // L3 stage that also consults the MAC
	fDTP  = flow.NewFieldSet(flow.FieldIPProto, flow.FieldTpDst)
	fSTP  = flow.NewFieldSet(flow.FieldTpSrc)
)

// SegmentScore is the §4.2.2 scoring rule, the spec the partitioners'
// dynamic programme is checked against: a sub-traversal whose tables
// share match fields (chain-overlapping, i.e. it never crosses a
// disjoint-field boundary) scores its length; one combining disjoint field
// sets scores 0.
func SegmentScore(fields []flow.FieldSet, s Segment) int {
	acc := fields[s.Start]
	for i := s.Start + 1; i < s.End; i++ {
		if !cohesive(acc, fields[i]) {
			return 0
		}
		acc = acc.Union(fields[i])
	}
	return s.Len()
}

// PartitionScore is the sum of SegmentScore over the partition.
func PartitionScore(fields []flow.FieldSet, p Partition) int {
	total := 0
	for _, s := range p {
		total += SegmentScore(fields, s)
	}
	return total
}

func TestAnalysisFieldsExcludesGlue(t *testing.T) {
	if AnalysisFields.Contains(flow.FieldEthType) || AnalysisFields.Contains(flow.FieldMeta) {
		t.Errorf("AnalysisFields must exclude eth_type and metadata: %v", AnalysisFields)
	}
	if !AnalysisFields.Contains(flow.FieldIPDst) || !AnalysisFields.Contains(flow.FieldTpSrc) {
		t.Error("AnalysisFields lost real headers")
	}
}

func TestSegmentScore(t *testing.T) {
	fields := []flow.FieldSet{fETH, fETH, fIPRT, fDTP, fSTP}
	cases := []struct {
		seg  Segment
		want int
	}{
		{Segment{0, 3}, 3}, // ETH,ETH,L3-route chain-overlap via eth_dst
		{Segment{0, 2}, 2},
		{Segment{3, 4}, 1}, // singleton always cohesive
		{Segment{2, 4}, 0}, // IP + dTCP cross a disjoint boundary
		{Segment{3, 5}, 0}, // dTCP + sTCP disjoint
		{Segment{0, 5}, 0},
	}
	for _, c := range cases {
		if got := SegmentScore(fields, c.seg); got != c.want {
			t.Errorf("SegmentScore(%v) = %d, want %d", c.seg, got, c.want)
		}
	}
}

func TestSegmentScoreEmptyFieldsMergeFreely(t *testing.T) {
	// A step that matched nothing (match-all rule) joins any segment.
	fields := []flow.FieldSet{fETH, 0, fIPRT}
	if got := SegmentScore(fields, Segment{0, 3}); got != 3 {
		t.Errorf("score with empty middle = %d, want 3", got)
	}
	fields = []flow.FieldSet{0, fDTP}
	if got := SegmentScore(fields, Segment{0, 2}); got != 2 {
		t.Errorf("score with empty head = %d, want 2", got)
	}
}

func TestDisjointPartitionGroupsWithinK(t *testing.T) {
	// 3 natural groups, K=3: the partition must fall exactly on the
	// disjoint boundaries and achieve the maximum score N.
	fields := []flow.FieldSet{fETH, fETH, fIPRT, fDTP, fSTP}
	p := DisjointPartition(fields, 3)
	if err := p.Validate(5, 3); err != nil {
		t.Fatal(err)
	}
	want := Partition{{0, 3}, {3, 4}, {4, 5}}
	if len(p) != 3 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] {
		t.Fatalf("partition = %v, want %v", p, want)
	}
	if got := PartitionScore(fields, p); got != 5 {
		t.Errorf("score = %d, want 5", got)
	}
}

func TestDisjointPartitionPrefersFewerSegments(t *testing.T) {
	// [ETH, ETH] with K=2: both {[0,2)} and {[0,1),[1,2)} score 2; the
	// single-segment partition needs fewer cache entries and must win.
	fields := []flow.FieldSet{fETH, fETH}
	p := DisjointPartition(fields, 2)
	if len(p) != 1 || p[0] != (Segment{0, 2}) {
		t.Fatalf("partition = %v, want single segment", p)
	}
}

func TestDisjointPartitionForcedMergeLosesLeast(t *testing.T) {
	// [ETH, ETH, L3-route] are chain-cohesive (the routing stage consults
	// eth_dst), so with K=3 the DP keeps the full score 5.
	fields := []flow.FieldSet{fETH, fETH, fIPRT, fDTP, fSTP}
	p := DisjointPartition(fields, 3)
	if got := PartitionScore(fields, p); got != 5 {
		t.Fatalf("score = %d (partition %v), want 5", got, p)
	}

	// With a truly disjoint IP group: [ETH,ETH | IP | dTCP | sTCP], K=3.
	// One boundary must be crossed; the DP keeps [ETH,ETH] (2) and one TCP
	// singleton, merging the two short groups.
	fields = []flow.FieldSet{fETH, fETH, fIP, fDTP, fSTP}
	p = DisjointPartition(fields, 3)
	if err := p.Validate(5, 3); err != nil {
		t.Fatal(err)
	}
	// Max achievable: 2 (ETH pair) + 1 + 0 (merged pair scores 0) = 3.
	if got := PartitionScore(fields, p); got != 3 {
		t.Errorf("score = %d (partition %v), want 3", got, p)
	}
	// The ETH pair must never be split across a kept boundary while a
	// zero-scoring split exists elsewhere.
	if p[0] != (Segment{0, 2}) {
		t.Errorf("first segment = %v, want [0,2)", p[0])
	}
}

func TestDisjointPartitionSingleTable(t *testing.T) {
	fields := []flow.FieldSet{fETH, fIP, fDTP, fSTP}
	p := DisjointPartition(fields, 1)
	if len(p) != 1 || p[0] != (Segment{0, 4}) {
		t.Fatalf("K=1 partition = %v", p)
	}
}

func TestDisjointPartitionEdgeCases(t *testing.T) {
	if p := DisjointPartition(nil, 3); p != nil {
		t.Errorf("empty input -> %v", p)
	}
	if p := DisjointPartition([]flow.FieldSet{fETH}, 0); p != nil {
		t.Errorf("K=0 -> %v", p)
	}
	p := DisjointPartition([]flow.FieldSet{fETH}, 5)
	if len(p) != 1 || p[0] != (Segment{0, 1}) {
		t.Errorf("single step -> %v", p)
	}
}

func TestDisjointPartitionAlwaysValidAndOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []flow.FieldSet{fETH, fIP, fDTP, fSTP, 0, flow.NewFieldSet(flow.FieldInPort)}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(9)
		k := 1 + rng.Intn(5)
		fields := make([]flow.FieldSet, n)
		for i := range fields {
			fields[i] = pool[rng.Intn(len(pool))]
		}
		p := DisjointPartition(fields, k)
		if err := p.Validate(n, k); err != nil {
			t.Fatalf("trial %d: %v (fields=%v k=%d)", trial, err, fields, k)
		}
		got := PartitionScore(fields, p)
		best := bruteForceBest(fields, k)
		if got != best {
			t.Fatalf("trial %d: DP score %d != brute force %d (fields=%v k=%d part=%v)",
				trial, got, best, fields, k, p)
		}
	}
}

// bruteForceBest enumerates all partitions of n steps into ≤k segments.
func bruteForceBest(fields []flow.FieldSet, k int) int {
	n := len(fields)
	best := -1
	// Each of the n-1 boundaries is cut or not; count cuts ≤ k-1.
	for bits := 0; bits < 1<<(n-1); bits++ {
		cuts := 0
		for b := bits; b != 0; b &= b - 1 {
			cuts++
		}
		if cuts > k-1 {
			continue
		}
		var p Partition
		start := 0
		for i := 1; i < n; i++ {
			if bits&(1<<(i-1)) != 0 {
				p = append(p, Segment{start, i})
				start = i
			}
		}
		p = append(p, Segment{start, n})
		if s := PartitionScore(fields, p); s > best {
			best = s
		}
	}
	return best
}

func TestRandomPartitionValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		k := 1 + rng.Intn(6)
		p := RandomPartition(n, k, rng)
		if err := p.Validate(n, k); err != nil {
			t.Fatalf("trial %d: %v (n=%d k=%d p=%v)", trial, err, n, k, p)
		}
	}
}

func TestOneToOnePartition(t *testing.T) {
	p := OneToOnePartition(4)
	if err := p.Validate(4, 4); err != nil {
		t.Fatal(err)
	}
	for i, s := range p {
		if s.Len() != 1 || s.Start != i {
			t.Errorf("segment %d = %v", i, s)
		}
	}
}

func TestPartitionValidate(t *testing.T) {
	bad := []Partition{
		nil,
		{{0, 2}, {3, 4}},         // gap
		{{0, 2}, {1, 4}},         // overlap
		{{0, 0}, {0, 4}},         // empty segment
		{{0, 2}, {2, 3}},         // incomplete (n=4)
		{{0, 1}, {1, 2}, {2, 4}}, // too many segments for max=2
	}
	maxSegs := []int{3, 3, 3, 3, 3, 2}
	for i, p := range bad {
		if err := p.Validate(4, maxSegs[i]); err == nil {
			t.Errorf("case %d: Validate(%v) should fail", i, p)
		}
	}
	good := Partition{{0, 2}, {2, 4}}
	if err := good.Validate(4, 0); err != nil {
		t.Errorf("maxSegments<=0 must disable the limit: %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeDisjoint.String() != "DP" || SchemeRandom.String() != "RND" || SchemeOneToOne.String() != "1-1" {
		t.Error("scheme names wrong")
	}
}
