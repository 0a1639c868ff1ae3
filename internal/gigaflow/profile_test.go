package gigaflow

import (
	"math/rand"
	"testing"
)

func TestProfilePartitionPrefersResidentSegments(t *testing.T) {
	p := buildChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 64, Scheme: SchemeProfile})

	// Seed the cache with a non-canonical partition: [L2+L3] fused, then
	// [L4]. Plain disjoint DP would split all three stages (they are
	// pairwise disjoint, singletons score higher).
	trA := p.MustProcess(chainKey(1, 5, 1000))
	if _, err := c.InsertPartition(trA, Partition{{0, 2}, {2, 3}}, 0); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("seed entries = %d", c.Len())
	}

	// A same-family flow (same MAC, same /24, same port rule): the
	// profile-guided partitioner must adopt the resident [0,2),[2,3)
	// partition and reuse both entries rather than installing three fresh
	// singletons.
	trB := p.MustProcess(chainKey(1, 6, 1000))
	entries, err := c.Insert(trB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("profile partition produced %d segments, want 2", len(entries))
	}
	if c.Len() != 2 {
		t.Errorf("entries grew to %d; everything should have been reused", c.Len())
	}
	if st := c.Stats(); st.SharedReuse != 2 {
		t.Errorf("SharedReuse = %d, want 2", st.SharedReuse)
	}
}

func TestProfilePartitionFallsBackToDisjoint(t *testing.T) {
	// With an empty cache there is nothing to reuse: the profile scheme
	// must produce exactly the disjoint partition.
	p := buildChainPipeline()
	prof := New(p, Config{NumTables: 3, TableCapacity: 64, Scheme: SchemeProfile})
	dp := New(p, Config{NumTables: 3, TableCapacity: 64})

	k := chainKey(1, 5, 1000)
	ep, err := prof.Insert(p.MustProcess(k), 0)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := dp.Insert(p.MustProcess(k), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep) != len(ed) {
		t.Fatalf("cold profile partition (%d segs) differs from DP (%d segs)", len(ep), len(ed))
	}
	for i := range ep {
		if !ep[i].Match.Equal(ed[i].Match) || ep[i].Tag != ed[i].Tag {
			t.Errorf("segment %d differs: %v vs %v", i, ep[i], ed[i])
		}
	}
}

func TestProfileHitSoundness(t *testing.T) {
	// The reuse bonus must never compromise correctness: any hit agrees
	// with the slowpath.
	rng := rand.New(rand.NewSource(77))
	p := buildRandomPipeline(rng)
	c := New(p, Config{NumTables: 4, TableCapacity: 4096, Scheme: SchemeProfile})
	for i := 0; i < 1200; i++ {
		k := randomChainKey(rng)
		if res := c.Lookup(k, int64(i)); res.Hit {
			tr := p.MustProcess(k)
			if res.Verdict != tr.Verdict || res.Final != tr.FinalKey() {
				t.Fatalf("profile-scheme hit diverges for %s", k)
			}
		} else {
			tr := p.MustProcess(k)
			if _, err := c.Insert(tr, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Stats().Hits == 0 {
		t.Fatal("degenerate test")
	}
}

func TestProfileReducesEntriesVsDP(t *testing.T) {
	// Under churn with idle expiry and re-learning, the profile scheme
	// converges onto canonical partitions and should never need more
	// entries than plain DP for the same traffic.
	rng := rand.New(rand.NewSource(78))
	p := buildRandomPipeline(rng)
	run := func(scheme Scheme) int {
		c := New(p, Config{NumTables: 4, TableCapacity: 4096, Scheme: scheme})
		rng := rand.New(rand.NewSource(79))
		for i := 0; i < 3000; i++ {
			k := randomChainKey(rng)
			if res := c.Lookup(k, int64(i)); !res.Hit {
				c.Insert(p.MustProcess(k), int64(i))
			}
		}
		return c.Len()
	}
	prof, dp := run(SchemeProfile), run(SchemeDisjoint)
	if prof > dp*11/10 {
		t.Errorf("profile scheme uses %d entries vs DP's %d", prof, dp)
	}
}

func TestPartitionTraversalRejectsProfileScheme(t *testing.T) {
	p := buildChainPipeline()
	tr := p.MustProcess(chainKey(1, 5, 1000))
	if _, err := PartitionTraversal(tr, 3, SchemeProfile, nil); err == nil {
		t.Error("SchemeProfile without cache state must be rejected")
	}
	if SchemeProfile.String() != "PROF" {
		t.Error("scheme name")
	}
}

func TestProfilePartitionValidAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	p := buildRandomPipeline(rng)
	c := New(p, Config{NumTables: 4, TableCapacity: 512, Scheme: SchemeProfile})
	for i := 0; i < 800; i++ {
		k := randomChainKey(rng)
		tr := p.MustProcess(k)
		part := c.profilePartition(tr, 0)
		if err := part.Validate(tr.Len(), 4); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		c.Insert(tr, int64(i))
	}
}
