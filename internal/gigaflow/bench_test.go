package gigaflow

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gigaflow/internal/flow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

// BenchmarkCacheLookupHit is the LTM hit path: a K-table feed-forward walk
// where each table probe is a tag-grouped TSS lookup over fused-probe flow
// tables.
func BenchmarkCacheLookupHit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := diffChainPipeline()
	c := New(p, Config{NumTables: 3, TableCapacity: 1024})
	keys := make([]flow.Key, 0, 256)
	for len(keys) < cap(keys) {
		k := diffChainKey(rng)
		tr, err := p.Process(k)
		if err != nil {
			continue
		}
		if _, err := c.Insert(tr, 0); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := lookup(c, keys[i%len(keys)], int64(i)); !res.Hit {
			b.Fatal("miss")
		}
	}
}

// k4 is the paper's operating point, built once per test binary: the PSC
// ruleset, 200 000 flows, and a 4×8K cache holding the few thousand
// sub-traversal entries that serve all of them. unique is the same cache
// with an action of its own given to every entry (distinctRewrites).
var k4 struct {
	once          sync.Once
	err           error
	cache, unique *Cache
	keys          []flow.Key
}

func k4Setup() {
	spec, _ := pipelines.ByName("PSC")
	cfg := pipebench.PaperConfig(spec, 1)
	cfg.NumChains = 120000
	pw, err := pipebench.Generate(cfg)
	if err != nil {
		k4.err = err
		return
	}
	k4.cache = New(pw.Pipeline, Config{NumTables: 4, TableCapacity: 8192})
	k4.unique = New(pw.Pipeline, Config{NumTables: 4, TableCapacity: 8192})
	for _, f := range pw.Flows(traffic.Config{Seed: 1, NumFlows: 200000}, traffic.HighLocality) {
		for _, c := range []*Cache{k4.cache, k4.unique} {
			if !lookup(c, f.Key, 0).Hit {
				tr, err := pw.Pipeline.Process(f.Key)
				if err == nil {
					_, err = c.Insert(tr, 0)
				}
				if err != nil {
					k4.err = err
					return
				}
			}
		}
		k4.keys = append(k4.keys, f.Key)
	}
	k4.err = distinctRewrites(k4.unique)
}

// distinctRewrites gives every resident entry of c an action of its own:
// its commit also writes the entry's ordinal into the key bits no resident
// entry matches, so every lookup walks the entries it walked before and
// the action table shares nothing. Each entry is reinstalled, which
// reorders the LRU lists.
func distinctRewrites(c *Cache) error {
	es := c.AllEntries()
	var free flow.Mask
	for w := range free {
		free[w] = ^uint64(0)
		for _, e := range es {
			free[w] &^= e.Match.Mask[w]
		}
	}
	for i, e := range es {
		t, a, n := e.table, e.Action(), uint64(i)
		for w := range free {
			for bits := free[w]; bits != 0; bits &= bits - 1 {
				bit := bits & -bits
				a.Commit.Mask[w] |= bit
				a.Commit.Val[w] = a.Commit.Val[w]&^bit | bit*(n&1)
				n >>= 1
			}
		}
		if n != 0 {
			return fmt.Errorf("%d unmatched key bits cannot tell %d entries apart", free.BitCount(), len(es))
		}
		t.remove(e)
		t.insert(e, &a)
	}
	if rows := len(c.acts.rows) - len(c.acts.free); rows != len(es) {
		return fmt.Errorf("%d entries carry %d distinct actions", len(es), rows)
	}
	return nil
}

// BenchmarkLookupK4 is one LTM lookup in the regime the end-to-end
// benchmark's warm-ltm workload runs in: 200 000 keys, walked in order,
// all hit 5 799 entries, each after 3.5 table probes of one tuple. A key's
// hit path shares 0.19 of its 3.5 entries with the previous key's, on
// average, and most of what a hit reads — slots and entry lines — was
// last read hundreds to thousands of lookups before, so the figure tracks
// how many cache lines a hit touches. shared is the cache as the flows
// leave it, its entries carrying a few distinct actions (actions, beside
// entries); unique-rewrites is the same cache with every entry's action
// its own, where the action row a hit reads after each slot is as cold as
// the slot.
func BenchmarkLookupK4(b *testing.B) {
	k4.once.Do(k4Setup)
	if k4.err != nil {
		b.Fatal(k4.err)
	}
	for _, bc := range []struct {
		name string
		c    *Cache
	}{{"shared", k4.cache}, {"unique-rewrites", k4.unique}} {
		b.Run(bc.name, func(b *testing.B) {
			c, keys := bc.c, k4.keys
			bl := c.BatchLookup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := bl.Lookup(keys[i%len(keys)], int64(i)); !res.Hit {
					b.Fatal("miss")
				}
			}
			b.StopTimer()
			bl.Flush()
			b.ReportMetric(float64(c.Len()), "entries")
			b.ReportMetric(float64(len(c.acts.rows)-len(c.acts.free)), "actions")
		})
	}
}

// missBench is BenchmarkMissSteadyState's world, built once per test
// binary: the PSC ruleset and a low-locality flow set eight times the size
// of the 4×1K cache it cycles through, so the tables stay full and most
// keys miss.
var missBench struct {
	once sync.Once
	err  error
	pipe *pipeline.Pipeline
	keys []flow.Key
}

func missBenchSetup() {
	spec, _ := pipelines.ByName("PSC")
	cfg := pipebench.PaperConfig(spec, 1)
	cfg.NumChains = 30000
	pw, err := pipebench.Generate(cfg)
	if err != nil {
		missBench.err = err
		return
	}
	missBench.pipe = pw.Pipeline
	for _, f := range pw.Flows(traffic.Config{Seed: 1, NumFlows: 32768}, traffic.LowLocality) {
		missBench.keys = append(missBench.keys, f.Key)
	}
}

// BenchmarkMissSteadyState prices one slow-path miss in Fig. 13's three
// phases, in the steady state the end-to-end benchmark's cold-churn
// workload runs in: caches full, every install evicting. walk is the
// pipeline traversal into a reused Traversal, partition the disjoint DP
// on the cache's scratch, and gigaflow / megaflow the whole miss — walk,
// (partition,) rule generation and install — against each backend, timed
// only for the keys the cache misses and reported per miss. Rule
// generation is what the gigaflow figure leaves after walk and partition.
// resumed is the gigaflow miss as a switch built WithStallResume takes it:
// a miss the lookup stalled on walks from the stall with the key the
// prefix rewrote and installs that suffix into the tables after the
// prefix, any other the whole traversal; steps/miss is the pipeline
// tables walked per miss.
func BenchmarkMissSteadyState(b *testing.B) {
	missBench.once.Do(missBenchSetup)
	if missBench.err != nil {
		b.Fatal(missBench.err)
	}
	p, keys := missBench.pipe, missBench.keys

	b.Run("walk", func(b *testing.B) {
		var tr pipeline.Traversal
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.ProcessInto(&tr, &keys[i%len(keys)], nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tr.Len()), "steps")
	})

	b.Run("partition", func(b *testing.B) {
		trs := make([]*pipeline.Traversal, 512)
		for i := range trs {
			trs[i] = p.MustProcess(keys[i])
		}
		c := New(p, Config{NumTables: 4, TableCapacity: 1024})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := trs[i%len(trs)]
			if part := c.dp.partition(c.dp.stepFields(tr), 4, nil, nil, 0); part == nil {
				b.Fatal("no partition")
			}
		}
	})

	// miss runs the Lookup-gated loop until b.N keys have missed: lookup is
	// the backend's probe, slow its walk and compile-and-insert of a key
	// that missed, returning the pipeline tables it walked.
	miss := func(b *testing.B, lookup func(*flow.Key, int64) bool, slow func(*flow.Key, int64) (int, error), created func() uint64) {
		one := func(i int) (steps int, missed bool) {
			k := &keys[i%len(keys)]
			if lookup(k, int64(i)) {
				return 0, false
			}
			steps, err := slow(k, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			return steps, true
		}
		i := 0
		for ; i < 2*len(keys); i++ { // fill the cache and reach the steady state
			one(i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := created()
		var spent time.Duration
		steps := 0
		b.ResetTimer()
		for misses := 0; misses < b.N; i++ {
			k := &keys[i%len(keys)]
			if lookup(k, int64(i)) {
				continue
			}
			t0 := time.Now()
			n, err := slow(k, int64(i))
			spent += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
			steps += n
			misses++
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		n := float64(b.N)
		b.ReportMetric(float64(spent.Nanoseconds())/n, "ns/miss")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/miss")
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/miss")
		b.ReportMetric(float64(created()-c0)/n, "entries/miss")
		b.ReportMetric(float64(steps)/n, "steps/miss")
	}
	// whole is the miss that walks the whole pipeline and hands all of it
	// to install.
	var tr pipeline.Traversal
	whole := func(install func(*pipeline.Traversal, int64) error) func(*flow.Key, int64) (int, error) {
		return func(k *flow.Key, now int64) (int, error) {
			if err := p.ProcessInto(&tr, k, nil); err != nil {
				return 0, err
			}
			return tr.Len(), install(&tr, now)
		}
	}

	b.Run("gigaflow", func(b *testing.B) {
		c := New(p, Config{NumTables: 4, TableCapacity: 1024})
		var final flow.Key
		miss(b,
			func(k *flow.Key, now int64) bool { _, hit := c.Find(k, now, &final); return hit },
			whole(func(tr *pipeline.Traversal, now int64) error { _, err := c.Insert(tr, now); return err }),
			func() uint64 { return c.Stats().EntriesCreated })
	})

	b.Run("resumed", func(b *testing.B) {
		c := New(p, Config{NumTables: 4, TableCapacity: 1024})
		var stalled flow.Key
		full := whole(func(tr *pipeline.Traversal, now int64) error { _, err := c.Insert(tr, now); return err })
		miss(b,
			func(k *flow.Key, now int64) bool { _, hit := c.Find(k, now, &stalled); return hit },
			func(k *flow.Key, now int64) (int, error) {
				next, table, span := c.Stall()
				if span == 0 {
					return full(k, now)
				}
				if err := p.ProcessPartialInto(&tr, next, &stalled, p.MaxSteps-span); err != nil {
					return 0, err
				}
				_, err := c.insert(&tr, table, now)
				return tr.Len(), err
			},
			func() uint64 { return c.Stats().EntriesCreated })
	})

	b.Run("megaflow", func(b *testing.B) {
		c := megaflow.New(4096)
		var final flow.Key
		miss(b,
			func(k *flow.Key, now int64) bool { _, hit := c.Find(k, now, &final); return hit },
			whole(func(tr *pipeline.Traversal, now int64) error { c.Insert(tr, now); return nil }),
			func() uint64 { return c.Stats().Inserts })
	})
}
