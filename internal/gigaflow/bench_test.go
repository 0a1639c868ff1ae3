package gigaflow

import (
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
		if res := c.Lookup(keys[i%len(keys)], int64(i)); !res.Hit {
			b.Fatal("miss")
		}
	}
}

// k4 is the paper's operating point, built once per test binary: the PSC
// ruleset, 200 000 flows, and a 4×8K cache holding the few thousand
// sub-traversal entries that serve all of them.
var k4 struct {
	once  sync.Once
	err   error
	cache *Cache
	keys  []flow.Key
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
	for _, f := range pw.Flows(traffic.Config{Seed: 1, NumFlows: 200000}, traffic.HighLocality) {
		if !k4.cache.Lookup(f.Key, 0).Hit {
			tr, err := pw.Pipeline.Process(f.Key)
			if err == nil {
				_, err = k4.cache.Insert(tr, 0)
			}
			if err != nil {
				k4.err = err
				return
			}
		}
		k4.keys = append(k4.keys, f.Key)
	}
}

// BenchmarkLookupK4 is one LTM lookup in the regime the end-to-end
// benchmark's warm-ltm workload runs in: every key hits, after ≈3.5 table
// probes of one tuple each, and consecutive keys share no entry, so the
// walk pays its dependent loads from beyond the private caches.
func BenchmarkLookupK4(b *testing.B) {
	k4.once.Do(k4Setup)
	if k4.err != nil {
		b.Fatal(k4.err)
	}
	c, keys := k4.cache, k4.keys
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
			if part := c.dp.partition(c.dp.stepFields(tr), 4, nil, nil); part == nil {
				b.Fatal("no partition")
			}
		}
	})

	// miss runs the Lookup-gated loop until b.N keys have missed: lookup is
	// the backend's probe, install its compile-and-insert.
	miss := func(b *testing.B, lookup func(*flow.Key, int64) bool, install func(*pipeline.Traversal, int64) error, created func() uint64) {
		var tr pipeline.Traversal
		one := func(i int) bool {
			k := &keys[i%len(keys)]
			if lookup(k, int64(i)) {
				return false
			}
			if err := p.ProcessInto(&tr, k, nil); err != nil {
				b.Fatal(err)
			}
			if err := install(&tr, int64(i)); err != nil {
				b.Fatal(err)
			}
			return true
		}
		i := 0
		for ; i < 2*len(keys); i++ { // fill the cache and reach the steady state
			one(i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := created()
		var spent time.Duration
		b.ResetTimer()
		for misses := 0; misses < b.N; i++ {
			k := &keys[i%len(keys)]
			if lookup(k, int64(i)) {
				continue
			}
			t0 := time.Now()
			if err := p.ProcessInto(&tr, k, nil); err != nil {
				b.Fatal(err)
			}
			if err := install(&tr, int64(i)); err != nil {
				b.Fatal(err)
			}
			spent += time.Since(t0)
			misses++
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		n := float64(b.N)
		b.ReportMetric(float64(spent.Nanoseconds())/n, "ns/miss")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/miss")
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/miss")
		b.ReportMetric(float64(created()-c0)/n, "entries/miss")
	}

	b.Run("gigaflow", func(b *testing.B) {
		c := New(p, Config{NumTables: 4, TableCapacity: 1024})
		miss(b,
			func(k *flow.Key, now int64) bool { return c.Lookup(*k, now).Hit },
			func(tr *pipeline.Traversal, now int64) error { _, err := c.Insert(tr, now); return err },
			func() uint64 { return c.Stats().EntriesCreated })
	})

	b.Run("megaflow", func(b *testing.B) {
		c := megaflow.New(4096)
		miss(b,
			func(k *flow.Key, now int64) bool { _, hit := c.Lookup(*k, now); return hit },
			func(tr *pipeline.Traversal, now int64) error { c.Insert(tr, now); return nil },
			func() uint64 { return c.Stats().Inserts })
	})
}
