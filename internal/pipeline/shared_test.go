package pipeline_test

import (
	"math/rand"
	"sync"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/pipelines"
)

// TestSharedWalks: a pipeline whose tuple order is settled is only read by
// its walks, so goroutines may walk one pipeline at once — as a service's
// shards and its upcall engine do — in both wildcard modes. Four
// goroutines walk a PSC ruleset concurrently, each refilling its own
// traversal, and every walk must equal the one-goroutine walk of its key
// step for step. Run under -race, which is what makes a write a failure.
func TestSharedWalks(t *testing.T) {
	w, err := pipebench.Generate(pipebench.Config{Spec: pipelines.PSC, Seed: 7, NumChains: 300})
	if err != nil {
		t.Fatal(err)
	}
	p, rng := w.Pipeline, rand.New(rand.NewSource(1))
	keys := make([]flow.Key, 256)
	for i := range keys {
		keys[i] = w.SampleKey(rng.Intn(len(w.Chains)), rng)
	}
	for _, precise := range []bool{false, true} {
		p.PreciseWildcards = precise
		// The one-goroutine walks, which also settle every table's order.
		want := make([]*pipeline.Traversal, len(keys))
		for i, k := range keys {
			want[i] = p.MustProcess(k)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var tr pipeline.Traversal
				for n := 0; n < 4*len(keys); n++ {
					i := (n + 61*g) % len(keys)
					if err := p.ProcessInto(&tr, &keys[i], nil); err != nil {
						t.Errorf("precise=%v goroutine %d: %v", precise, g, err)
						return
					}
					if !sameWalk(&tr, want[i]) {
						t.Errorf("precise=%v goroutine %d key %d: %v, alone %v", precise, g, i, &tr, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// sameWalk reports whether two traversals took the same steps, with the
// same wildcards, to the same verdict.
func sameWalk(a, b *pipeline.Traversal) bool {
	if a.Verdict != b.Verdict || a.TuplesProbed != b.TuplesProbed || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		x, y := &a.Steps[i], &b.Steps[i]
		if x.TableID != y.TableID || x.Rule != y.Rule || x.Wildcard != y.Wildcard || x.Post != y.Post {
			return false
		}
	}
	return true
}
