package pipeline_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/pipelines"
)

// resumeWorlds is one small workload of each of the paper's five
// pipelines, built once.
var resumeWorlds struct {
	once sync.Once
	err  error
	w    []*pipebench.Workload
}

func resumeWorldsSetup() {
	for _, spec := range pipelines.All() {
		w, err := pipebench.Generate(pipebench.Config{Spec: spec, Seed: 3, NumChains: 300})
		if err != nil {
			resumeWorlds.err = err
			return
		}
		resumeWorlds.w = append(resumeWorlds.w, w)
	}
}

// FuzzResumeWalk is the premise a stalled miss resumes on: all pipeline
// state is in the key, so the walk from any step t of a full walk — from
// that step's table, with the flow state entering it, for the steps the
// budget has left — is the full walk's suffix, step for step, down to the
// tuples each lookup probed, and ends in the same verdict and final key.
// The input picks a pipeline, a chain of its workload, the key sampled from
// that chain, and the wildcard mode; the seeds cover every pipeline in
// both modes.
func FuzzResumeWalk(f *testing.F) {
	for i := range pipelines.All() {
		f.Add(uint8(i), uint32(7*i+1), int64(i), false)
		f.Add(uint8(i), uint32(101*i+5), int64(i+11), true)
	}
	f.Fuzz(func(t *testing.T, which uint8, chain uint32, seed int64, precise bool) {
		resumeWorlds.once.Do(resumeWorldsSetup)
		if resumeWorlds.err != nil {
			t.Fatal(resumeWorlds.err)
		}
		w := resumeWorlds.w[int(which)%len(resumeWorlds.w)]
		p := w.Pipeline
		p.PreciseWildcards = precise
		defer func() { p.PreciseWildcards = false }()
		k := w.SampleKey(int(chain%uint32(len(w.Chains))), rand.New(rand.NewSource(seed)))
		full, err := p.Process(k)
		if err != nil {
			t.Fatal(err)
		}
		var tr pipeline.Traversal
		for cut := range full.Steps {
			at := &full.Steps[cut]
			if err := p.ProcessPartialInto(&tr, at.TableID, &at.Pre, p.MaxSteps-cut); err != nil {
				t.Fatalf("%s, cut %d: %v", p.Name, cut, err)
			}
			if tr.Verdict != full.Verdict || tr.FinalKey() != full.FinalKey() || tr.Len() != full.Len()-cut {
				t.Fatalf("%s, cut %d: %d steps to %v, %s; the full walk's suffix is %d steps to %v, %s",
					p.Name, cut, tr.Len(), tr.Verdict, tr.FinalKey(), full.Len()-cut, full.Verdict, full.FinalKey())
			}
			probes := 0
			for i := range tr.Steps {
				got, want := &tr.Steps[i], &full.Steps[cut+i]
				if got.TableID != want.TableID || got.Rule != want.Rule || got.Wildcard != want.Wildcard ||
					got.Pre != want.Pre || got.Post != want.Post || !slices.Equal(got.Acts, want.Acts) ||
					got.Verdict != want.Verdict || got.Probes != want.Probes || got.CtDep != want.CtDep {
					t.Fatalf("%s, cut %d, step %d:\n got %+v\nwant %+v", p.Name, cut, cut+i, *got, *want)
				}
				probes += got.Probes
			}
			if probes != tr.TuplesProbed {
				t.Fatalf("%s, cut %d: steps probed %d tuples, the traversal counts %d", p.Name, cut, probes, tr.TuplesProbed)
			}
		}
		var sum int
		for i := range full.Steps {
			sum += full.Steps[i].Probes
		}
		if sum != full.TuplesProbed {
			t.Fatalf("%s: steps probed %d tuples, the traversal counts %d", p.Name, sum, full.TuplesProbed)
		}
	})
}
