package pipebench

import (
	"math/rand"
	"testing"

	"gigaflow/internal/flow"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

func genWorkload(t *testing.T, spec *pipelines.Spec, chains int) *Workload {
	t.Helper()
	w, err := Generate(Config{Spec: spec, Seed: 42, NumChains: chains})
	if err != nil {
		t.Fatalf("Generate(%s): %v", spec.Name, err)
	}
	return w
}

func TestGenerateAllPipelines(t *testing.T) {
	for _, spec := range pipelines.All() {
		w := genWorkload(t, spec, 300)
		if len(w.Chains) < 250 {
			t.Errorf("%s: only %d chains installed", spec.Name, len(w.Chains))
		}
		if w.Pipeline.NumRules() == 0 {
			t.Errorf("%s: no rules installed", spec.Name)
		}
		if len(w.Weights) != len(w.Chains) {
			t.Errorf("%s: weights mismatch", spec.Name)
		}
	}
}

func TestRepresentativesTerminate(t *testing.T) {
	for _, spec := range pipelines.All() {
		w := genWorkload(t, spec, 200)
		for i, c := range w.Chains {
			tr, err := w.Pipeline.Process(c.Rep)
			if err != nil {
				t.Fatalf("%s chain %d: %v", spec.Name, i, err)
			}
			if !tr.Verdict.Terminal() {
				t.Fatalf("%s chain %d: no verdict", spec.Name, i)
			}
			if tr.Verdict != c.Verdict {
				t.Fatalf("%s chain %d: verdict drifted", spec.Name, i)
			}
			if !c.Match.MatchesKey(&c.Rep) {
				t.Fatalf("%s chain %d: composed match does not cover its representative", spec.Name, i)
			}
		}
	}
}

func TestMostChainsFollowIntendedTraversal(t *testing.T) {
	// The multi-table ruleset must realise the spec's traversal diversity:
	// most representatives should walk exactly their intended table path
	// (a few get captured by higher-priority overlapping chains, which is
	// realistic).
	for _, spec := range pipelines.All() {
		w := genWorkload(t, spec, 300)
		exact := 0
		for _, c := range w.Chains {
			tr := w.Pipeline.MustProcess(c.Rep)
			want := spec.Traversals[c.Traversal].Tables
			got := tr.TableIDs()
			if len(got) == len(want) {
				same := true
				for i := range got {
					if got[i] != want[i] {
						same = false
						break
					}
				}
				if same {
					exact++
				}
			}
		}
		frac := float64(exact) / float64(len(w.Chains))
		if frac < 0.7 {
			t.Errorf("%s: only %.0f%% of chains follow their intended traversal", spec.Name, 100*frac)
		}
	}
}

func TestTraversalDiversityRealized(t *testing.T) {
	// Across representatives, a healthy fraction of the spec's distinct
	// traversals must actually appear.
	for _, spec := range pipelines.All() {
		w := genWorkload(t, spec, 400)
		seen := map[string]bool{}
		for _, c := range w.Chains {
			tr := w.Pipeline.MustProcess(c.Rep)
			seen[tr.PathSignature()] = true
		}
		if len(seen) < spec.NumTraversals() {
			t.Logf("%s: %d distinct rule paths over %d traversal templates", spec.Name, len(seen), spec.NumTraversals())
		}
		if len(seen) < spec.NumTraversals()/2 {
			t.Errorf("%s: traversal diversity collapsed: %d paths", spec.Name, len(seen))
		}
	}
}

func TestSampleKeyMatchesChain(t *testing.T) {
	w := genWorkload(t, pipelines.PSC, 200)
	rng := rand.New(rand.NewSource(1))
	for ci := range w.Chains {
		for i := 0; i < 3; i++ {
			k := w.SampleKey(ci, rng)
			if !w.Chains[ci].Match.MatchesKey(&k) {
				t.Fatalf("chain %d: sampled key %s escapes composed match %s", ci, k, w.Chains[ci].Match)
			}
			tr, err := w.Pipeline.Process(k)
			if err != nil {
				t.Fatalf("chain %d: %v", ci, err)
			}
			if !tr.Verdict.Terminal() {
				t.Fatalf("chain %d: sampled key has no verdict", ci)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := genWorkload(t, pipelines.OFD, 150)
	b := genWorkload(t, pipelines.OFD, 150)
	if len(a.Chains) != len(b.Chains) {
		t.Fatal("chain counts differ")
	}
	for i := range a.Chains {
		if a.Chains[i].Match != b.Chains[i].Match || a.Chains[i].Verdict != b.Chains[i].Verdict {
			t.Fatalf("chain %d differs across identical seeds", i)
		}
	}
	if a.Pipeline.NumRules() != b.Pipeline.NumRules() {
		t.Fatal("rule counts differ")
	}
}

func TestChainsShareRules(t *testing.T) {
	// Pipeline-aware locality: the installed rules must be shared across
	// chains (total rules ≪ chains × traversal length).
	w := genWorkload(t, pipelines.OLS, 500)
	totalPositions := 0
	for _, c := range w.Chains {
		totalPositions += len(w.Spec.Traversals[c.Traversal].Tables)
	}
	if w.Pipeline.NumRules() >= totalPositions {
		t.Errorf("no rule sharing: %d rules for %d chain positions", w.Pipeline.NumRules(), totalPositions)
	}
	sharing := float64(totalPositions) / float64(w.Pipeline.NumRules())
	if sharing < 1.3 {
		t.Errorf("rule sharing factor %.2f too low", sharing)
	}
}

func TestFlowsGeneration(t *testing.T) {
	w := genWorkload(t, pipelines.PSC, 300)
	tcfg := traffic.Config{Seed: 5, NumFlows: 2000}
	high := w.Flows(tcfg, traffic.HighLocality)
	low := w.Flows(tcfg, traffic.LowLocality)
	if len(high) != 2000 || len(low) != 2000 {
		t.Fatalf("flow counts: %d / %d", len(high), len(low))
	}
	// High locality concentrates on fewer chains than low locality.
	distinct := func(flows []traffic.Flow) int {
		s := map[int]bool{}
		for _, f := range flows {
			s[f.RuleIdx] = true
		}
		return len(s)
	}
	dh, dl := distinct(high), distinct(low)
	if dh >= dl {
		t.Errorf("high locality should span fewer chains: high=%d low=%d", dh, dl)
	}
	// Every flow key must terminate in the pipeline.
	for _, f := range high[:200] {
		tr, err := w.Pipeline.Process(f.Key)
		if err != nil || !tr.Verdict.Terminal() {
			t.Fatalf("flow key %s: err=%v", f.Key, err)
		}
	}
}

func TestDropChainsProduceDropVerdicts(t *testing.T) {
	w := genWorkload(t, pipelines.OTL, 400)
	drops := 0
	for _, c := range w.Chains {
		if c.Verdict.Kind == flow.VerdictDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no drop chains realised despite drop traversals in spec")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("nil spec must fail")
	}
	if _, err := Generate(Config{Spec: pipelines.PSC}); err == nil {
		t.Error("zero chains must fail")
	}
}
