// Package pipebench is this repository's version of the paper's Pipebench
// tool (§6.1): it instantiates a real-world pipeline model
// (pipelines.Spec) into a concrete multi-table ruleset by mapping
// ClassBench-style rules onto the pipeline's traversal templates, and
// synthesises matching traffic with high- or low-locality rule recurrence.
//
// For each installed "chain", Pipebench picks a traversal, a ClassBench
// rule, and an L2 context (ingress port + MACs drawn from small pools),
// then walks the traversal installing one rule per table: each table
// matches the fields its stage template declares — 5-tuple fields take the
// ClassBench rule's prefix/port constraints, L2 fields the context values —
// and rewriting stages (L3 routing, load balancers, NAT) apply set-field
// actions that downstream tables observe. Chains that share ClassBench
// sub-tuples therefore share pipeline rules — the pipeline-aware locality
// Gigaflow exploits.
package pipebench

import (
	"fmt"
	"math"
	"math/rand"

	"gigaflow/internal/classbench"
	"gigaflow/internal/flow"
	"gigaflow/internal/pipeline"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

// Config parameterises workload generation.
type Config struct {
	Spec        *pipelines.Spec
	Seed        int64
	Personality classbench.Personality
	// NumChains is the number of multi-table rule chains to install.
	NumChains int
	// ClassbenchRules sizes the underlying 5-tuple rule pool (default
	// 2×NumChains, min 1000).
	ClassbenchRules int
	// Contexts is the number of L2 contexts per traversal (default 4);
	// fewer contexts mean more early-table sharing, more contexts mean a
	// larger cross-product of flow classes.
	Contexts int
	// NativePrefixes keeps each ClassBench rule's own IP prefix lengths
	// instead of re-anchoring them to the table's canonical granularity.
	// This yields high TSS tuple diversity (and correspondingly narrow
	// megaflows) — the classifier-bound regime of the paper's Fig. 17
	// search-algorithm comparison.
	NativePrefixes bool
	// PreciseWildcards switches the built pipeline to minimal-bit
	// dependency unwildcarding (pipeline.Pipeline.PreciseWildcards):
	// megaflows keep only provably-needed bits, at higher slowpath cost.
	PreciseWildcards bool
}

// PaperConfig returns the workload configuration used for the paper-scale
// experiments (§6.1: ~100K unique flows per pipeline). The ClassBench pool
// and per-traversal L2 context count scale inversely with the pipeline's
// traversal count so that total flow-class diversity (contexts ×
// projections, the megaflow demand) is comparable across pipelines while
// each cache table's segment-variant demand stays within a few thousand.
func PaperConfig(spec *pipelines.Spec, seed int64) Config {
	nt := spec.NumTraversals()
	cb := 8000 / nt
	if cb < 300 {
		cb = 300
	}
	ctx := 1024 / nt
	if ctx < 16 {
		ctx = 16
	}
	return Config{
		Spec:            spec,
		Seed:            seed,
		NumChains:       120000,
		ClassbenchRules: cb,
		Contexts:        ctx,
	}
}

func (c Config) withDefaults() Config {
	if c.ClassbenchRules == 0 {
		c.ClassbenchRules = 2 * c.NumChains
		if c.ClassbenchRules < 1000 {
			c.ClassbenchRules = 1000
		}
	}
	if c.Contexts == 0 {
		c.Contexts = 4
	}
	return c
}

// Chain records one installed rule chain.
type Chain struct {
	// Traversal indexes Spec.Traversals; Rule indexes the ClassBench pool;
	// Ctx indexes the traversal's L2-context pool.
	Traversal int
	Rule      int
	Ctx       int
	// Match is the composed megaflow of the chain's representative packet
	// after installation (against the fully populated pipeline), and
	// Verdict its fate. Traffic keys are sampled from Match.
	Match   flow.Match
	Verdict flow.Verdict
	// Rep is the representative key.
	Rep flow.Key
}

// Workload is a fully instantiated pipeline plus its traffic model.
type Workload struct {
	Spec     *pipelines.Spec
	Pipeline *pipeline.Pipeline
	Chains   []Chain
	// Weights are per-chain high-locality selection weights (derived from
	// ClassBench tuple-sharing frequencies).
	Weights []float64

	cfg   Config
	rules []classbench.Rule
}

// l2ctx is a reusable L2 environment for a traversal's chains.
type l2ctx struct {
	inPort         uint64
	ethSrc, ethDst uint64
}

// Generate builds the workload. It is deterministic in cfg.Seed.
func Generate(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	if cfg.Spec == nil || cfg.NumChains <= 0 {
		return nil, fmt.Errorf("pipebench: need a spec and positive NumChains")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cbRules := classbench.Generate(classbench.Config{
		Personality: cfg.Personality,
		Seed:        cfg.Seed + 1,
		NumRules:    cfg.ClassbenchRules,
	})
	if len(cbRules) == 0 {
		return nil, fmt.Errorf("pipebench: classbench produced no rules")
	}
	cbWeights := classbench.RuleWeights(cbRules)

	w := &Workload{Spec: cfg.Spec, Pipeline: cfg.Spec.Build(), cfg: cfg, rules: cbRules}
	w.Pipeline.PreciseWildcards = cfg.PreciseWildcards

	// Per-traversal L2 contexts: which port/MACs a packet arrives with
	// determines which path it takes (different tenants, different
	// policies), so context pools are disjoint across traversals. Small
	// pools keep early tables highly shared within a traversal.
	ctxs := make([][]l2ctx, len(cfg.Spec.Traversals))
	for ti := range ctxs {
		ctxs[ti] = make([]l2ctx, cfg.Contexts)
		for ci := range ctxs[ti] {
			ctxs[ti][ci] = l2ctx{
				inPort: uint64(ti*cfg.Contexts + ci + 1),
				ethSrc: 0x020000000000 | uint64(ti)<<8 | uint64(ci),
				ethDst: 0x020000010000 | uint64(ti)<<8 | uint64(rng.Intn(2)),
			}
		}
	}

	seen := map[string]bool{}
	var chainCtx []l2ctx
	attempts := 0
	maxAttempts := cfg.NumChains * 30
	for len(w.Chains) < cfg.NumChains && attempts < maxAttempts {
		attempts++
		ti := rng.Intn(len(cfg.Spec.Traversals))
		ri := rng.Intn(len(cbRules))
		ci := rng.Intn(cfg.Contexts)
		id := fmt.Sprintf("%d/%d/%d", ti, ri, ci)
		if seen[id] {
			continue
		}
		seen[id] = true
		if w.installChain(ti, ri, ctxs[ti][ci], rng) {
			w.Chains = append(w.Chains, Chain{Traversal: ti, Rule: ri, Ctx: ci})
			chainCtx = append(chainCtx, ctxs[ti][ci])
		}
	}
	if len(w.Chains) == 0 {
		return nil, fmt.Errorf("pipebench: could not install any chain")
	}

	// Resolve each chain's representative traversal against the complete
	// pipeline (later chains may have installed higher-priority rules that
	// re-route earlier representatives; the composed match reflects what
	// the packet actually does).
	// High-locality chain weights model pipeline-aware popularity: a chain
	// is hot when both its rule projection (ClassBench tuple-sharing
	// weight) and its L2 context (Zipf-ranked) are popular. Popular
	// sub-traversals are then reused across many hot chains even though
	// the chains' full megaflows remain distinct — exactly the locality
	// Gigaflow exploits and Megaflow cannot.
	w.Weights = make([]float64, len(w.Chains))
	for i := range w.Chains {
		c := &w.Chains[i]
		c.Rep = w.repKey(c.Traversal, c.Rule, chainCtx[i])
		tr, err := w.Pipeline.Process(c.Rep)
		if err != nil {
			return nil, fmt.Errorf("pipebench: representative of chain %d: %v", i, err)
		}
		c.Match, _ = tr.Compose(0, tr.Len())
		c.Verdict = tr.Verdict
		rw := cbWeights[c.Rule]
		ctxW := math.Pow(float64(c.Ctx+1), -0.8) // Zipf-ranked context popularity
		w.Weights[i] = rw * rw * ctxW
	}
	return w, nil
}

// repKey builds the representative packet for (traversal, rule, ctx):
// the ClassBench rule's canonical values plus the L2 context.
func (w *Workload) repKey(ti, ri int, ctx l2ctx) flow.Key {
	r := w.rules[ri]
	k := r.Match.Key
	k = k.With(flow.FieldInPort, ctx.inPort)
	k = k.With(flow.FieldEthSrc, ctx.ethSrc)
	k = k.With(flow.FieldEthDst, ctx.ethDst)
	k = k.With(flow.FieldEthType, 0x0800)
	if r.Match.Mask.Get(flow.FieldIPProto) == 0 {
		k = k.With(flow.FieldIPProto, 6)
	}
	// Fields the rule wildcards still need plausible representative values
	// (stage templates may classify on them exactly).
	if r.Match.Mask.Get(flow.FieldTpSrc) == 0 {
		k = k.With(flow.FieldTpSrc, uint64(1024+ri%60000))
	}
	if r.Match.Mask.Get(flow.FieldTpDst) == 0 {
		k = k.With(flow.FieldTpDst, uint64(2048+(ri*31)%60000))
	}
	return k
}

// installChain plans and installs one rule per traversal table, threading
// rewrites through the representative flow state. Returns false when an
// irreconcilable conflict with already-installed rules exists (same match
// and priority, different behaviour); in that case nothing is installed.
func (w *Workload) installChain(ti, ri int, ctx l2ctx, rng *rand.Rand) bool {
	spec := w.Spec
	trav := spec.Traversals[ti]
	rule := w.rules[ri]
	state := w.repKey(ti, ri, ctx)
	rewritten := flow.FieldSet(0)

	type planned struct {
		tableID  int
		match    flow.Match
		priority int
		actions  []flow.Action
		next     int
	}
	plan := make([]planned, 0, len(trav.Tables))

	// Metadata steering: the first table stamps the traversal's metadata
	// value (as real pipelines set registers/conntrack marks); every later
	// table matches it, so narrow stages (e.g. protocol-only conntrack
	// tables) still branch per traversal exactly as register-driven
	// pipelines do.
	metaVal := uint64(ti + 1)

	for pos, tid := range trav.Tables {
		ts := spec.Table(tid)
		m := flow.MatchAll()
		if pos > 0 {
			m = m.WithField(flow.FieldMeta, metaVal)
		}
		for _, f := range ts.Fields.Fields() {
			switch {
			case f == flow.FieldEthType:
				m = m.WithField(f, 0x0800)
			case isTupleField(f) && !rewritten.Contains(f) && rule.Match.Mask.Get(f) != 0:
				// The ClassBench rule's constraint. IP prefixes are
				// re-anchored to the table's canonical prefix length: real
				// vSwitch tables classify at a stage-specific granularity
				// (one or two masks per table), which is also what keeps
				// TSS tuple counts — and megaflow unwildcarding — sane.
				mask := rule.Match.Mask.Get(f)
				if !w.cfg.NativePrefixes && (f == flow.FieldIPSrc || f == flow.FieldIPDst) {
					mask = flow.PrefixMask(f, tablePrefixLen(tid, f))
				}
				m = m.WithMaskedField(f, rule.Match.Key.Get(f), mask)
			case isTupleField(f) && !rewritten.Contains(f):
				// Rule wildcards this field: the stage template still
				// classifies on it, so match the representative value
				// broadly (top byte for IPs, exact otherwise).
				if f == flow.FieldIPSrc || f == flow.FieldIPDst {
					m = m.WithMaskedField(f, state.Get(f), flow.PrefixMask(f, 8))
				} else {
					m = m.WithField(f, state.Get(f))
				}
			default:
				// L2 context fields and rewritten fields: exact current
				// value.
				m = m.WithField(f, state.Get(f))
			}
		}

		m.NormalizeInPlace()
		var acts []flow.Action
		if pos == 0 {
			acts = append(acts, flow.SetField(flow.FieldMeta, metaVal))
			rewritten = rewritten.Add(flow.FieldMeta)
		}
		for _, f := range ts.Rewrites.Fields() {
			// The rewrite constant is a pure function of (table, match):
			// the same route/service entry always rewrites to the same
			// next hop, so chains sharing a rule agree on its actions.
			nv := rewriteValue(f, matchHash(tid, m))
			acts = append(acts, flow.SetField(f, nv))
			rewritten = rewritten.Add(f)
		}
		next := pipeline.NoTable
		last := pos == len(trav.Tables)-1
		if last {
			if trav.Drop {
				acts = append(acts, flow.Drop())
			} else {
				acts = append(acts, flow.Output(uint16(1+ti%30)))
			}
		} else {
			next = trav.Tables[pos+1]
		}
		// Priority reflects match specificity (longest-match semantics);
		// identical predicates always carry identical priority so chains
		// can share rules.
		plan = append(plan, planned{tableID: tid, match: m, priority: m.Mask.BitCount(), actions: acts, next: next})
		state, _ = flow.Apply(state, acts)
	}

	// Conflict check before touching the pipeline.
	for _, pl := range plan {
		if existing := findRule(w.Pipeline, pl.tableID, pl.match, pl.priority); existing != nil {
			if existing.Next != pl.next || !flow.ActionsEqual(existing.Actions, pl.actions) {
				return false
			}
		}
	}
	for _, pl := range plan {
		if existing := findRule(w.Pipeline, pl.tableID, pl.match, pl.priority); existing != nil {
			continue // shared with a previous chain
		}
		w.Pipeline.MustAddRule(pl.tableID, pl.match, pl.priority, pl.actions, pl.next)
	}
	return true
}

// tablePrefixLen is the canonical IP-prefix granularity of a pipeline
// stage: routing-style tables use /16 or /24 deterministically by table
// ID. Keeping one prefix length per (table, field) mirrors real stages and
// leaves host bits wildcarded in composed cache rules, so each rule chain
// covers many concrete flows.
func tablePrefixLen(tableID int, f flow.FieldID) uint {
	lens := [...]uint{16, 24, 24, 20}
	h := uint(tableID)*7 + uint(f)*3
	return lens[h%uint(len(lens))]
}

func isTupleField(f flow.FieldID) bool {
	switch f {
	case flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto, flow.FieldTpSrc, flow.FieldTpDst:
		return true
	}
	return false
}

// matchHash derives a stable seed from a table ID and a match predicate
// (FNV-1a over the key and mask lanes).
func matchHash(tableID int, m flow.Match) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(tableID))
	for f := flow.FieldID(0); f < flow.NumFields; f++ {
		mix(m.Key.Get(f))
		mix(m.Mask.Get(f))
	}
	return h
}

// rewriteValue derives the constant a rewriting stage writes, from small
// per-field pools (router MACs, LB backend IPs, NAT addresses), selected
// deterministically by seed.
func rewriteValue(f flow.FieldID, seed uint64) uint64 {
	switch f {
	case flow.FieldEthSrc:
		return 0x0a0000000100 | seed%8
	case flow.FieldEthDst:
		return 0x0a0000000200 | seed%8
	case flow.FieldIPSrc:
		return 0xc6120000 | seed%16 // 198.18.0.0/16 NAT pool
	case flow.FieldIPDst:
		return 0x0a640000 | seed%16 // 10.100.0.0/16 backends
	case flow.FieldTpSrc, flow.FieldTpDst:
		return 30000 + seed%16
	default:
		return seed % (1 << 8)
	}
}

// findRule locates an installed rule by table, match, and priority.
func findRule(p *pipeline.Pipeline, tableID int, m flow.Match, prio int) *pipeline.Rule {
	t := p.Table(tableID)
	if t == nil {
		return nil
	}
	if r, ok := t.FindRule(m, prio); ok {
		return r
	}
	return nil
}

// SampleKey draws a concrete flow key for chain ci: the chain's composed
// match with unconstrained bits randomised (ports and IP host bits), so
// distinct flows of the same chain differ while still matching it.
func (w *Workload) SampleKey(ci int, rng *rand.Rand) flow.Key {
	c := &w.Chains[ci]
	k := c.Match.Key
	for _, f := range []flow.FieldID{flow.FieldIPSrc, flow.FieldIPDst, flow.FieldTpSrc, flow.FieldTpDst} {
		if free := c.Match.Mask.Get(f) ^ f.MaxValue(); free != 0 {
			k = k.WithMasked(f, rng.Uint64(), free)
		}
	}
	// Non-5-tuple free bits stay at the representative's values: L2
	// identity does not vary within a chain.
	for _, f := range []flow.FieldID{flow.FieldInPort, flow.FieldEthSrc, flow.FieldEthDst, flow.FieldEthType, flow.FieldIPProto} {
		if c.Match.Mask.Get(f) == 0 {
			k = k.With(f, c.Rep.Get(f))
		}
	}
	return k
}

// Picker builds the traffic rule-selection picker for the locality mode.
func (w *Workload) Picker(loc traffic.Locality) *traffic.Picker {
	return w.PickerRange(loc, 0, len(w.Chains))
}

// PickerRange builds a picker restricted to chains [lo, hi) — used to
// model distinct workloads over disjoint flow populations (Fig. 18's
// dynamically arriving workload).
func (w *Workload) PickerRange(loc traffic.Locality, lo, hi int) *traffic.Picker {
	weights := make([]float64, len(w.Chains))
	for i := lo; i < hi && i < len(w.Chains); i++ {
		if loc == traffic.HighLocality {
			weights[i] = w.Weights[i]
		} else {
			weights[i] = 1
		}
	}
	return traffic.NewPicker(weights)
}

// Flows generates tcfg.NumFlows flows over the workload's chains with the
// given locality.
func (w *Workload) Flows(tcfg traffic.Config, loc traffic.Locality) []traffic.Flow {
	return traffic.GenerateFlows(tcfg, w.Picker(loc), w.SampleKey)
}
