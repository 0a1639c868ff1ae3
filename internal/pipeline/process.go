package pipeline

import (
	"errors"
	"fmt"

	"gigaflow/internal/flow"
	"gigaflow/internal/tss"
)

// ErrTooManySteps is returned when a traversal exceeds MaxSteps, which
// indicates a goto-table loop in the pipeline program.
var ErrTooManySteps = errors.New("pipeline: traversal exceeded max steps (goto-table loop?)")

// Resolver turns stateful actions (dnat/snat/ct_nat) into the concrete
// set-field rewrites valid for the packet being traversed. The datapath
// provides one backed by its conntrack table; traversals run without a
// resolver (the reference pipeline walk, cache revalidation) treat
// stateful actions as no-ops, which revalidation then conservatively
// rejects.
type Resolver interface {
	// Resolve maps action a into concrete actions for the current packet
	// and reports the connection tuple and epoch the resolution depended
	// on. ok=false means the action cannot be resolved (no connection,
	// unknown pool) and is skipped. The traversal copies resolved before
	// it calls Resolve again, so an implementation may hand back the same
	// buffer every time.
	Resolve(a flow.Action) (resolved []flow.Action, conn flow.Key, epoch uint64, ok bool)
}

// natTupleMask is the 5-tuple a resolved NAT step unwildcards: the
// rewrite is per-connection, so the composed entry must be exact on the
// connection's identifying fields.
var natTupleMask = flow.ExactFields(
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldIPProto,
	flow.FieldTpSrc, flow.FieldTpDst)

// isStateful reports whether a is resolved against connection state.
func isStateful(a flow.Action) bool {
	return a.Type == flow.ActionDNAT || a.Type == flow.ActionSNAT || a.Type == flow.ActionCtNAT
}

// hasStateful reports whether any of acts is resolved against connection
// state.
func hasStateful(acts []flow.Action) bool {
	for i := range acts {
		if isStateful(acts[i]) {
			return true
		}
	}
	return false
}

// resolveActs rewrites acts — which carry at least one stateful action —
// replacing each stateful action with its per-connection resolution. The
// result is appended to the traversal's action arena and aliases it: valid
// until the traversal is next refilled. dep reports whether anything
// resolved.
//
//gf:hotpath-safe dispatches through the Resolver interface, whose implementations may allocate; only a step carrying a dnat/snat/ct_nat action comes here
func resolveActs(acts []flow.Action, res Resolver, tr *Traversal) (out []flow.Action, dep bool) {
	if tr.acts == nil {
		// Room for a dnat and a ct_nat step beside a few plain actions, so
		// a fresh traversal's arena is one allocation, not a 1-2-4-8 climb.
		tr.acts = make([]flow.Action, 0, 8)
	}
	start := len(tr.acts)
	for _, a := range acts {
		if !isStateful(a) {
			tr.acts = append(tr.acts, a)
			continue
		}
		r, conn, epoch, ok := res.Resolve(a)
		if !ok {
			continue // unresolvable: no-op, like flow.Apply would
		}
		tr.acts = append(tr.acts, r...)
		dep = true
		if tr.CtEpoch == 0 {
			// Record the FIRST resolution's epoch. If a later resolution
			// in the same traversal advances the connection's epoch (a NAT
			// binding established mid-walk), the earlier steps resolved
			// against the pre-bump state; stamping the stale epoch makes
			// every installed entry fail validation immediately, which is
			// the conservative direction.
			tr.CtConn, tr.CtEpoch = conn, epoch
		}
	}
	// Cap the slice so a later step's append cannot write into this one.
	// If the arena grew under an earlier step, that step keeps the old
	// backing array, whose contents nothing rewrites.
	return tr.acts[start:len(tr.acts):len(tr.acts)], dep
}

// Process runs key through the pipeline, producing its traversal. The
// returned traversal always carries a terminal verdict: a table miss with
// no configured continuation, or a non-terminal rule with no next table,
// drops the packet (OpenFlow default semantics).
func (p *Pipeline) Process(key flow.Key) (*Traversal, error) {
	return p.ProcessResolve(key, nil)
}

// ProcessResolve is Process with a Resolver supplied for stateful
// actions; the datapath's slow path uses it when conntrack is enabled.
// Like Process it returns a fresh traversal the caller may keep.
func (p *Pipeline) ProcessResolve(key flow.Key, res Resolver) (*Traversal, error) {
	tr := new(Traversal)
	if err := p.ProcessInto(tr, &key, res); err != nil {
		return nil, err
	}
	return tr, nil
}

// ProcessInto is ProcessResolve refilling a caller-owned traversal: *tr is
// reset and rebuilt in place, its step and action storage reused, so a
// caller that keeps one traversal per datapath walks the pipeline without
// allocating. Everything *tr held before — steps, their Acts — is
// overwritten; on error its contents are unspecified.
//
//gf:hotpath
func (p *Pipeline) ProcessInto(tr *Traversal, key *flow.Key, res Resolver) error {
	if err := p.processInto(tr, p.Start, key, p.MaxSteps, res); err != nil {
		return err
	}
	if !tr.Verdict.Terminal() {
		return ErrTooManySteps
	}
	return nil
}

// ProcessPartial runs key through the pipeline starting at table `start`
// for at most maxSteps lookups. Unlike Process, hitting the step limit is
// not an error: the traversal is returned with a non-terminal verdict and
// NextTable set to the table that would have been visited next. Gigaflow's
// revalidator uses this to re-derive a sub-traversal from its table tag
// (§4.3.1) without replaying the whole pipeline.
func (p *Pipeline) ProcessPartial(start int, key flow.Key, maxSteps int) (*Traversal, error) {
	tr := new(Traversal)
	if err := p.ProcessPartialInto(tr, start, &key, maxSteps); err != nil {
		return nil, err
	}
	return tr, nil
}

// ProcessPartialInto is ProcessPartial refilling a caller-owned traversal,
// under ProcessInto's ownership rules.
//
//gf:hotpath
func (p *Pipeline) ProcessPartialInto(tr *Traversal, start int, key *flow.Key, maxSteps int) error {
	return p.processInto(tr, start, key, maxSteps, nil)
}

// processInto is the one pipeline walk. Each step is built in place in
// tr.Steps' backing array: the classifier writes the wildcard straight
// into the step, the flow state is rewritten in the step's Post, and the
// next step reads its Pre from there.
//
//gf:hotpath
func (p *Pipeline) processInto(tr *Traversal, start int, key *flow.Key, maxSteps int, res Resolver) error {
	if start == NoTable || p.tables[start] == nil {
		return p.errNoTable("no start table", start)
	}
	tr.reset(p, key)
	cur := start
	k := &tr.Input
	for len(tr.Steps) < maxSteps {
		t := p.tables[cur]
		if t == nil {
			return p.errNoTable("goto unknown table", cur)
		}
		step := tr.nextStep()
		step.TableID, step.Pre = cur, *k
		var entry *tss.Entry[*Rule]
		var probes int
		if p.PreciseWildcards {
			entry, probes = t.cls.LookupWildPreciseInto(k, &step.Wildcard, &tr.probed)
		} else {
			entry, probes = t.cls.LookupWildInto(k, &step.Wildcard)
		}
		tr.TuplesProbed += probes

		acts, next := t.MissActions, t.MissNext
		step.Rule = nil
		if entry != nil {
			step.Rule = entry.Value
			acts, next = step.Rule.Actions, step.Rule.Next
		}
		step.CtDep = false
		if res != nil && hasStateful(acts) {
			acts, step.CtDep = resolveActs(acts, res, tr)
		}
		step.Acts = acts
		step.Post = *k
		step.Verdict = flow.ApplyTo(&step.Post, acts)
		if step.CtDep {
			// The resolved rewrite is per-connection: force the composed
			// entry exact on the connection's identifying fields.
			for f := range step.Wildcard {
				step.Wildcard[f] |= natTupleMask[f]
			}
		}
		k = &step.Post

		if !step.Verdict.Terminal() && next == NoTable {
			// Fell off the pipeline without an explicit verdict: drop.
			step.Verdict = flow.Verdict{Kind: flow.VerdictDrop}
		}
		if step.Verdict.Terminal() {
			tr.Verdict = step.Verdict
			return nil
		}
		cur = next
	}
	tr.NextTable = cur
	return nil
}

// errNoTable reports a traversal that named a table the pipeline lacks.
//
//gf:hotpath-safe formats the error for a walk naming a table the pipeline lacks (an empty pipeline, or a miss continuation SetMiss did not check); a well-formed pipeline never comes here
func (p *Pipeline) errNoTable(what string, id int) error {
	return fmt.Errorf("pipeline %s: %s %d", p.Name, what, id)
}

// MustProcess is Process that panics on error; for tests and examples
// operating on known-good pipelines.
func (p *Pipeline) MustProcess(key flow.Key) *Traversal {
	tr, err := p.Process(key)
	if err != nil {
		panic(err)
	}
	return tr
}
