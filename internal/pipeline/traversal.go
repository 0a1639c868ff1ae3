package pipeline

import (
	"fmt"
	"strconv"
	"strings"

	"gigaflow/internal/flow"
	"gigaflow/internal/tss"
)

// Step records one table lookup of a traversal.
type Step struct {
	TableID int
	// Rule is the matched rule, or nil when the table missed and its miss
	// behaviour was taken.
	Rule *Rule
	// Wildcard is W_i: the header bits this lookup examined, expressed
	// against the flow state entering the step. It includes the dependency
	// bits required so that any packet agreeing with Pre on these bits
	// takes the same step (tuple-union unwildcarding).
	Wildcard flow.Mask
	// Pre and Post are the flow state entering and leaving the step (Post
	// reflects this step's set-field actions).
	Pre, Post flow.Key
	// Acts are the actions executed at this step: the matched rule's
	// actions, or the table's miss actions on a miss step. When a
	// stateful action was resolved at this step, Acts holds the resolved
	// concrete actions, not the rule's originals, and aliases storage the
	// traversal owns.
	Acts []flow.Action
	// Verdict is the terminal decision made at this step, if any.
	Verdict flow.Verdict
	// Probes is the TSS tuples this step's lookup probed: what a walk of a
	// suffix of the traversal alone would count for it.
	Probes int
	// CtDep marks a step whose actions were resolved against a connection
	// (a NAT binding): cache entries composed over it are only valid for
	// that connection while its bindings stand.
	CtDep bool
}

// RuleID returns the matched rule's ID, or -1 on a miss step.
func (s *Step) RuleID() int64 {
	if s.Rule == nil {
		return -1
	}
	return s.Rule.ID
}

// Traversal is the paper's ⟨T, F, W⟩ vector: the complete record of one
// packet's walk through the pipeline. It is the unit both cache compilers
// consume.
//
// A traversal owns its storage. Process and ProcessResolve return a fresh
// one the caller may keep for as long as it likes;
// ProcessInto and ProcessPartialInto refill one the caller owns, reusing
// its Steps array and action arena, so everything read from it — Steps,
// a step's resolved Acts — is valid only until it is refilled. The zero
// value is ready to be filled.
type Traversal struct {
	Pipeline *Pipeline
	// Version is the pipeline version the traversal was computed against.
	Version uint64
	// Input is the original flow signature F.
	Input flow.Key
	// Steps is the lookup sequence (T, F^i, W_i per step).
	Steps []Step
	// Verdict is the packet's fate.
	Verdict flow.Verdict
	// NextTable is the table a partial traversal would visit next when it
	// stopped at a step limit instead of a terminal verdict; NoTable
	// otherwise.
	NextTable int
	// TuplesProbed is the total TSS tuples probed, for CPU accounting: the
	// sum of the steps' Probes.
	TuplesProbed int
	// CtConn and CtEpoch identify the connection state any CtDep steps
	// were resolved against: the connection's tuple and its epoch at
	// resolution time. Zero-valued when no step is connection-dependent.
	CtConn  flow.Key
	CtEpoch uint64

	// acts is the arena the resolved actions of CtDep steps are appended
	// to; their Acts slices alias it.
	acts []flow.Action
	// probed is the scratch a PreciseWildcards lookup records its tuple
	// visits in, so walking a pipeline writes nothing to it.
	probed tss.Probed[*Rule]
}

// reset readies tr for a walk of p from key, keeping its storage.
func (tr *Traversal) reset(p *Pipeline, key *flow.Key) {
	tr.Pipeline, tr.Version, tr.Input = p, p.Version, *key
	tr.Steps, tr.acts = tr.Steps[:0], tr.acts[:0]
	tr.Verdict, tr.NextTable, tr.TuplesProbed = flow.Verdict{}, NoTable, 0
	tr.CtConn, tr.CtEpoch = flow.Key{}, 0
}

// nextStep extends Steps by one and returns the new step. It may hold a
// previous walk's values: the walk overwrites every field.
func (tr *Traversal) nextStep() *Step {
	n := len(tr.Steps)
	if n == cap(tr.Steps) {
		tr.growSteps()
	}
	tr.Steps = tr.Steps[:n+1]
	return &tr.Steps[n]
}

// growSteps doubles the Steps array, from room for 8 — more than the
// evaluation pipelines' typical walk — so a fresh traversal is filled with
// one array allocation and a reused one with none.
//
//gf:hotpath-safe scratch growth: a reused traversal comes here only until its Steps array has reached its longest walk
func (tr *Traversal) growSteps() {
	n := 2 * cap(tr.Steps)
	if n < 8 {
		n = 8
	}
	steps := make([]Step, len(tr.Steps), n)
	copy(steps, tr.Steps)
	tr.Steps = steps
}

// Len reports the traversal length N (number of table lookups).
func (tr *Traversal) Len() int { return len(tr.Steps) }

// TableIDs returns the T vector.
func (tr *Traversal) TableIDs() []int {
	out := make([]int, len(tr.Steps))
	for i := range tr.Steps {
		out[i] = tr.Steps[i].TableID
	}
	return out
}

// FinalKey returns the flow state after the last step.
func (tr *Traversal) FinalKey() flow.Key {
	if len(tr.Steps) == 0 {
		return tr.Input
	}
	return tr.Steps[len(tr.Steps)-1].Post
}

// PathSignature identifies the traversal's path — the table/rule sequence —
// independent of the packet that produced it. Two flows share pipeline
// structure exactly when their signatures are equal; Fig. 11's sharing
// statistic counts flows per signature.
func (tr *Traversal) PathSignature() string {
	return tr.SegmentSignature(0, len(tr.Steps))
}

// SegmentSignature is PathSignature restricted to Steps[i:j] (j exclusive);
// it identifies a sub-traversal's path.
func (tr *Traversal) SegmentSignature(i, j int) string {
	b := make([]byte, 0, 12*(j-i))
	for s := i; s < j; s++ {
		if s > i {
			b = append(b, '>')
		}
		b = append(b, 't')
		b = strconv.AppendInt(b, int64(tr.Steps[s].TableID), 10)
		b = append(b, ":r"...)
		b = strconv.AppendInt(b, tr.Steps[s].RuleID(), 10)
	}
	return string(b)
}

// StepFields returns the FieldSet examined at step i (the fields with
// significant bits in W_i), the input to the disjointness analysis.
func (tr *Traversal) StepFields(i int) flow.FieldSet {
	return tr.Steps[i].Wildcard.Fields()
}

// SegmentCtDep reports whether any step in [i,j) resolved actions
// against a connection; entries composed over such a range must record
// (CtConn, CtEpoch) and are invalidated when the connection dies, its
// tuple is reused or it is bound anew (conntrack.Table.EpochValid).
func (tr *Traversal) SegmentCtDep(i, j int) bool {
	for s := i; s < j; s++ {
		if tr.Steps[s].CtDep {
			return true
		}
	}
	return false
}

// Compose flattens Steps[i:j] (j exclusive) into a single cache-rule
// specification: the match predicate over the flow state entering step i,
// and the set-field commit transforming any matching packet into the state
// it would leave step j-1 with.
//
// Two rules make the composition sound for every packet the match covers,
// not just the one that produced the traversal:
//
//   - Rewrite shadowing: bits written by an earlier step inside the range
//     are excluded from the composed mask — their values at later steps are
//     determined by the range's own (absolute) set-field actions, not by
//     the packet, exactly as OVS's megaflow translation treats them.
//   - Net-write commit: the commit sets every bit written anywhere in the
//     range to its final absolute value, even when the recorded packet
//     happened to already carry that value. A pure before/after diff (the
//     paper's literal "commit" description) would make action emission
//     depend on the packet's pre-rewrite value, silently corrupting
//     wildcard hits whose entry value differs; OVS avoids the same hazard
//     by unwildcarding every field its commit examines, which shrinks the
//     megaflow. With absolute set-field actions the net-write form is
//     sound and keeps the match as wide as possible.
//
// Compose over the full range is precisely Megaflow-rule generation;
// sub-ranges are Gigaflow's sub-traversal rules (ω_k, M_k, α_k of §4.2.3).
func (tr *Traversal) Compose(i, j int) (match flow.Match, commit flow.Rewrite) {
	var c Composed
	tr.ComposeInto(i, j, &c)
	return c.Match, c.Commit
}

// Composed is one flattened range of a traversal, as Compose describes it:
// the match predicate and the commit, as one masked overwrite of every bit
// the range writes. It is the scratch the install paths compose every
// candidate rule into, copying out only what they decide to keep.
type Composed struct {
	Match  flow.Match
	Commit flow.Rewrite
}

// ComposeInto is Compose writing into caller-owned scratch.
//
//gf:hotpath
func (tr *Traversal) ComposeInto(i, j int, c *Composed) {
	if i < 0 || j > len(tr.Steps) || i >= j {
		tr.badRange(i, j)
	}
	omega, written := &c.Match.Mask, &c.Commit.Mask
	*omega, *written = flow.Mask{}, flow.Mask{}
	for s := i; s < j; s++ {
		st := &tr.Steps[s]
		for w := range omega {
			omega[w] |= st.Wildcard[w] &^ written[w]
		}
		for a := range st.Acts {
			if act := &st.Acts[a]; act.Type == flow.ActionSetField {
				written.OrField(act.Field, act.Mask)
			}
		}
	}
	entry, post := &tr.Steps[i].Pre, &tr.Steps[j-1].Post
	for w := range omega {
		c.Match.Key[w] = entry[w] & omega[w]
		c.Commit.Val[w] = post[w] & written[w]
	}
}

// badRange panics on a compose range outside the traversal.
//
//gf:hotpath-safe a compose range outside the traversal is a caller bug; the panic message is formatted here, off the compose path
func (tr *Traversal) badRange(i, j int) {
	panic(fmt.Sprintf("pipeline: bad compose range [%d,%d) of %d steps", i, j, len(tr.Steps)))
}

// String renders the traversal for debugging.
func (tr *Traversal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traversal[%s] %s:", tr.Pipeline.Name, tr.Verdict)
	for i := range tr.Steps {
		s := &tr.Steps[i]
		fmt.Fprintf(&b, "\n  t%d r%d wild=%s", s.TableID, s.RuleID(), s.Wildcard)
	}
	return b.String()
}
