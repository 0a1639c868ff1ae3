package gigaflow

import (
	"fmt"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
)

// Reference is the cache-free oracle the differential suite compares a
// VSwitch against: the same conntrack state machine, ct_state fold, and
// NAT resolution as a conntrack-enabled switch, but every packet takes
// the full pipeline traversal — nothing is ever cached, so no staleness
// is possible and its per-packet results define ground truth.
//
// Equivalence with the cached datapath is by construction, not by luck:
// the VSwitch tracks every packet it is handed, exactly as this walk does,
// before any cache looks at it — so both sides run the same state
// machine over the same packets, observe the same epoch-advancing events
// and BindHash inputs, and therefore bind the same NAT backends and count
// the same conntrack.Stats, given the same packet order and virtual
// clock.
//
// Like the VSwitch, a Reference is single-goroutine.
type Reference struct {
	pipe *Pipeline
	ct   *conntrack.Table
}

// NewReference builds a reference walker over p. maxConns sizes the
// conntrack table exactly as WithConntrack would (0 = unbounded); pass
// ct=false for a stateless reference (plain pipeline walk).
func NewReference(p *Pipeline, ct bool, maxConns int) *Reference {
	r := &Reference{pipe: p}
	if ct {
		r.ct = conntrack.NewTable(maxConns)
	}
	return r
}

// Conntrack returns the reference's connection table, or nil when
// stateless.
func (r *Reference) Conntrack() *conntrack.Table { return r.ct }

// ExpireIdle sweeps the reference's conntrack table with the same
// max-idle the VSwitch under test uses; call it in lockstep with the
// switch's sweep to keep connection lifetimes identical.
func (r *Reference) ExpireIdle(now, maxIdle int64) int {
	if r.ct == nil {
		return 0
	}
	return r.ct.ExpireIdle(now, maxIdle)
}

// Process handles one packet with no TCP flags; see ProcessMeta.
func (r *Reference) Process(k Key, now int64) (ProcessResult, error) {
	return r.ProcessMeta(k, 0, now)
}

// ProcessMeta runs one packet through the full slowpath — conntrack
// fold, NAT resolution, pipeline traversal — and returns the result a
// correct cached datapath must reproduce bit-identically.
func (r *Reference) ProcessMeta(k Key, tcpFlags uint8, now int64) (ProcessResult, error) {
	kt := k
	var conn *conntrack.Conn
	dir := conntrack.DirForward
	if r.ct != nil {
		var bits uint64
		bits, conn, dir = r.ct.Track(k, tcpFlags, now)
		kt = k.With(flow.FieldCtState, bits)
	}
	var tr *Traversal
	var err error
	if r.ct != nil {
		res := ctResolver{ct: r.ct, pipe: r.pipe, conn: conn, dir: dir}
		tr, err = r.pipe.ProcessResolve(kt, &res)
	} else {
		tr, err = r.pipe.Process(kt)
	}
	if err != nil {
		return ProcessResult{}, fmt.Errorf("gigaflow: reference: %w", err)
	}
	return ProcessResult{Verdict: tr.Verdict, Final: tr.FinalKey()}, nil
}
