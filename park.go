package gigaflow

import (
	"gigaflow/internal/conntrack"
	"gigaflow/internal/telemetry"
)

// Park-mode processing. In park mode a main-cache miss is not punted to
// the pipeline inline — the lookup chain reports it to the caller, who may
// walk it elsewhere and finishes the miss later through CompleteMiss
// (fresh traversal) or by replaying the packet through Process (failed or
// stale traversal). The service walks every miss inline on the shard that
// owns it (DESIGN.md §10) and parks nothing: this API stays only for the
// benchmark's shadow chain (bench/replay.go's parkDriver) until ROADMAP
// item 15, which deletes it together with that chain.
//
// Accounting discipline — the reason async totals match inline exactly:
// a parked packet is counted NOWHERE at park time, not even in
// Stats.Packets. The flow's one traversal is accounted once, by
// CompleteMiss (Packets, CacheMisses, Installs/InstallErrs),
// exactly as processMiss would have; every other packet that parked
// behind the same pending flow is replayed through Process after the
// install and counts as the cache hit it would have been inline, where
// the first packet's miss installs before later packets of the flow are
// processed.

// ProcessPark is Process in park mode: hits behave identically to
// Process, but a main-cache miss returns parked=true with nothing counted
// and no slow-path work done. The caller owns the miss from there.
// Park-mode calls carry no TCP flags, like Process; on a conntrack switch
// nothing is ever parked (see run). It stays for the benchmark's shadow
// chain until ROADMAP item 15.
//
//gf:hotpath
func (v *VSwitch) ProcessPark(k Key, now int64) (res ProcessResult, parked bool, err error) {
	o := &v.one
	o.key[0] = k
	v.run(o.key[:], nil, o.out[:], o.err[:], o.parked[:], now)
	return o.out[0], o.parked[0], o.err[0]
}

// ProcessBatchPark is a flagless ProcessBatchMeta in park mode: packet
// i's miss sets parked[i] instead of running the slow path, with out[i]
// zeroed and no counters touched for it. out, errs, and parked must all
// be at least len(keys) long. Hits, memoization, and in-batch visibility
// of earlier packets' microflow entries are identical to ProcessBatchMeta.
// It stays for the benchmark's shadow chain until ROADMAP item 15.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchPark(keys []Key, out []ProcessResult, errs []error, parked []bool, now int64) {
	v.run(keys, nil, out, errs, parked[:len(keys)], now)
}

// CompleteMiss finishes a parked miss whose traversal the caller already
// ran: it installs the traversal's rules, memoizes the flow, and
// counts the packet and its one slow-path traversal — processMiss with the
// traversal done elsewhere; the install half is the same body. With
// WithStallResume, where the packet's second-chance lookup stalled, only
// the traversal's suffix past the stall is installed and counted, as the
// inline miss would have resumed (suffixAt). tr must be
// a successful traversal of k computed against the current pipeline
// version; the caller is responsible for replaying the packet through
// Process instead when the traversal failed or a rule update made it
// stale (Traversal.Version != Pipeline().Version). A conntrack switch
// replays it here: it parks nothing, and a traversal walked without the
// packet's connection is not one it may install. There tr, travNs and
// parkNs are ignored — the call is Process(k, now) — so the result may be
// a cache hit, and its flight record is an ordinary one, not Deferred.
//
// Callers must give the packet a second-chance lookup (ProcessPark)
// before completing: while this flow waited, another flow's completion
// may have installed a wildcard entry that covers it — inline, this
// packet would have hit that entry, so completing blindly would count a
// miss and an install the inline switch never saw. Only a
// still-missing flow consumes its traversal.
//
// travNs is the traversal span measured where the walk ran and parkNs the
// wait before it; the flight record written for the completion carries
// both, flagged FlightDeferred.
//
// Like every VSwitch method it must run on the goroutine driving the
// switch. It stays for the benchmark's shadow chain until ROADMAP item 15.
func (v *VSwitch) CompleteMiss(k Key, tr *Traversal, now, travNs, parkNs int64) (ProcessResult, error) {
	if v.ct != nil {
		return v.Process(k, now)
	}
	v.stats.Packets++
	v.stats.CacheMisses++
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	var o ProcessResult
	tr, table := v.suffixAt(tr)
	flags := telemetry.FlightMiss | v.install(&k, tr, table, now, nil, conntrack.DirForward, &o)
	if v.rec != nil {
		v.rec.Deferred(telemetry.TierSlowpath, k.FlowHash(), flags, travNs, parkNs)
	}
	return o, nil
}

// suffixAt is what CompleteMiss installs of a full traversal: with
// resuming on, a view of tr from the step at which the packet's
// second-chance lookup stalled, and the cache table the stall names — so a
// completed miss installs, and counts, exactly what the same miss resumed
// inline would, whose walk starts there. The traversal must continue
// there: its step at the prefix's span is in the table the prefix names
// and enters it with the key the lookup stalled with. Otherwise, and
// without a stall, it is tr itself and table 0. The view lives in the
// switch, valid until the next completion. It stays with CompleteMiss until
// ROADMAP item 15.
func (v *VSwitch) suffixAt(tr *Traversal) (*Traversal, int) {
	if !v.resume {
		return tr, 0
	}
	next, table, span := v.main.Stall()
	if span == 0 || span >= tr.Len() {
		return tr, 0
	}
	if st := &tr.Steps[span]; st.TableID != next || st.Pre != v.stalled {
		return tr, 0
	}
	v.view = *tr
	v.view.Input, v.view.Steps, v.view.TuplesProbed = tr.Steps[span].Pre, tr.Steps[span:], 0
	for i := range v.view.Steps {
		v.view.TuplesProbed += v.view.Steps[i].Probes
	}
	return &v.view, table
}
