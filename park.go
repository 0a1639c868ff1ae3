package gigaflow

import (
	"gigaflow/internal/conntrack"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/telemetry"
)

// Park-mode processing: the VSwitch half of the asynchronous slow-path
// offload (internal/upcall). In park mode a main-cache miss is not
// punted to the pipeline inline — the lookup chain reports it to the
// caller, who parks the packet and enqueues an upcall; a dedicated
// engine runs the traversal off the datapath goroutine, and the caller
// finishes the miss later through CompleteMiss (fresh traversal) or by
// replaying the packet through Process (failed or stale traversal).
//
// Accounting discipline — the reason async totals match inline exactly:
// a parked packet is counted NOWHERE at park time, not even in
// Stats.Packets. The flow's one traversal is accounted once, by
// CompleteMiss (Packets, CacheMisses, Slowpath, Installs/InstallErrs),
// exactly as processMissCt would have; every other packet that parked
// behind the same pending flow is replayed through Process after the
// install and counts as the cache hit it would have been inline, where
// the first packet's miss installs before later packets of the flow are
// processed.

// ProcessPark is Process in park mode: hits (and sampled/traced
// packets, which always run inline — tracing wants the whole traversal)
// behave identically to Process, but a main-cache miss returns
// parked=true with nothing counted and no slow-path work done. The
// caller owns the miss from there.
//
//gf:hotpath
func (v *VSwitch) ProcessPark(k Key, now int64) (res ProcessResult, parked bool, err error) {
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	if v.tracer != nil {
		if tb := v.tracer.Start(); tb != nil {
			v.stats.Packets++
			r, err := v.processTraced(&k, 0, now, tb)
			return r, false, err
		}
	}
	if v.uf != nil {
		if e, ok := v.uf.Find(&k, now); ok {
			v.stats.Packets++
			v.stats.MicroflowHits++
			if v.rec != nil {
				v.rec.Hit(telemetry.TierMicroflow, v.uf.LastHash())
				v.rec.EndBatch()
			}
			return ProcessResult{Verdict: e.Verdict, Final: e.Final, CacheHit: true, MicroflowHit: true}, false, nil
		}
	}
	if v.gf != nil {
		lr := v.gf.Lookup(k, now)
		if lr.Hit {
			v.stats.Packets++
			v.stats.CacheHits++
			v.memoize(&k, &lr.Final, lr.Verdict, now)
			if v.rec != nil {
				v.rec.Hit(telemetry.TierGigaflow, k.FlowHash())
				v.rec.EndBatch()
			}
			return ProcessResult{Verdict: lr.Verdict, Final: lr.Final, CacheHit: true}, false, nil
		}
	} else if e, ok := v.mf.Lookup(k, now); ok {
		v.stats.Packets++
		v.stats.CacheHits++
		final, verdict := e.Apply(k)
		v.memoize(&k, &final, verdict, now)
		if v.rec != nil {
			v.rec.Hit(telemetry.TierMegaflow, k.FlowHash())
			v.rec.EndBatch()
		}
		return ProcessResult{Verdict: verdict, Final: final, CacheHit: true}, false, nil
	}
	return ProcessResult{}, true, nil
}

// ProcessBatchPark is ProcessBatch in park mode: packet i's miss sets
// parked[i] instead of running the slow path, with out[i] zeroed and no
// counters touched for it. out, errs, and parked must all be at least
// len(keys) long. Hits, memoization, and in-batch visibility of earlier
// packets' microflow entries are identical to ProcessBatch.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchPark(keys []Key, out []ProcessResult, errs []error, parked []bool, now int64) {
	if len(keys) == 0 {
		return
	}
	_ = out[len(keys)-1]
	_ = errs[len(keys)-1]
	_ = parked[len(keys)-1]
	var packets, ufHits, mainHits uint64
	var ufb microflow.BatchLookup
	var gfb gfcache.BatchLookup
	var mfb megaflow.BatchLookup
	if v.uf != nil {
		ufb = v.uf.BatchLookup()
	}
	if v.gf != nil {
		gfb = v.gf.BatchLookup()
	} else {
		mfb = v.mf.BatchLookup()
	}
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	var lr gfcache.Result
	for i := range keys {
		k, o := &keys[i], &out[i]
		packets++
		errs[i] = nil
		parked[i] = false
		if v.tracer != nil {
			if tb := v.tracer.Start(); tb != nil {
				*o, errs[i] = v.processTraced(k, 0, now, tb)
				continue
			}
		}
		if v.uf != nil {
			if e, ok := ufb.Find(k, now); ok {
				ufHits++
				if v.rec != nil {
					v.rec.Hit(telemetry.TierMicroflow, v.uf.LastHash())
				}
				o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = e.Verdict, e.Final, true, true
				continue
			}
		}
		if v.gf != nil {
			gfb.LookupInto(k, now, &lr)
			if lr.Hit {
				mainHits++
				v.memoize(k, &lr.Final, lr.Verdict, now)
				if v.rec != nil {
					v.rec.Hit(telemetry.TierGigaflow, k.FlowHash())
				}
				o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = lr.Verdict, lr.Final, true, false
				continue
			}
		} else if e, ok := mfb.Find(k, now); ok {
			mainHits++
			final, verdict := e.Apply(*k)
			v.memoize(k, &final, verdict, now)
			if v.rec != nil {
				v.rec.Hit(telemetry.TierMegaflow, k.FlowHash())
			}
			o.Verdict, o.Final, o.CacheHit, o.MicroflowHit = verdict, final, true, false
			continue
		}
		// Main-cache miss: park it. The packet's accounting is deferred to
		// CompleteMiss (initiator) or its replay through Process (follower).
		packets--
		parked[i] = true
		*o = ProcessResult{}
	}
	if v.rec != nil {
		v.rec.EndBatch()
	}
	v.stats.Packets += packets
	v.stats.MicroflowHits += ufHits
	v.stats.CacheHits += mainHits
	ufb.Flush()
	gfb.Flush()
	mfb.Flush()
}

// ProcessMissInline finishes a packet that ProcessPark/ProcessBatchPark
// parked but that cannot be deferred after all — the upcall queue
// overflow fallback. It performs the inline slow-path punt the packet
// skipped, with full accounting, exactly as if Process had never parked
// it. Cold by definition; not part of the certified hot path.
func (v *VSwitch) ProcessMissInline(k Key, now int64) (ProcessResult, error) {
	v.stats.Packets++
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	return v.processMissCt(&k, &k, nil, conntrack.DirForward, telemetry.TierSlowpath, now, nil)
}

// CompleteMiss finishes a parked miss whose traversal the upcall engine
// already ran: it installs the traversal's rules, memoizes the flow, and
// counts the packet and its one slow-path traversal — the deferred twin
// of processMissCt's install half. tr must be a successful traversal of k
// computed against the current pipeline version; the caller is
// responsible for replaying the packet through Process instead when the
// traversal failed or a rule update made it stale (Traversal.Version !=
// Pipeline().Version).
//
// Callers must give the packet a second-chance lookup (ProcessPark)
// before completing: while this flow waited, another flow's completion
// may have installed a wildcard entry that covers it — inline, this
// packet would have hit that entry, so completing blindly would count a
// miss and an install the inline switch never saw. Only a
// still-missing flow consumes its traversal.
//
// travNs is the traversal span measured on the
// engine goroutine and parkNs the upcall queue wait; the flight record
// written for the completion carries both, flagged FlightDeferred.
//
// Like every VSwitch method it must run on the goroutine driving the
// switch — completions are delivered to the owning worker, never applied
// from the engine.
func (v *VSwitch) CompleteMiss(k Key, tr *Traversal, now, travNs, parkNs int64) (ProcessResult, error) {
	v.stats.Packets++
	v.stats.CacheMisses++
	v.stats.Slowpath++
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	flightFlags := telemetry.FlightMiss
	if v.gf != nil {
		var ev0 uint64
		if v.rec != nil {
			ev0 = v.gf.Stats().EvictLRU
		}
		if _, err := v.gf.Insert(tr, now); err != nil {
			v.stats.InstallErrs++
			flightFlags |= telemetry.FlightInstallErr
		} else {
			v.stats.Installs++
			flightFlags |= telemetry.FlightInstall
		}
		if v.rec != nil && v.gf.Stats().EvictLRU > ev0 {
			flightFlags |= telemetry.FlightEvict
		}
	} else {
		var ev0 uint64
		if v.rec != nil {
			ev0 = v.mf.Stats().EvictLRU
		}
		if e := v.mf.Insert(tr, now); e == nil {
			v.stats.InstallErrs++
			flightFlags |= telemetry.FlightInstallErr
		} else {
			v.stats.Installs++
			flightFlags |= telemetry.FlightInstall
		}
		if v.rec != nil && v.mf.Stats().EvictLRU > ev0 {
			flightFlags |= telemetry.FlightEvict
		}
	}
	final := tr.FinalKey()
	v.memoize(&k, &final, tr.Verdict, now)
	if v.rec != nil {
		v.rec.Deferred(telemetry.TierSlowpath, k.FlowHash(), flightFlags, travNs, parkNs)
	}
	return ProcessResult{Verdict: tr.Verdict, Final: final}, nil
}
