// Asynchronous slow-path offload: the service half of the upcall
// subsystem (internal/upcall holds the mechanism — pending-flow table,
// bounded miss queue, drain engine).
//
// With Config.Upcall.Workers set, a worker no longer runs the pipeline
// traversal for a main-cache miss inline. The packet is parked: its
// delivery context (its job and its slot in the job's share — every
// packet arrives in a job) is appended to the flow's pending-table entry,
// and — for the first packet of the flow only — the entry is enqueued on
// the shared upcall queue. Engine goroutines drain the queue in batches,
// run each flow's traversal against the service's pipeline (read-locking
// Service.rules, which a rule update write-locks), and post the completed
// misses back onto the worker's input queue as a control op. The worker
// then installs the rules, releases every packet parked behind the flow in
// arrival order, and answers the submitters — so a warm flow behind a cold
// storm is never head-of-line blocked by another flow's traversal.
//
// Equivalence with inline processing is a hard invariant: a parked
// packet is counted nowhere at park time; the completion counts the
// initiator exactly as the inline miss path would, and followers are
// replayed through the normal hot path, hitting the entries the
// completion installed — the same hits they would have been inline,
// where the first packet's miss installs before later packets of the
// flow are looked up. Three races break the naive version of this and
// are each handled here: a rule update can make an in-flight traversal
// stale (version check → replay inline); another flow's completion can
// install a wildcard entry covering this flow (second-chance lookup →
// traversal discarded); and shutdown can strand parked packets (the
// worker's drain sweeps the pending table, failing them with ErrClosed,
// before the service's term channel closes).
package service

import (
	"context"
	"time"

	"gigaflow"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/upcall"
)

// OverflowPolicy selects what a worker does with a fresh miss when the
// upcall queue is full. Followers of an already-pending flow never
// touch the queue, so neither policy can reorder packets within a flow.
type OverflowPolicy uint8

const (
	// OverflowInline (the default) falls back to the inline path: the
	// worker processes the packet itself, exactly as in synchronous mode
	// — looked up again first, since an earlier packet of its batch may
	// have installed its flow meanwhile. Backpressure degrades latency,
	// never correctness or the counts.
	OverflowInline OverflowPolicy = iota
	// OverflowDrop fails the packet with ErrUpcallOverflow — the
	// upcall-ring drop of a real datapath, for deployments that prefer
	// shedding cold flows over stalling the worker.
	OverflowDrop
)

// String names the policy.
func (p OverflowPolicy) String() string {
	if p == OverflowDrop {
		return "drop"
	}
	return "inline"
}

// parked is one parked packet's delivery context: where its result goes
// once the flow's traversal completes — entry idx of its job's share.
type parked struct {
	job *batchJob
	idx int
}

// parkOne parks a missed packet behind its flow's pending entry,
// enqueueing an upcall if the flow was not already pending. It reports
// false when the flow needs an upcall but the queue is full — the caller
// applies the overflow policy; the aborted park leaves no state behind.
func (w *worker) parkOne(k gigaflow.Key, p parked, now int64) bool {
	m, created := w.pending.Park(k, w.idx, now, p)
	if !created {
		return true // follower: rides the traversal already in flight
	}
	if w.upq.TryEnqueue(m) {
		return true
	}
	w.pending.Remove(k)
	return false
}

// parkFallback finishes a missed packet the upcall queue refused,
// according to the shard's overflow policy. A parked packet was counted
// nowhere, so the inline fallback is the whole loop — what inline mode
// would have run.
func (w *worker) parkFallback(k gigaflow.Key, now int64) (gigaflow.ProcessResult, error) {
	if w.overflow == OverflowDrop {
		w.ovDrop++
		return gigaflow.ProcessResult{}, ErrUpcallOverflow
	}
	w.ovInline++
	return w.vs.Process(k, now)
}

// complete applies one engine-completed miss under the owner lock:
// detach the pending entry, finish the initiator (install via
// CompleteMiss, or inline replay when the traversal failed, went stale,
// or lost the race to a covering install), replay the followers through
// the normal hot path, and deliver every result in arrival order.
func (w *worker) complete(m *upcall.Miss[parked], now int64) {
	if w.pending.Remove(m.Key) == nil {
		// Already swept by a shutdown drain; the payloads were failed
		// with ErrClosed and must not be answered twice.
		w.stale++
		return
	}
	pp := m.Payloads
	w.completed++

	fresh := m.Err == nil && m.Traversal != nil &&
		m.Traversal.Version == w.vs.Pipeline().Version
	if !fresh {
		// Failed or stale traversal: every parked packet replays the
		// inline path, traversing again — identical to what each would
		// have done had it never parked under the current rules.
		if m.Err == nil {
			w.stale++
		}
		for _, p := range pp {
			res, err := w.vs.Process(m.Key, now)
			w.deliver(p, res, err)
		}
		return
	}

	// Second-chance lookup: while this flow waited, another flow's
	// completion may have installed a wildcard entry covering it —
	// inline, this packet would have hit that entry, so only a
	// still-missing flow consumes its traversal.
	res, still, err := w.vs.ProcessPark(m.Key, now)
	if still {
		res, err = w.vs.CompleteMiss(m.Key, m.Traversal, now, m.TraverseNs, m.DequeuedNs-m.EnqueuedNs)
	} else {
		w.stale++
	}
	w.deliver(pp[0], res, err)
	for _, p := range pp[1:] {
		res, err := w.vs.Process(m.Key, now)
		w.deliver(p, res, err)
	}
}

// deliver routes a parked packet's result back to its submitter: into
// its job's slot (finishing the job when it was the last outstanding
// packet) and down the job's response channel, if there is one. The sends
// themselves happen in flush, once the owner lock is released.
func (w *worker) deliver(p parked, res gigaflow.ProcessResult, err error) {
	j := p.job
	j.blk.out[p.idx], j.blk.errs[p.idx] = res, err
	w.reply(j.resp, &res, err)
	j.pending--
	if j.pending == 0 && j.done != nil {
		w.fin = append(w.fin, j)
	}
}

// sweepParked fails every packet still parked at shutdown with
// ErrClosed, mirroring refuse's treatment of queued jobs, so blocking
// submitters waiting on parked packets always unblock before the
// service's term channel closes.
func (w *worker) sweepParked() {
	if w.pending == nil {
		return
	}
	w.pending.Drain(func(m *upcall.Miss[parked]) {
		for _, p := range m.Payloads {
			w.deliver(p, gigaflow.ProcessResult{}, ErrClosed)
		}
	})
}

// handleUpcalls is the engine handler: it runs each miss's pipeline
// traversal — under the rules read lock, excluding rule updates — then
// posts the completed misses back to their workers as control ops,
// grouped so each worker receives one message per batch. A send that would
// block past shutdown is abandoned; the worker's drain sweeps the
// corresponding pending entries.
func (s *Service) handleUpcalls(ctx context.Context, batch []*upcall.Miss[parked]) {
	for _, m := range batch {
		t0 := time.Now()
		s.rules.RLock()
		tr, err := s.pipe.Process(m.Key)
		s.rules.RUnlock()
		m.TraverseNs = time.Since(t0).Nanoseconds()
		m.Traversal = tr
		m.Err = err
	}
	for i, m := range batch {
		if m == nil {
			continue
		}
		group := make([]*upcall.Miss[parked], 0, len(batch)-i)
		group = append(group, m)
		for j := i + 1; j < len(batch); j++ {
			if batch[j] != nil && batch[j].Shard == m.Shard {
				group = append(group, batch[j])
				batch[j] = nil
			}
		}
		apply := func(_ int, w *worker) {
			now := time.Now().UnixNano()
			for _, c := range group {
				w.complete(c, now)
			}
		}
		if s.post(ctx, s.workers[m.Shard], packet{control: apply}) != nil {
			return
		}
	}
}

// UpcallStats snapshots the asynchronous offload's counters: per-worker
// pending-table state and overflow/stale counts gathered on the workers'
// own goroutines, plus the shared queue and engine counters. Enabled is
// false (and the rest zero) when the service runs synchronously.
//
// With nothing pending, and no shutdown sweep having failed parked
// packets, three identities hold: every flow that missed was completed or
// overflowed, Flows = Completed + OverflowInline + OverflowDrops; every
// parked packet was handed back — a completion releases its initiator and
// its followers (a stale one too), an overflow its one packet —
// Released = Completed + Deduped + OverflowInline + OverflowDrops; and
// every refusal of the queue took exactly one fallback,
// Overflows = OverflowInline + OverflowDrops.
type UpcallStats struct {
	Enabled bool `json:"enabled"`
	// PendingFlows counts flows with a traversal in flight;
	// ParkedPackets the packets waiting behind them.
	PendingFlows  int `json:"pending_flows"`
	ParkedPackets int `json:"parked_packets"`
	// Flows counts upcalls created (one per unique missed flow), Deduped
	// the packets that coalesced onto an existing pending flow, and
	// Released the parked packets handed back to their submitters.
	Flows    uint64 `json:"flows"`
	Deduped  uint64 `json:"deduped"`
	Released uint64 `json:"released"`
	// OverflowInline / OverflowDrops count misses the full queue pushed
	// through the fallback paths; Stale counts engine traversals
	// discarded (rule update, covering install, or shutdown sweep won
	// the race); Completed counts flow completions applied.
	OverflowInline uint64 `json:"overflow_inline"`
	OverflowDrops  uint64 `json:"overflow_drops"`
	Stale          uint64 `json:"stale"`
	Completed      uint64 `json:"completed"`
	// Shared queue and engine counters.
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_capacity"`
	Enqueued   uint64 `json:"enqueued"`
	Overflows  uint64 `json:"overflows"`
	Drained    uint64 `json:"drained"`
	Batches    uint64 `json:"batches"`
}

// UpcallStats gathers the offload counters; see the UpcallStats type.
func (s *Service) UpcallStats(ctx context.Context) (UpcallStats, error) {
	if s.upq == nil {
		return UpcallStats{}, nil
	}
	per := make([]UpcallStats, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		st := w.pending.Stats()
		per[i] = UpcallStats{
			PendingFlows: w.pending.Len(), ParkedPackets: w.pending.Parked(),
			Flows: st.Upcalls, Deduped: st.Deduped, Released: st.Released,
			OverflowInline: w.ovInline, OverflowDrops: w.ovDrop,
			Stale: w.stale, Completed: w.completed,
		}
	})
	if err != nil {
		return UpcallStats{}, err
	}
	out := UpcallStats{Enabled: true}
	for _, st := range per {
		out.PendingFlows += st.PendingFlows
		out.ParkedPackets += st.ParkedPackets
		out.Flows += st.Flows
		out.Deduped += st.Deduped
		out.Released += st.Released
		out.OverflowInline += st.OverflowInline
		out.OverflowDrops += st.OverflowDrops
		out.Stale += st.Stale
		out.Completed += st.Completed
	}
	out.QueueDepth = s.upq.Depth()
	out.QueueCap = s.upq.Cap()
	out.Enqueued = s.upq.Enqueued()
	out.Overflows = s.upq.Overflows()
	out.Drained = s.eng.Drained()
	out.Batches = s.eng.Batches()
	return out, nil
}

// collectUpcallMetrics mirrors the shard's offload counters into the
// registry; called from Collect's control op, under the owner lock.
// No-op for synchronous shards.
func (w *worker) collectUpcallMetrics(reg *telemetry.Registry) {
	if w.pending == nil {
		return
	}
	c := func(name, help string, val uint64) {
		reg.CounterVec(name, help, "worker").With(w.label).Set(val)
	}
	g := func(name, help string, val float64) {
		reg.GaugeVec(name, help, "worker").With(w.label).Set(val)
	}
	st := w.pending.Stats()
	c("gigaflow_upcall_flows_total", "Upcalls created (one per unique missed flow).", st.Upcalls)
	c("gigaflow_upcall_deduped_total", "Parked packets coalesced onto an existing pending flow.", st.Deduped)
	c("gigaflow_upcall_released_total", "Parked packets handed back to their submitters.", st.Released)
	c("gigaflow_upcall_overflow_inline_total", "Misses processed inline because the upcall queue was full.", w.ovInline)
	c("gigaflow_upcall_overflow_drops_total", "Misses dropped because the upcall queue was full.", w.ovDrop)
	c("gigaflow_upcall_stale_total", "Engine traversals discarded (rule update, covering install, or shutdown).", w.stale)
	c("gigaflow_upcall_completed_total", "Flow completions applied.", w.completed)
	g("gigaflow_upcall_pending_flows", "Flows with a traversal in flight.", float64(w.pending.Len()))
	g("gigaflow_upcall_parked_packets", "Packets parked behind pending flows.", float64(w.pending.Parked()))
}
