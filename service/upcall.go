// Asynchronous slow-path offload (Config.Upcall.Workers > 0): the whole of
// it — the per-shard pending-flow table, the shared bounded miss queue, the
// engine goroutines draining it, and the completions they hand back.
//
// A worker does not run the pipeline traversal for a main-cache miss
// inline. The packet is parked: its delivery context (its job and its slot
// in the job's share — every packet arrives in a job) is appended to the
// flow's pending-table entry, and — for the first packet of the flow only —
// the entry is enqueued on the shared upcall queue. Engine goroutines drain
// the queue in batches of up to drainBatch misses, run each flow's traversal
// against the service's pipeline (read-locking Service.rules, which a rule
// update write-locks), and post the completed misses back onto the worker's
// input queue as one control op per shard. The worker then installs the
// rules, releases every packet parked behind the flow in arrival order, and
// answers the submitters — so a warm flow behind a cold storm is never
// head-of-line blocked by another flow's traversal.
//
// Ownership: the pending table and the shard's counters are owner-lock
// state, like the rest of the shard. A miss's key, shard and parkedNs are
// fixed at park time, and its parked slice belongs to the owner lock (the
// engine never reads it, so followers keep appending while the traversal is
// in flight); dequeuedNs, traverseNs, tr and err are written by the engine
// before the hand-off, which the worker's input queue orders. The queue is
// the one structure many goroutines write: a buffered channel and atomic
// counters.
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
	"sync"
	"sync/atomic"
	"time"

	"gigaflow"
	"gigaflow/internal/telemetry"
)

// drainBatch bounds the misses an engine goroutine takes per wake-up.
const drainBatch = 32

// parked is one parked packet's delivery context: where its result goes
// once the flow's traversal completes — entry idx of its job's share.
type parked struct {
	job *batchJob
	idx int
}

// miss is one flow's pending upcall: the packets parked behind it, in
// arrival order (parked[0] created the upcall), and — once the engine has
// run it — the traversal.
type miss struct {
	key        gigaflow.Key
	shard      int   // the worker that parked it; completions route back to it
	parkedNs   int64 // wall clock at park; with dequeuedNs, the queue wait
	dequeuedNs int64
	traverseNs int64
	parked     []parked
	tr         *gigaflow.Traversal
	err        error
}

// engine is the shared upcall queue — many shard producers, Upcall.Workers
// engine consumers — with its counters and the engine goroutines. A send
// never blocks: a full queue is the shard's signal to traverse the miss
// itself rather than stall behind the slow path.
type engine struct {
	q        chan *miss    // holds upcallQueue misses: past that, a fresh miss is traversed inline
	enqueued atomic.Uint64 // misses accepted
	drained  atomic.Uint64 // misses handed to handleUpcalls
	batches  atomic.Uint64 // handleUpcalls calls
	wg       sync.WaitGroup
}

// parkOne parks a missed packet behind its flow's pending entry,
// enqueueing an upcall if the flow was not already pending. It reports
// false when the flow needs an upcall but the queue is full — the caller
// traverses it inline. The refused miss still counts as a flow whose one
// packet was released.
func (w *worker) parkOne(k gigaflow.Key, p parked) bool {
	if m := w.pending[k]; m != nil {
		m.parked = append(m.parked, p) // follower: rides the traversal in flight
		w.up.Deduped++
		w.up.ParkedPackets++
		return true
	}
	w.up.Flows++
	m := &miss{key: k, shard: w.idx, parkedNs: time.Now().UnixNano(), parked: make([]parked, 1, 4)}
	m.parked[0] = p
	select {
	case w.eng.q <- m:
		w.eng.enqueued.Add(1)
		w.pending[k] = m
		w.up.ParkedPackets++
		return true
	default:
		w.up.Released++
		return false
	}
}

// release takes flow k's pending entry out of the table (nil if absent),
// handing its parked packets to the caller.
func (w *worker) release(k gigaflow.Key) *miss {
	m := w.pending[k]
	if m != nil {
		delete(w.pending, k)
		w.up.ParkedPackets -= len(m.parked)
		w.up.Released += uint64(len(m.parked))
	}
	return m
}

// complete applies one engine-completed miss under the owner lock:
// detach the pending entry, finish the initiator (install via
// CompleteMiss, or inline replay when the traversal failed, went stale,
// or lost the race to a covering install), replay the followers through
// the normal hot path, and deliver every result in arrival order.
func (w *worker) complete(m *miss, now int64) {
	if w.release(m.key) == nil {
		// Already swept by a shutdown drain; the packets were failed
		// with ErrClosed and must not be answered twice.
		w.up.Stale++
		return
	}
	pp := m.parked
	w.up.Completed++

	fresh := m.err == nil && m.tr != nil && m.tr.Version == w.vs.Pipeline().Version
	if !fresh {
		// Failed or stale traversal: every parked packet replays the
		// inline path, traversing again — identical to what each would
		// have done had it never parked under the current rules.
		if m.err == nil {
			w.up.Stale++
		}
		for _, p := range pp {
			res, err := w.vs.Process(m.key, now)
			w.deliver(p, res, err)
		}
		return
	}

	// Second-chance lookup: while this flow waited, another flow's
	// completion may have installed a wildcard entry covering it —
	// inline, this packet would have hit that entry, so only a
	// still-missing flow consumes its traversal.
	res, still, err := w.vs.ProcessPark(m.key, now)
	if still {
		res, err = w.vs.CompleteMiss(m.key, m.tr, now, m.traverseNs, m.dequeuedNs-m.parkedNs)
	} else {
		w.up.Stale++
	}
	w.deliver(pp[0], res, err)
	for _, p := range pp[1:] {
		res, err := w.vs.Process(m.key, now)
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
	for k := range w.pending {
		for _, p := range w.release(k).parked {
			w.deliver(p, gigaflow.ProcessResult{}, ErrClosed)
		}
	}
}

// runEngine is one engine goroutine: block for a miss, gather the rest of
// the burst up to drainBatch (one wake-up amortized across it),
// stamp the dequeue time and run the batch. Misses still queued when ctx
// is cancelled are abandoned — the shards sweep their pending tables and
// fail those packets themselves.
func (s *Service) runEngine(ctx context.Context) {
	defer s.eng.wg.Done()
	batch := make([]*miss, 0, drainBatch)
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-s.eng.q:
			batch = append(batch[:0], m)
		gather:
			for len(batch) < drainBatch {
				select {
				case m := <-s.eng.q:
					batch = append(batch, m)
				default:
					break gather
				}
			}
			now := time.Now().UnixNano()
			for _, m := range batch {
				m.dequeuedNs = now
			}
			s.eng.drained.Add(uint64(len(batch)))
			s.eng.batches.Add(1)
			s.handleUpcalls(ctx, batch)
		}
	}
}

// handleUpcalls runs each miss's pipeline traversal — under the rules read
// lock, excluding rule updates — then posts the completed misses back to
// their workers as control ops, grouped so each worker receives one
// message per batch. A send that would block past shutdown is abandoned;
// the worker's drain sweeps the corresponding pending entries.
func (s *Service) handleUpcalls(ctx context.Context, batch []*miss) {
	for _, m := range batch {
		t0 := time.Now()
		s.rules.RLock()
		m.tr, m.err = s.pipe.Process(m.key)
		s.rules.RUnlock()
		m.traverseNs = time.Since(t0).Nanoseconds()
	}
	for i, m := range batch {
		if m == nil {
			continue
		}
		group := make([]*miss, 0, len(batch)-i)
		group = append(group, m)
		for j := i + 1; j < len(batch); j++ {
			if batch[j] != nil && batch[j].shard == m.shard {
				group = append(group, batch[j])
				batch[j] = nil
			}
		}
		apply := func(_ int, w *worker) {
			now := s.clock()
			for _, c := range group {
				w.complete(c, now)
			}
		}
		if s.post(ctx, s.workers[m.shard], packet{control: apply}) != nil {
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
// packets, two identities hold: every flow that missed was completed or
// overflowed, Flows = Completed + OverflowInline; and every parked packet
// was handed back — a completion releases its initiator and its
// followers (a stale one too), an overflow its one packet — Released =
// Completed + Deduped + OverflowInline.
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
	// OverflowInline counts misses the full queue refused, each sent down
	// the inline path; Stale counts engine traversals discarded (rule update,
	// covering install, or shutdown sweep won the race); Completed counts
	// flow completions applied.
	OverflowInline uint64 `json:"overflow_inline"`
	Stale          uint64 `json:"stale"`
	Completed      uint64 `json:"completed"`
	// Shared queue and engine counters.
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_capacity"`
	Enqueued   uint64 `json:"enqueued"`
	Drained    uint64 `json:"drained"`
	Batches    uint64 `json:"batches"`
}

// shardUpcallStats is the shard's share of UpcallStats, read under the
// owner lock; the shared queue and engine fields stay zero.
func (w *worker) shardUpcallStats() UpcallStats {
	st := w.up
	st.PendingFlows = len(w.pending)
	return st
}

// UpcallStats gathers the offload counters; see the UpcallStats type.
func (s *Service) UpcallStats(ctx context.Context) (UpcallStats, error) {
	if s.eng == nil {
		return UpcallStats{}, nil
	}
	per := make([]UpcallStats, len(s.workers))
	if err := s.eachShard(ctx, func(i int, w *worker) { per[i] = w.shardUpcallStats() }); err != nil {
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
		out.Stale += st.Stale
		out.Completed += st.Completed
	}
	out.QueueDepth = len(s.eng.q)
	out.QueueCap = cap(s.eng.q)
	out.Enqueued = s.eng.enqueued.Load()
	out.Drained = s.eng.drained.Load()
	out.Batches = s.eng.batches.Load()
	return out, nil
}

// collectUpcallMetrics mirrors the shard's offload counters into the
// registry; called from Collect's control op, under the owner lock.
// No-op for synchronous shards.
func (w *worker) collectUpcallMetrics(reg *telemetry.Registry) {
	if w.eng == nil {
		return
	}
	c := func(name, help string, val uint64) {
		reg.CounterVec(name, help, "worker").With(w.label).Set(val)
	}
	g := func(name, help string, val int) {
		reg.GaugeVec(name, help, "worker").With(w.label).Set(float64(val))
	}
	st := w.shardUpcallStats()
	c("gigaflow_upcall_flows_total", "Upcalls created (one per unique missed flow).", st.Flows)
	c("gigaflow_upcall_deduped_total", "Parked packets coalesced onto an existing pending flow.", st.Deduped)
	c("gigaflow_upcall_released_total", "Parked packets handed back to their submitters.", st.Released)
	c("gigaflow_upcall_overflow_inline_total", "Misses processed inline because the upcall queue was full.", st.OverflowInline)
	c("gigaflow_upcall_stale_total", "Engine traversals discarded (rule update, covering install, or shutdown).", st.Stale)
	c("gigaflow_upcall_completed_total", "Flow completions applied.", st.Completed)
	g("gigaflow_upcall_pending_flows", "Flows with a traversal in flight.", st.PendingFlows)
	g("gigaflow_upcall_parked_packets", "Packets parked behind pending flows.", st.ParkedPackets)
}
