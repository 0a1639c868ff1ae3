// Batched submission: the Batch type and the single internal submit path
// both public entry points (SubmitFrameBatch and SubmitFrame) wrap.
//
// Ingest decodes every frame once, on the submitter, and files its key
// under the shard the key picks, so a batch is grouped into at most one
// share per worker. A share is a contiguous block of parallel arrays
// inside the batch — the keys the cache lookup reads and the results it
// writes — and a job is nothing but a pointer to that block:
// VSwitch.ProcessBatchMeta writes each result straight into the slot
// Batch.Result reads. A blocking submitter runs its (last) share itself,
// under the shard's owner lock, whenever that shard is idle; a busy
// shard's share crosses the worker channel as one message instead. See
// the package comment for the ownership rule.
package service

import (
	"context"
	"sync"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// block is one shard's share of a batch as parallel arrays, all the same
// length: what the shard reads (the keys ingest decoded, and their TCP
// flag bytes) and what it writes (out, errs). The four arrays share one
// capacity, grown together, so opening an entry is one bounds check and
// no zeroing.
type block struct {
	keys  []gigaflow.Key
	metas []uint8 // per-key TCP flag bytes
	out   []gigaflow.ProcessResult
	errs  []error
}

// next opens one more entry at the end of the share and returns its
// index. The entry may hold an earlier submission's key and result:
// whoever fills it (ingest, the batch scan) overwrites every field.
//
//gf:hotpath
func (blk *block) next() int {
	n := len(blk.keys)
	if n == cap(blk.keys) {
		blk.grow()
	}
	blk.keys, blk.metas, blk.out, blk.errs = blk.keys[:n+1], blk.metas[:n+1], blk.out[:n+1], blk.errs[:n+1]
	return n
}

// grow doubles the share's arrays, keeping the inputs already in them.
//
//gf:hotpath-safe a share outgrowing its arrays reallocates them; a reused batch stops growing after its first submissions
func (blk *block) grow() {
	n, c := len(blk.keys), 2*cap(blk.keys)
	if c < 16 {
		c = 16
	}
	blk.keys = append(make([]gigaflow.Key, 0, c), blk.keys...)
	blk.metas = append(make([]uint8, 0, c), blk.metas...)
	blk.out = make([]gigaflow.ProcessResult, n, c)
	blk.errs = make([]error, n, c)
}

// reset empties the share, keeping its arrays.
func (blk *block) reset() {
	blk.keys, blk.metas, blk.out, blk.errs = blk.keys[:0], blk.metas[:0], blk.out[:0], blk.errs[:0]
}

// settle gives every entry of the share the same outcome without running
// it: a call-level error, ErrQueueFull, ErrClosed — or nil, a nonblocking
// submission's "enqueued, verdict unreported".
func (blk *block) settle(err error) {
	for i := range blk.errs {
		blk.out[i], blk.errs[i] = gigaflow.ProcessResult{}, err
	}
}

// clone copies the share's inputs — keys and metas — into a block a
// nonblocking job can keep after the submitter has returned and reused
// the batch. It has no result arrays: nobody waits on the job, so the
// shard writes its results into scratch of its own.
func (blk *block) clone() *block {
	return &block{
		keys:  append([]gigaflow.Key(nil), blk.keys...),
		metas: append([]uint8(nil), blk.metas...),
	}
}

// slot locates one request's storage: entry idx of share blk. A negative
// blk marks a frame refused at ingest, which belongs to no share.
type slot struct{ blk, idx int32 }

const refused = -1

// batchJob is one shard's share of a submission, handed to the shard as a
// pointer: runJob reads the block in place. A blocking job views the
// batch's own block, and runJob writes its results there; a nonblocking
// job owns a clone of the inputs, and nobody waits on it (done is nil).
type batchJob struct {
	blk  *block
	done chan *batchJob // blocking: signalled once when a queued job's results are all in; nil for a job nobody waits on

	// finished is the submitter's note that the job's results are all in
	// (it ran inline to completion, or its done signal was received);
	// unfinished jobs take the call-level error.
	finished bool
	// closed is the shard's note that the job, or a packet of it, met the
	// shard stopped and failed with ErrClosed: the call fails with it too.
	closed bool
}

// Batch is a reusable collection of requests submitted as one unit.
// Every SubmitFrameBatch empties and refills it without reallocating, so
// a steady-state submitter (gfreplay's capture loop, the benchmarks)
// allocates nothing per batch.
//
// A Batch is not safe for concurrent use: it belongs to one submitting
// goroutine and must not be read or modified while a SubmitFrameBatch
// call on it is in flight.
type Batch struct {
	at   []slot  // request i's place in part; len(at) is the batch length
	part []block // part[w] is shard w's share of the current grouping

	jobs []batchJob     // one per share, reused across submissions
	done chan *batchJob // completion channel, reused across submissions
}

// NewBatch creates an empty batch with room for capacity requests.
func NewBatch(capacity int) *Batch {
	return &Batch{at: make([]slot, 0, capacity)}
}

// Len reports the number of requests in the batch.
func (b *Batch) Len() int { return len(b.at) }

// Result returns request i's result, assembled from where the shard
// wrote it. A blocking submission fills it in completely; a nonblocking
// one records only the enqueue outcome in Err (nil, or ErrQueueFull for
// a dropped packet). A frame refused at ingest carries ErrShortFrame.
//
//gf:hotpath
func (b *Batch) Result(i int) Result {
	at := b.at[i]
	if at.blk == refused {
		return Result{Err: ErrShortFrame}
	}
	blk := &b.part[at.blk]
	o := &blk.out[at.idx]
	return Result{Verdict: o.Verdict, Final: o.Final, CacheHit: o.CacheHit, Err: blk.errs[at.idx]}
}

// Key returns the flow key request i was submitted under: the key ingest
// decoded from frame i, after a blocking or a nonblocking submission
// alike (zero for a refused frame).
func (b *Batch) Key(i int) gigaflow.Key {
	at := b.at[i]
	if at.blk == refused {
		return gigaflow.Key{}
	}
	return b.part[at.blk].keys[at.idx]
}

// shape empties the batch, keeping its buffers, and sizes the per-shard
// scratch for a service with nw shards.
func (b *Batch) shape(nw int) {
	b.at = b.at[:0]
	if cap(b.part) < nw {
		b.part = make([]block, nw)
		b.jobs = make([]batchJob, nw)
		b.done = make(chan *batchJob, nw) // every share signals at most once per submission
	}
	b.part, b.jobs = b.part[:nw], b.jobs[:nw]
	for w := range b.part {
		b.part[w].reset()
	}
}

// ingest is the one place a frame is parsed: it decodes every frame
// into its key, tallies it, and files the key and its TCP flag byte under
// the shard shardOfKey picks — or, for a frame too short for an Ethernet
// header, refuses it outright. The frame counters are flushed once, before
// anything is submitted. The batch must be freshly shaped for s.
//
//gf:hotpath
func (b *Batch) ingest(s *Service, frames []Frame) {
	var tally frameTally
	var k gigaflow.Key
	var info wire.Info
	for i := range frames {
		f := &frames[i]
		wire.DecodeInto(f.Data, f.InPort, &k, &info)
		tally.add(&info, len(f.Data))
		if info.Err == wire.ErrShortFrame {
			b.at = append(b.at, slot{blk: refused})
			continue
		}
		w := s.shardOfKey(&k)
		blk := &b.part[w]
		idx := blk.next()
		blk.keys[idx], blk.metas[idx] = k, info.TCPFlags
		b.at = append(b.at, slot{int32(w), int32(idx)})
	}
	s.frames.flush(&tally)
}

// fail gives every submitted request of the batch the call-level error.
func (b *Batch) fail(err error) {
	for w := range b.part {
		b.part[w].settle(err)
	}
}

// submitOpts collects per-call submission options.
type submitOpts struct {
	nonblocking bool
}

// SubmitOption configures a single submission call. Options transform
// the config by value rather than through a pointer: taking the
// address of the per-call submitOpts would force it to escape to the
// heap, putting one allocation on every submission — the only one the
// steady-state datapath would have.
type SubmitOption func(submitOpts) submitOpts

// applyOpts folds the call's options over a zero config.
func applyOpts(opts []SubmitOption) submitOpts {
	var o submitOpts
	for _, opt := range opts {
		o = opt(o)
	}
	return o
}

// Nonblocking makes the submission enqueue-only: it never waits for a
// verdict, and a packet whose target worker queue is full is dropped with
// ErrQueueFull (counted against that worker) instead of blocking. Unlike
// blocking submission it does not require a started service — packets
// simply queue until workers exist to drain them. A call that starts
// after Close has returned enqueues nothing: every request fails with
// ErrClosed, and so does the call.
func Nonblocking() SubmitOption {
	return func(o submitOpts) submitOpts { o.nonblocking = true; return o }
}

// batchPool recycles single-request batches so the SubmitFrame wrapper
// stays allocation-free at steady state.
var batchPool = sync.Pool{New: func() any { return NewBatch(1) }}

// only returns a submitted pooled batch's one result, and the batch to
// the pool. The request's own error comes first: one that never ran
// carries the call-level error already, and a refused frame — never
// submitted, whatever state the service is in — its ErrShortFrame.
func only(b *Batch, err error) (Result, error) {
	r := b.Result(0)
	batchPool.Put(b)
	if r.Err == nil && err != nil {
		return Result{}, err
	}
	return r, r.Err
}

// submit is the single internal submission path.
func (s *Service) submit(ctx context.Context, b *Batch, o submitOpts) error {
	if len(b.at) == 0 {
		return nil
	}
	// Only a nonblocking call may queue before Start; nothing may after
	// Close, when no worker will read a queue again.
	if err := s.running(); err != nil && !(o.nonblocking && err == ErrNotStarted) {
		b.fail(err)
		return err
	}
	if o.nonblocking {
		s.submitNonblocking(b)
		return nil
	}
	return s.submitBlocking(ctx, b)
}

// submitBlocking hands every share to its shard — run on this goroutine
// where the shard is idle, queued otherwise — and gathers completions.
// On context cancellation or service shutdown it still waits for every
// share already handed to a worker: shards write into the batch's own
// storage, so returning while one is in flight would corrupt the next
// use of the batch and leak its results.
func (s *Service) submitBlocking(ctx context.Context, b *Batch) error {
	// An already-cancelled context must fail deterministically: an idle
	// shard would run the share without ever looking at ctx, and the
	// enqueue select picks at random among ready cases.
	if err := ctx.Err(); err != nil {
		b.fail(err)
		return err
	}
	start := time.Now()
	waiting, callErr := s.dispatch(ctx, b, s.clock())
	for waiting > 0 {
		select {
		case j := <-b.done:
			j.finished = true
			waiting--
		case <-s.term:
			// The workers have exited. Every completion they delivered
			// happened before term closed, so a nonblocking drain of
			// b.done is complete; jobs still sitting in dead queues will
			// never be touched again and are safe to abandon.
			for drained := false; !drained && waiting > 0; {
				select {
				case j := <-b.done:
					j.finished = true
					waiting--
				default:
					drained = true
				}
			}
			if callErr == nil {
				callErr = ErrClosed
			}
			waiting = 0
		}
	}
	for w := range b.jobs {
		if b.jobs[w].closed && callErr == nil {
			callErr = ErrClosed // a share met its shard stopped
		}
	}
	if callErr != nil {
		// Requests that never ran (share not handed over, or abandoned at
		// shutdown) carry the call-level error so per-index inspection
		// stays meaningful.
		for w := range b.jobs {
			if !b.jobs[w].finished {
				b.part[w].settle(callErr)
			}
		}
		return callErr
	}
	s.latency.Observe(float64(time.Since(start).Nanoseconds()))
	return nil
}

// dispatch is the blocking submitter's fan-out: every non-empty share but
// the last is queued to its worker, so the shards run in parallel, and
// the last is run right here when its shard is idle (queued too when it
// is not). It returns how many shares will signal b.done, and the error
// that stopped the fan-out early, if any. now stamps the share run here.
//
//gf:hotpath
func (s *Service) dispatch(ctx context.Context, b *Batch, now int64) (waiting int, err error) {
	last := -1
	for w := range b.part {
		b.jobs[w] = batchJob{finished: len(b.part[w].keys) == 0}
		if !b.jobs[w].finished {
			last = w
		}
	}
	for w := 0; w <= last; w++ {
		j := &b.jobs[w]
		if j.finished {
			continue
		}
		j.blk, j.done = &b.part[w], b.done
		if w == last && s.workers[w].tryRun(j, now) {
			break
		}
		if err = s.post(ctx, s.workers[w], packet{job: j}); err != nil {
			break
		}
		waiting++
	}
	return waiting, err
}

// submitNonblocking enqueues a clone of every share — the caller may
// reuse the batch the moment we return, so a nonblocking job cannot view
// its storage — and records the enqueue outcome per request. A full
// queue drops that worker's whole share.
func (s *Service) submitNonblocking(b *Batch) {
	for w := range b.part {
		blk := &b.part[w]
		if len(blk.keys) == 0 {
			continue
		}
		if s.workers[w].offer(packet{job: &batchJob{blk: blk.clone()}}) {
			blk.settle(nil)
		} else {
			s.workers[w].drops.Add(uint64(len(blk.keys)))
			blk.settle(ErrQueueFull)
		}
	}
}
