// Batched submission: the Batch type and the single internal submit path
// every public entry point (Submit, SubmitFrame, SubmitBatch,
// SubmitFrameBatch, and Replay) wraps.
//
// A batch is grouped by RSS shard into at most one share per worker. A
// share is a contiguous block of parallel arrays inside the batch — the
// keys the shard reads (or the frames it decodes into them) and the
// results it writes — and a job is nothing but a pointer to that block:
// the shard decodes straight into the slot the cache lookup reads, and
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

// frameRef is one wire-routed entry of a share: the frame's bytes and
// ingress port, decoded on the owning shard. A blocking share reads the
// caller's bytes in place (the submitter does not return before the share
// has run); a nonblocking job owns a copy. Nil data marks an entry whose
// key the submitter already decoded (a frame the RSS extractor refused).
type frameRef struct {
	data   []byte
	inPort uint16
}

// block is one shard's share of a batch as parallel arrays, all the same
// length: what the shard reads (keys and metas — produced, for entries
// with frame bytes, by its own decode) and what it writes (out, errs).
// frames is empty for a batch built from keys and parallel to keys for
// one built from frames. The four fixed arrays share one capacity, grown
// together, so opening an entry is one bounds check and no zeroing.
type block struct {
	keys   []gigaflow.Key
	metas  []uint8 // per-key TCP flag bytes
	out    []gigaflow.ProcessResult
	errs   []error
	frames []frameRef
}

// next opens one more entry at the end of the share and returns its
// index. The entry may hold an earlier submission's key and result:
// whoever fills it (Add's copy, the shard's DecodeInto, the batch scan)
// overwrites every field.
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
	blk.frames = blk.frames[:0]
}

// settle gives every entry of the share the same outcome without running
// it: a call-level error, ErrQueueFull, ErrClosed — or nil, a nonblocking
// submission's "enqueued, verdict unreported".
func (blk *block) settle(err error) {
	for i := range blk.errs {
		blk.out[i], blk.errs[i] = gigaflow.ProcessResult{}, err
	}
}

// clone copies the share's inputs — keys, metas, and frame bytes, the
// latter into one arena the copy owns — into a block a nonblocking job
// can keep after the submitter has returned and reused the batch.
func (blk *block) clone() *block {
	n := len(blk.keys)
	c := &block{
		keys:  append([]gigaflow.Key(nil), blk.keys...),
		metas: append([]uint8(nil), blk.metas...),
		out:   make([]gigaflow.ProcessResult, n),
		errs:  make([]error, n),
	}
	if len(blk.frames) == 0 {
		return c
	}
	total := 0
	for i := range blk.frames {
		total += len(blk.frames[i].data)
	}
	arena := make([]byte, 0, total) // sized first: the refs below alias it
	c.frames = make([]frameRef, n)
	for i, f := range blk.frames {
		if f.data != nil {
			off := len(arena)
			arena = append(arena, f.data...)
			c.frames[i] = frameRef{data: arena[off:len(arena):len(arena)], inPort: f.inPort}
		}
	}
	return c
}

// slot locates one request's storage: entry idx of share blk. A negative
// blk marks a frame refused at ingest, which belongs to no share.
type slot struct{ blk, idx int32 }

const refused = -1

// batchJob is one shard's share of a submission, handed to the shard as a
// pointer: runJob reads and writes the block in place. A blocking job
// views the batch's own block; a nonblocking job owns a clone.
type batchJob struct {
	blk  *block
	done chan *batchJob // blocking: signalled once when a queued (or parked) job's results are all in
	resp chan<- Result  // nonblocking: optional per-result fan-out

	// pending refcounts outstanding work in async offload mode: 1 for the
	// batch scan plus 1 per parked packet, each released on delivery, so
	// the job finishes exactly once — when the last parked packet
	// resolves (or at scan end if nothing parked). Touched only under the
	// shard's owner lock; unused (0) in synchronous mode.
	pending int

	// finished is the submitter's note that the job's results are all in
	// (it ran inline to completion, or its done signal was received);
	// unfinished jobs take the call-level error.
	finished bool
}

// Batch is a reusable collection of requests submitted as one unit.
// Reset/Add refill it without reallocating, so a steady-state submitter
// (Replay, the benchmarks) allocates nothing per batch.
//
// A Batch is not safe for concurrent use: it belongs to one submitting
// goroutine and must not be read or modified while a SubmitBatch call on
// it is in flight.
type Batch struct {
	// What Add/AddMeta appended, in request order; a submission copies
	// each key into the share of the shard that owns it. Unused by
	// SubmitFrameBatch, which files frames under their shards as it reads
	// them.
	keys  []gigaflow.Key
	metas []uint8

	at     []slot  // request i's place in part; len(at) is the batch length
	part   []block // part[w] is shard w's share of the current grouping
	framed bool    // part was filled by SubmitFrameBatch's ingest, not from keys

	jobs []batchJob     // one per share, reused across submissions
	done chan *batchJob // completion channel, reused across submissions
}

// NewBatch creates an empty batch with room for capacity requests.
func NewBatch(capacity int) *Batch {
	return &Batch{
		keys:  make([]gigaflow.Key, 0, capacity),
		metas: make([]uint8, 0, capacity),
		at:    make([]slot, 0, capacity),
	}
}

// Reset empties the batch for reuse, keeping its buffers.
func (b *Batch) Reset() {
	b.keys, b.metas, b.at = b.keys[:0], b.metas[:0], b.at[:0]
	b.part, b.framed = b.part[:0], false
}

// Len reports the number of requests in the batch.
func (b *Batch) Len() int { return len(b.at) }

// Add appends a request for key k.
func (b *Batch) Add(k gigaflow.Key) { b.AddMeta(k, 0) }

// AddMeta appends a request for key k carrying per-packet metadata the
// datapath consumes outside the key: today the TCP flag byte, which
// drives the conntrack state machine when Config.Conntrack is enabled
// (and is ignored otherwise). The frame entry points fill it from the
// decoder.
func (b *Batch) AddMeta(k gigaflow.Key, meta uint8) {
	b.keys = append(b.keys, k)
	b.metas = append(b.metas, meta)
	b.at = append(b.at, slot{})
}

// Result returns request i's result, assembled from where the shard
// wrote it. A blocking submission fills it in completely; a nonblocking
// one records only the enqueue outcome in Err (nil, or ErrQueueFull for
// a dropped packet). A frame refused at ingest carries its *FrameError. A
// request that was never submitted reads as the zero Result.
//
//gf:hotpath
func (b *Batch) Result(i int) Result {
	at := b.at[i]
	if at.blk == refused {
		return Result{Err: ErrShortFrame}
	}
	if int(at.blk) >= len(b.part) {
		return Result{}
	}
	blk := &b.part[at.blk]
	o := &blk.out[at.idx]
	return Result{Verdict: o.Verdict, Final: o.Final, CacheHit: o.CacheHit, Err: blk.errs[at.idx]}
}

// Key returns the flow key request i was processed under. After a
// blocking SubmitFrameBatch this is the key the owning shard decoded from
// frame i (zero for a refused frame); a nonblocking frame submission
// decodes later, on the shard, and leaves it unspecified.
func (b *Batch) Key(i int) gigaflow.Key {
	at := b.at[i]
	if at.blk == refused || int(at.blk) >= len(b.part) {
		return gigaflow.Key{}
	}
	return b.part[at.blk].keys[at.idx]
}

// shape sizes the per-shard scratch for a service with nw shards and
// empties every share.
func (b *Batch) shape(nw int) {
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

// place groups a batch built from keys by shard: each key is copied once,
// into the share of the shard that owns it, in request order.
func (b *Batch) place(s *Service) {
	b.shape(len(s.workers))
	for i := range b.keys {
		w := s.shardOfKey(&b.keys[i])
		blk := &b.part[w]
		idx := blk.next()
		blk.keys[idx], blk.metas[idx] = b.keys[i], b.metas[i]
		b.at[i] = slot{int32(w), int32(idx)}
	}
}

// ingest groups frames by shard as it reads them: a frame the RSS
// extractor accepts is filed — still undecoded, bytes in place — under
// the shard its symmetric hash picks; one it refuses is decoded here and
// filed by key hash, or, when too short for an Ethernet header, refused
// outright. The batch must be freshly shaped for s.
//
//gf:hotpath
func (b *Batch) ingest(s *Service, frames []Frame) {
	b.framed = true
	var tally frameTally // the fallback decodes of this batch
	var k gigaflow.Key
	var info wire.Info
	for i := range frames {
		f := &frames[i]
		if t, ok := wire.RSSTuple(f.Data); ok {
			w := s.shardOfTuple(&t)
			blk := &b.part[w]
			b.at = append(b.at, slot{int32(w), int32(blk.next())})
			blk.frames = append(blk.frames, frameRef{data: f.Data, inPort: f.InPort})
			continue
		}
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
		blk.frames = append(blk.frames, frameRef{inPort: f.InPort})
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
	resp        chan<- Result
}

// SubmitOption configures a single submission call. Options transform
// the config by value rather than through a pointer: taking the
// address of the per-call submitOpts would force it to escape to the
// heap, putting one allocation on every Submit/SubmitBatch — the only
// one the steady-state datapath would have.
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

// WithResponse directs every processed Result of a nonblocking submission
// to resp (dropped packets produce no send). The channel must have
// capacity for all results routed to it — the worker's send is blocking.
// It has no effect on blocking submissions, whose results land in the
// Batch (or the returned Result) already.
func WithResponse(resp chan<- Result) SubmitOption {
	return func(o submitOpts) submitOpts { o.resp = resp; return o }
}

// batchPool recycles single-request batches so the Submit and SubmitFrame
// wrappers stay allocation-free at steady state.
var batchPool = sync.Pool{New: func() any { return NewBatch(1) }}

// Submit processes one packet: a pooled batch of one through SubmitBatch.
// By default it blocks until the verdict is available and returns it; with
// Nonblocking it only enqueues (the returned Result carries no verdict;
// pair with WithResponse to receive it asynchronously). Flows with the
// same 5-tuple always reach the same worker. Errors: ErrNotStarted,
// ErrClosed, ErrQueueFull (nonblocking), ctx.Err(), or the packet's own
// pipeline error.
func (s *Service) Submit(ctx context.Context, k gigaflow.Key, opts ...SubmitOption) (Result, error) {
	b := batchPool.Get().(*Batch)
	b.Reset()
	b.Add(k)
	return only(b, s.submit(ctx, b, applyOpts(opts)))
}

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

// SubmitBatch submits every request in b as one unit: the batch is
// grouped into at most one share per worker, each shard processes its
// share through the batched hot path, and per-request Results are read
// back from b positionally.
//
// Blocking (default): returns after every request has its Result; order
// within a worker is submission order — including relative to the same
// goroutine's earlier nonblocking submissions and control operations —
// and a request's error (pipeline failure) is in its Result.Err while
// call-level failures (ErrNotStarted, ErrClosed, ctx.Err()) are returned.
// Even on a call-level failure every share that reached a worker is
// drained before returning, so b is always safe to reuse; requests that
// never ran carry the call error in their Result.Err.
//
// With Nonblocking: requests are enqueued without waiting; a request
// whose worker queue is full gets ErrQueueFull in its Result.Err, the
// rest have Result.Err nil with verdicts unreported (use WithResponse to
// stream them); after Close every request gets ErrClosed. The batch may
// be reused immediately.
func (s *Service) SubmitBatch(ctx context.Context, b *Batch, opts ...SubmitOption) error {
	return s.submit(ctx, b, applyOpts(opts))
}

// submit is the single internal submission path.
func (s *Service) submit(ctx context.Context, b *Batch, o submitOpts) error {
	if len(b.at) == 0 {
		return nil
	}
	if !b.framed {
		b.place(s)
	}
	// Only a nonblocking call may queue before Start; nothing may after
	// Close, when no worker will read a queue again.
	if err := s.running(); err != nil && !(o.nonblocking && err == ErrNotStarted) {
		b.fail(err)
		return err
	}
	if o.nonblocking {
		s.submitNonblocking(b, o.resp)
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
	waiting, callErr := s.dispatch(ctx, b, start.UnixNano())
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
			if !j.finished {
				waiting++ // packets parked behind upcalls: completions signal done
			}
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
func (s *Service) submitNonblocking(b *Batch, resp chan<- Result) {
	for w := range b.part {
		blk := &b.part[w]
		if len(blk.keys) == 0 {
			continue
		}
		if s.workers[w].offer(packet{job: &batchJob{blk: blk.clone(), resp: resp}}) {
			blk.settle(nil)
		} else {
			s.workers[w].drops.Add(uint64(len(blk.keys)))
			blk.settle(ErrQueueFull)
		}
	}
}
