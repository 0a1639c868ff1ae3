// Package service wraps gigaflow.VSwitch in the runtime scaffolding a
// deployment needs: RSS-sharded forwarding state (OVS's PMD-thread
// architecture), rule updates with immediate revalidation (§4.3.1),
// idle-entry expiry (§4.3.2), and graceful shutdown.
//
// The caches are deliberately single-threaded (as in the paper, where one
// CPU core runs the slowpath), so each shard owns its own cache shard and
// every flow is RSS-hashed to exactly one shard — the same spreading a NIC
// performs before delivering to per-core queues. The rules are not
// sharded: every shard walks the service's one pipeline, which a walk only
// reads. A miss is walked, partitioned and installed on the shard that owns
// it, inline (DESIGN.md §10).
//
// What makes a shard single-threaded is ownership, not a goroutine: every
// shard has an owner lock, and whoever holds it may touch the shard's
// VSwitch and recorder — nobody else, ever. It
// is taken once per message and never per packet. Each shard has a worker
// goroutine serving its input queue under that lock, but a blocking
// submitter whose shard is idle — nothing queued or running, lock free —
// takes the lock and runs its share itself, on its own goroutine, like
// the run-to-completion datapath thread the paper patches: the thread
// holding the burst classifies it, and no packet pays a queue hop or a
// wake-up. A busy shard's share is queued as before. A rule update changes
// the one pipeline once, holding every owner lock, and revalidates every
// shard's cache before letting go, failing or not, so no cache outlives the
// rules it was filled under.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gigaflow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/telemetry"
)

// sweepEvery is the idle sweep's period on the service clock: a shard
// sweeps at the start of the first message it serves this long or longer
// after its last sweep.
const sweepEvery = 500 * time.Millisecond

// workerQueue bounds each worker's input queue, in messages: jobs or control ops.
const workerQueue = 1024

// ConntrackConfig configures connection tracking (one section of
// Config): ct_state folded into the key, stateful NAT actions resolved
// against per-connection bindings, both directions of a 5-tuple on one
// shard (DESIGN.md "Conntrack" and "NAT"). Each shard binds only inside
// its own sub-range of every NAT pool, so each pool needs at least
// Workers targets, in New and after every UpdateRules; pool endpoints
// must be disjoint from the client endpoint space, so that a translated
// reply routes to the shard that bound it.
type ConntrackConfig struct {
	// Enable turns connection tracking on.
	Enable bool
	// MaxConns is the TOTAL live-connection budget, divided across
	// workers like the cache budgets (default 65536; only meaningful
	// with Enable). Under pressure the least recently seen connection is
	// evicted.
	MaxConns int
	// MaxIdle expires connections idle longer than this on the idle sweep
	// (0 keeps connections forever). Expired connections are
	// epoch-poisoned, so cache entries that depended on them die lazily.
	MaxIdle time.Duration
}

func (c ConntrackConfig) validate() error {
	if c.MaxConns < 0 {
		return fmt.Errorf("service: negative Conntrack.MaxConns (%d)", c.MaxConns)
	}
	if c.MaxIdle < 0 {
		return fmt.Errorf("service: negative Conntrack.MaxIdle (%v)", c.MaxIdle)
	}
	if !c.Enable && (c.MaxConns != 0 || c.MaxIdle != 0) {
		return errors.New("service: conntrack knobs set but Conntrack.Enable is false")
	}
	return nil
}

func (c ConntrackConfig) withDefaults() ConntrackConfig {
	if c.Enable && c.MaxConns <= 0 {
		c.MaxConns = 65536
	}
	return c
}

// Config parameterises a Service. Cross-cutting knobs are top-level;
// connection tracking's live in its nested section (Conntrack), with its
// own defaults and validation.
type Config struct {
	// Workers is the number of forwarding workers (default 1). The cache
	// budget is split evenly between them.
	Workers int
	// Cache configures the Gigaflow cache; TableCapacity is the TOTAL
	// budget, divided across workers (defaults 4×8192). Setting any field
	// together with MegaflowCapacity is a configuration error.
	Cache gigaflow.CacheConfig
	// MegaflowCapacity, when set, runs the Megaflow baseline in place of
	// Gigaflow: the TOTAL Megaflow entry budget, divided across workers
	// (0 runs Gigaflow).
	MegaflowCapacity int
	// MicroflowCapacity fronts each worker's main cache with an
	// exact-match Microflow tier; the TOTAL budget is divided across
	// workers (0 disables the tier).
	MicroflowCapacity int
	// MaxIdle expires cache entries idle longer than this (0 disables
	// cache-entry expiry). A shard sweeps at the start of the first
	// message it serves 500 ms or more after its last sweep, before the
	// message itself; Conntrack.MaxIdle expires connections on the same
	// sweep.
	MaxIdle time.Duration

	// Conntrack configures connection tracking.
	Conntrack ConntrackConfig
}

// validate rejects nonsensical configurations instead of silently
// papering over them with defaults.
func (c Config) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("service: negative Workers (%d)", c.Workers)
	}
	if c.MicroflowCapacity < 0 {
		return fmt.Errorf("service: negative MicroflowCapacity (%d)", c.MicroflowCapacity)
	}
	if c.MaxIdle < 0 {
		return fmt.Errorf("service: negative MaxIdle (%v)", c.MaxIdle)
	}
	if err := c.Conntrack.validate(); err != nil {
		return err
	}
	if c.MegaflowCapacity < 0 {
		return fmt.Errorf("service: negative MegaflowCapacity (%d)", c.MegaflowCapacity)
	}
	if c.MegaflowCapacity > 0 && c.Cache != (gigaflow.CacheConfig{}) {
		return errors.New("service: Gigaflow Cache parameters set together with MegaflowCapacity, which runs Megaflow")
	}
	if c.Cache.NumTables < 0 || c.Cache.TableCapacity < 0 {
		return fmt.Errorf("service: negative Gigaflow cache shape (%d tables × %d)",
			c.Cache.NumTables, c.Cache.TableCapacity)
	}
	if c.Cache.Scheme > gigaflow.SchemeProfile {
		return fmt.Errorf("service: unknown Cache.Scheme %v", c.Cache.Scheme)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MegaflowCapacity == 0 {
		if c.Cache.NumTables <= 0 {
			c.Cache.NumTables = gfcache.DefaultNumTables
		}
		if c.Cache.TableCapacity <= 0 {
			c.Cache.TableCapacity = gfcache.DefaultTableCapacity
		}
	}
	c.Conntrack = c.Conntrack.withDefaults()
	return c
}

// Result reports one packet's fate to its submitter.
type Result struct {
	Verdict  gigaflow.Verdict
	Final    gigaflow.Key
	CacheHit bool
	Err      error
}

// packet is one queued message for a shard's worker goroutine, and there
// are two kinds: a job — one share of a batch, the only form in which
// packets reach a shard, a single packet being a share of one — or a
// control function run under the shard's owner lock (rule update,
// snapshot).
type packet struct {
	job     *batchJob
	control func(i int, w *worker)
	ack     chan<- struct{} // control ops: signalled once the function has run
}

// worker is one shard: a cache shard over the service's pipeline, and the
// goroutine that serves its input queue.
type worker struct {
	// own is the shard's owner lock: vs, rec, out, errs and sweepAt are
	// touched only while holding it. The worker goroutine takes
	// it around every queued message; a blocking submitter takes it —
	// TryLock, never waiting — to run its own share.
	own sync.Mutex
	// inflight counts messages sent to in whose run has not finished:
	// incremented before the send, decremented after the message has run
	// and its signals are out. A submitter may run its share itself only
	// at zero: len(in) would miss a message already dequeued but not yet
	// run, and with it the rule that nothing a goroutine submitted
	// earlier — a nonblocking packet, a control op — is overtaken.
	inflight atomic.Int64

	vs    *gigaflow.VSwitch
	rec   *telemetry.LatencyRecorder
	in    chan packet
	idx   int           // shard index
	label string        // shard index, precomputed for metric labels
	state *atomic.Int32 // the service's lifecycle state: a closed service's shard sweeps nothing and fails every job

	out  []gigaflow.ProcessResult // where a job nobody waits on writes its results, grown to the largest job seen
	errs []error
	// sweepAt is the stamp from which the next message the shard serves
	// sweeps first: sweepEvery past the last sweep, never when nothing
	// expires. The sweep passes the limits Config.MaxIdle and
	// Conntrack.MaxIdle set (ns; 0 turns one off).
	sweepAt              int64
	maxIdle, connMaxIdle int64

	drops atomic.Uint64 // nonblocking rejections due to a full queue
}

// Lifecycle states, tracked in Service.state so the submission hot path
// can check them with one atomic load.
const (
	stateNew int32 = iota
	stateRunning
	stateClosed
)

// natEndpoint is one NAT pool target's (IP, port) pair, the lookup key
// of the reply-routing owner map.
type natEndpoint struct {
	ip, port uint64
}

// Service is a running multi-worker vSwitch.
type Service struct {
	cfg     Config
	workers []*worker
	// pipe is the pipeline every shard walks. Walks only read it, under
	// their shard's owner lock; UpdateRules changes it holding every one.
	pipe *gigaflow.Pipeline
	// natOwner routes NAT'd reply traffic: with conntrack enabled,
	// Workers > 1, and NAT pools defined, it maps every pool endpoint to
	// the shard whose sub-range of the pool holds it. A reply arrives on
	// the translated tuple — outside the forward direction's symmetric
	// hash — but its source endpoint is the bound backend, which only the
	// owning shard can have picked, so the map finds the shard that holds
	// the connection. Unset when conntrack is off or Workers is 1 (pure
	// symmetric sharding); UpdateRules publishes a new one.
	natOwner atomic.Pointer[map[natEndpoint]int]

	// clock stamps everything that ages a cache: a job, a share run in
	// place, and the idle sweep each of them may run first (unix ns). It is
	// time.Now; a test may replace it before Start. Latency and traversal
	// timings read the real clock.
	clock func() int64

	reg     *telemetry.Registry
	latency *telemetry.Histogram
	frames  *frameMetrics
	started atomic.Int64 // start wall time (unix ns); 0 before Start

	// state turns closed when shutdown begins, by Close or by a worker that
	// sees Start's context done; the last of the live workers closes term.
	state atomic.Int32 // stateNew → stateRunning → stateClosed
	term  chan struct{}
	live  atomic.Int32

	mu     sync.Mutex         // serialises Start
	cancel context.CancelFunc // stops the workers; set by Start before state turns running
}

// New builds a service around a pipeline. The service clones it once,
// through the textual program format, and every shard walks that one
// copy, so the original may be retained or discarded freely by the caller;
// post-start rule changes must go through UpdateRules. With conntrack on and Workers > 1, every NAT pool needs at
// least Workers targets.
func New(p *gigaflow.Pipeline, cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		reg:   telemetry.NewRegistry(),
		term:  make(chan struct{}),
		clock: func() int64 { return time.Now().UnixNano() },
	}
	s.latency = s.reg.Histogram("gigaflow_submit_latency_ns",
		"End-to-end blocking submission latency (enqueue to result) in nanoseconds.")
	s.frames = newFrameMetrics(s.reg)

	var program strings.Builder
	if err := gigaflow.DumpPipeline(&program, p); err != nil {
		return nil, err
	}
	pipe, err := gigaflow.LoadPipelineString(program.String())
	if err != nil {
		return nil, err
	}
	pipe.SetStart(p.Start)
	pipe.Settle()
	s.pipe = pipe
	if err := s.routeNAT(); err != nil {
		return nil, err
	}
	sweepAt := int64(math.MaxInt64)
	if cfg.MaxIdle > 0 || cfg.Conntrack.MaxIdle > 0 {
		sweepAt = sweepEvery.Nanoseconds()
	}
	for i := 0; i < cfg.Workers; i++ {
		// One recorder per worker: like the VSwitch it instruments, its
		// state is single-writer and lives on the worker goroutine.
		rec := telemetry.NewLatencyRecorder(0, 0)
		w := &worker{
			rec:         rec,
			in:          make(chan packet, workerQueue),
			idx:         i,
			label:       fmt.Sprintf("%d", i),
			state:       &s.state,
			sweepAt:     sweepAt,
			maxIdle:     cfg.MaxIdle.Nanoseconds(),
			connMaxIdle: cfg.Conntrack.MaxIdle.Nanoseconds(),
		}
		w.vs = s.newSwitch(i, gigaflow.WithLatencyRecorder(rec))
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// newSwitch builds shard i's VSwitch on the service's pipeline, with the
// shard's share of every budget, resuming stalled misses, plus extra.
func (s *Service) newSwitch(i int, extra ...gigaflow.VSwitchOption) *gigaflow.VSwitch {
	cfg := s.cfg
	// A stalled miss resumes where the main cache left off (a switch that
	// cannot resume ignores the option: DESIGN.md §8).
	opts := []gigaflow.VSwitchOption{gigaflow.WithStallResume()}
	if cfg.Conntrack.Enable {
		// Shard i binds only inside its own sub-range of every NAT pool, so
		// its bindings stay on the endpoints it owns.
		opts = append(opts, gigaflow.WithConntrack(shareOf(cfg.Conntrack.MaxConns, cfg.Workers, i)),
			gigaflow.WithNATShard(i, cfg.Workers))
	}
	perWorker := cfg.Cache
	perWorker.TableCapacity = shareOf(cfg.Cache.TableCapacity, cfg.Workers, i)
	if cfg.MegaflowCapacity > 0 {
		opts = append(opts, gigaflow.WithMegaflowBackend(shareOf(cfg.MegaflowCapacity, cfg.Workers, i)))
	}
	if cfg.MicroflowCapacity > 0 {
		opts = append(opts, gigaflow.WithMicroflow(shareOf(cfg.MicroflowCapacity, cfg.Workers, i)))
	}
	return gigaflow.NewVSwitch(s.pipe, perWorker, append(opts, extra...)...)
}

// Start launches the workers.
// Cancel ctx or call Close to stop. Errors: ErrStarted on a second Start,
// ErrClosed after Close.
func (s *Service) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state.Load() {
	case stateRunning:
		return ErrStarted
	case stateClosed:
		return ErrClosed
	}
	s.started.Store(time.Now().UnixNano())
	ctx, s.cancel = context.WithCancel(ctx)
	s.live.Store(int32(len(s.workers)))
	s.state.Store(stateRunning) // publishes cancel and live to Close
	for _, w := range s.workers {
		go s.runWorker(ctx, w)
	}
	return nil
}

// runWorker serves w's queue until ctx is done — by Close or by the
// caller, both end in one state: it closes the service, drains the queue
// and exits, the last worker closing term.
func (s *Service) runWorker(ctx context.Context, w *worker) {
	for {
		select {
		case <-ctx.Done():
			s.state.Store(stateClosed)
			w.drain()
			if s.live.Add(-1) == 0 {
				close(s.term)
			}
			return
		case m := <-w.in:
			w.serve(m, s.clock())
		}
	}
}

// running reports why blocking work cannot be accepted, if it cannot.
func (s *Service) running() error {
	switch s.state.Load() {
	case stateNew:
		return ErrNotStarted
	case stateClosed:
		return ErrClosed
	}
	return nil
}

// post queues m for w's worker goroutine, waiting for room; it gives up
// when ctx is done or the workers have exited. With offer it is the only
// place a message enters a worker queue, and so the only place the
// in-flight count goes up.
//
//gf:hotpath-safe the queued path: a busy shard's message crosses the worker channel
func (s *Service) post(ctx context.Context, w *worker, m packet) error {
	w.inflight.Add(1)
	select {
	case w.in <- m:
		return nil
	case <-ctx.Done():
		w.inflight.Add(-1)
		return ctx.Err()
	case <-s.term:
		w.inflight.Add(-1)
		return ErrClosed
	}
}

// offer is post that never waits: it reports false when the queue is
// full.
func (w *worker) offer(m packet) bool {
	w.inflight.Add(1)
	select {
	case w.in <- m:
		return true
	default:
		w.inflight.Add(-1)
		return false
	}
}

// tryRun runs j on the calling goroutine if the shard is idle — every
// message ever queued to it has been served, and nobody holds the owner
// lock — and reports whether it did, finishing j. It never waits: a busy
// shard's share is queued instead. now stamps every packet of the share,
// as a queued message's dequeue time would.
//
//gf:hotpath-safe the one uncontended owner-lock acquisition a share pays; never per packet
func (w *worker) tryRun(j *batchJob, now int64) bool {
	if w.inflight.Load() != 0 || !w.own.TryLock() {
		return false
	}
	w.exec(packet{job: j}, now)
	w.own.Unlock()
	j.finished = true
	return true
}

// exec is the one body a message runs through, under the owner lock, on
// whichever goroutine holds it: the due sweep unless the service is
// closed, then the control op, or the job — through runJob, or failed
// whole with ErrClosed on a closed service. The one stamp now covers every
// packet of a job's share, cache ages and flight timestamps alike.
func (w *worker) exec(m packet, now int64) {
	closed := w.state.Load() == stateClosed
	if !closed {
		w.due(now)
	}
	switch {
	case m.control != nil:
		m.control(w.idx, w)
	case closed:
		m.job.blk.settle(ErrClosed)
		m.job.closed = true
	default:
		w.runJob(m.job, now)
	}
}

// due opens a message stamped now: a shard whose last idle sweep is
// sweepEvery or more behind the stamp sweeps first, so whatever the
// message does or reads finds the caches as a sweep just before it would
// leave them. Every observer reaches a shard through a message, so expiry
// is a function of the messages' stamps, not of goroutine scheduling.
//
//gf:hotpath-safe one compare per message; the sweep itself runs at most once per sweepEvery
func (w *worker) due(now int64) {
	if now >= w.sweepAt {
		w.vs.ExpireIdle(now, w.maxIdle, w.connMaxIdle)
		w.sweepAt = now + sweepEvery.Nanoseconds()
	}
}

// serve runs one queued message stamped now under the owner lock and then
// — lock released — signals its end: a job's submitter, if one waits, or
// the control op's acknowledgement. Both channels are buffered for every
// shard and never block. The in-flight count drops last, so a submitter
// that sees the shard idle sees everything it queued earlier fully
// delivered.
func (w *worker) serve(m packet, now int64) {
	w.own.Lock()
	w.exec(m, now)
	w.own.Unlock()
	if m.job != nil && m.job.done != nil {
		m.job.done <- m.job
	}
	if m.ack != nil {
		m.ack <- struct{}{}
	}
	w.inflight.Add(-1)
}

// runJob processes one share on the shard that owns it, from exec. A
// single ProcessBatchMeta call covers every key ingest decoded — one
// VSwitch stats flush and one counter flush per cache tier for the whole
// share — writing each result into the slot Batch.Result reads, or, for a
// job nobody waits on, into the worker's scratch. now is the message's
// single wall-clock stamp, shared by every packet of the share.
//
//gf:hotpath
func (w *worker) runJob(j *batchJob, now int64) {
	out, errs := w.results(j)
	w.vs.ProcessBatchMeta(j.blk.keys, j.blk.metas, out, errs, now)
}

// results is where job j's results go: its share's own arrays when
// someone waits on the job, and otherwise the worker's scratch, which
// nobody reads.
//
//gf:hotpath-safe a job nobody waits on writes into worker scratch, grown once to the largest share
func (w *worker) results(j *batchJob) ([]gigaflow.ProcessResult, []error) {
	if j.done != nil {
		return j.blk.out, j.blk.errs
	}
	n := len(j.blk.keys)
	if cap(w.out) < n {
		w.out, w.errs = make([]gigaflow.ProcessResult, n), make([]error, n)
	}
	return w.out[:n], w.errs[:n]
}

// drain serves what is still queued once the service is closed, so
// blocking submitters are never stranded: exec runs control ops as ever
// (they only touch shard state) and fails jobs with ErrClosed. The loop
// stops as soon as the queue is momentarily empty — nonblocking
// submissions racing Close past that point are dropped with the queue,
// exactly like packets lost in a NIC ring at teardown (one that starts
// after Close has returned is refused with ErrClosed). The owner lock is
// taken per message, never across the receive.
func (w *worker) drain() {
	for {
		select {
		case m := <-w.in:
			w.serve(m, 0)
		default:
			return
		}
	}
}

// eachShard runs fn once per shard, under that shard's owner lock and
// behind everything already queued to it, and returns when every shard
// has run it. It is how every control operation — rule updates, stats
// and telemetry snapshots — reaches shard state. On a service that is
// not running it fails at once with ErrNotStarted or ErrClosed rather
// than queue to workers that will never serve it; when it returns an
// error (also ctx.Err()) some shards may still run fn later, so callers
// discard what fn collected.
func (s *Service) eachShard(ctx context.Context, fn func(i int, w *worker)) error {
	if err := s.running(); err != nil {
		return err
	}
	ack := make(chan struct{}, len(s.workers))
	for _, w := range s.workers {
		if err := s.post(ctx, w, packet{control: fn, ack: ack}); err != nil {
			return err
		}
	}
	for range s.workers {
		select {
		case <-ack:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.term:
			return ErrClosed
		}
	}
	return nil
}

// UpdateRules changes the service's rules: fn is called once, on the
// pipeline every shard walks, and every shard's cache is revalidated
// against the result before any packet sees it. What was queued to a shard
// before the call is served under the old rules first. fn runs holding
// every shard's owner lock, so no walk overlaps it; a failing fn's partial
// change stays and is revalidated like a whole one. With conntrack on and
// Workers > 1, the NAT pools fn leaves are split between the shards anew
// and replies routed by the new split; a pool left with fewer targets than
// Workers is reported as New reports it. fn's error comes first.
func (s *Service) UpdateRules(ctx context.Context, fn func(p *gigaflow.Pipeline) error) error {
	if err := s.eachShard(ctx, func(int, *worker) {}); err != nil {
		return err
	}
	for _, w := range s.workers {
		w.own.Lock()
	}
	err := fn(s.pipe)
	s.pipe.Settle()
	if natErr := s.routeNAT(); err == nil {
		err = natErr
	}
	for _, w := range s.workers {
		w.vs.Revalidate()
	}
	for _, w := range s.workers {
		w.own.Unlock()
	}
	return err
}

// Stats aggregates all shards' counters, each snapshotted under its
// owner lock for a coherent view.
func (s *Service) Stats(ctx context.Context) (gigaflow.VSwitchStats, error) {
	per := make([]gigaflow.VSwitchStats, len(s.workers))
	if err := s.eachShard(ctx, func(i int, w *worker) { per[i] = w.vs.Stats() }); err != nil {
		return gigaflow.VSwitchStats{}, err
	}
	var out gigaflow.VSwitchStats
	for _, st := range per {
		out = out.Add(st)
	}
	return out, nil
}

// Close stops the workers and returns once every one has exited. Work
// still queued is drained: control ops run, jobs complete with ErrClosed.
// Errors: ErrNotStarted before Start; ErrClosed when the service is
// closed already — by an earlier Close, or by a worker that saw the
// context given to Start done — returned, too, only once every worker has
// exited.
func (s *Service) Close() error {
	switch st := s.state.Load(); {
	case st == stateNew:
		return ErrNotStarted
	case st == stateRunning && s.state.CompareAndSwap(stateRunning, stateClosed):
		s.cancel()
		<-s.term
		return nil
	}
	<-s.term
	return ErrClosed
}

// shareOf is worker i's slice of a total capacity budget split over n
// workers: total/n, plus one unit of the remainder for the first
// total%n workers, so the shares sum exactly to the configured total
// (a naive total/n silently discarded up to n-1 entries). Every worker
// still receives at least 1 — the cache constructors reject zero — so
// when total < n the summed capacity is n, not total.
func shareOf(total, n, i int) int {
	share := total / n
	if i < total%n {
		share++
	}
	if share < 1 {
		share = 1
	}
	return share
}

// routeNAT rebuilds and publishes natOwner from the pipeline's NAT pools,
// each split over the shards as their switches split it (WithNATShard). A
// shard binds only inside its own sub-range, so an endpoint names exactly
// one shard. It reports a pool too small to give every shard a target and
// an endpoint two shards' sub-ranges share (two pools holding it split
// differently), but publishes the map either way. Nothing is routed when
// conntrack is off or Workers is 1: the single worker keeps the whole pool
// with zero routing overhead.
func (s *Service) routeNAT() error {
	n := s.cfg.Workers
	if !s.cfg.Conntrack.Enable || n == 1 {
		return nil
	}
	owner := make(map[natEndpoint]int)
	var errs []error
	for _, id := range s.pipe.NATPoolIDs() {
		if pool := s.pipe.NATPool(id); len(pool) < n {
			errs = append(errs, fmt.Errorf(
				"service: NAT pool %d has %d targets but Workers is %d — per-shard partitioning needs at least one target per worker",
				id, len(pool), n))
		}
		for w := 0; w < n; w++ {
			for _, t := range s.pipe.NATShard(id, w, n) {
				ep := natEndpoint{t.IP, t.Port}
				if prev, dup := owner[ep]; dup && prev != w {
					errs = append(errs, fmt.Errorf(
						"service: NAT endpoint %d:%d appears in differently-owned pool partitions (shards %d and %d)",
						t.IP, t.Port, prev, w))
				}
				owner[ep] = w
			}
		}
	}
	s.natOwner.Store(&owner)
	return errors.Join(errs...)
}

// shardOfKey routes a decoded key to its owning worker. The base rule is
// the endpoint-symmetric 5-tuple hash, Key.SymHash: both directions of a
// connection land on one shard. With partitioned NAT pools the hash is
// preceded by the owner map: a NAT'd reply arrives on the translated
// tuple, whose hash knows nothing of the forward direction, but its source
// endpoint is the bound backend — owned by exactly one shard. The source
// side is checked first (replies FROM a backend), then the destination
// (already translated keys flowing toward one, e.g. re-submissions of
// rewritten traffic).
//
//gf:hotpath
func (s *Service) shardOfKey(k *gigaflow.Key) int {
	if len(s.workers) == 1 {
		return 0 // nothing to choose: no hash, no modulo
	}
	if owner := s.natOwner.Load(); owner != nil {
		if w, ok := (*owner)[natEndpoint{k.Get(gigaflow.FieldIPSrc), k.Get(gigaflow.FieldTpSrc)}]; ok {
			return w
		}
		if w, ok := (*owner)[natEndpoint{k.Get(gigaflow.FieldIPDst), k.Get(gigaflow.FieldTpDst)}]; ok {
			return w
		}
	}
	return int(k.SymHash() % uint64(len(s.workers)))
}

// ShardStat is one worker shard's live-occupancy snapshot: how many
// packets it has processed and how much flow state it currently holds —
// the per-shard view of the churn story (live connections, idle expiry,
// capacity eviction) that aggregate counters average away.
type ShardStat struct {
	Worker       int
	Packets      uint64
	CacheEntries int
	Microflow    int
	CtLive       int
	CtCreated    uint64
	CtExpired    uint64
	CtEvicted    uint64
}

// ShardStats snapshots every shard under its owner lock (the same
// control-op discipline as Stats, so the counters are coherent per
// shard). The slice is indexed by worker.
func (s *Service) ShardStats(ctx context.Context) ([]ShardStat, error) {
	out := make([]ShardStat, len(s.workers))
	err := s.eachShard(ctx, func(i int, w *worker) {
		st := ShardStat{Worker: i, Packets: w.vs.Stats().Packets, CacheEntries: w.vs.CacheEntries()}
		if mf := w.vs.Microflow(); mf != nil {
			st.Microflow = mf.Len()
		}
		if ct := w.vs.Conntrack(); ct != nil {
			cs := ct.Stats()
			st.CtLive = ct.Len()
			st.CtCreated = cs.Created
			st.CtExpired = cs.Expired
			st.CtEvicted = cs.EvictLRU
		}
		out[i] = st
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
