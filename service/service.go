// Package service wraps gigaflow.VSwitch in the runtime scaffolding a
// deployment needs: RSS-sharded forwarding state (OVS's PMD-thread
// architecture), rule updates with immediate revalidation (§4.3.1),
// periodic idle-entry expiry (§4.3.2), and graceful shutdown.
//
// The caches are deliberately single-threaded (as in the paper, where one
// CPU core runs the slowpath), so each shard owns its own cache shard and
// every flow is RSS-hashed to exactly one shard — the same spreading a NIC
// performs before delivering to per-core queues. The rules are not
// sharded: every shard, and the upcall engine, walks the service's one
// pipeline, which a walk only reads.
//
// What makes a shard single-threaded is ownership, not a goroutine: every
// shard has an owner lock, and whoever holds it may touch the shard's
// VSwitch, recorder, frame tally and upcall table — nobody else, ever. It
// is taken once per message and never per packet. Each shard has a worker
// goroutine serving its input queue under that lock, but a blocking
// submitter whose shard is idle — nothing queued or running, lock free —
// takes the lock and runs its share itself, on its own goroutine, like
// the run-to-completion datapath thread the paper patches: the thread
// holding the burst classifies it, and no packet pays a queue hop or a
// wake-up. A busy shard's share is queued as before. A rule update changes
// the one pipeline once, holding every owner lock and the lock the engine
// walks under, and revalidates every shard's cache before letting go,
// failing or not, so no cache outlives the rules it was filled under.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/upcall"
)

// Backend selects the main-cache architecture the workers run.
type Backend uint8

const (
	// BackendGigaflow is the K-table LTM sub-traversal cache (default).
	BackendGigaflow Backend = iota
	// BackendMegaflow is the single-lookup wildcard cache baseline.
	BackendMegaflow
)

// String names the backend.
func (b Backend) String() string {
	if b == BackendMegaflow {
		return "megaflow"
	}
	return "gigaflow"
}

// ExpiryConfig configures the periodic idle sweep (one section of Config).
type ExpiryConfig struct {
	// Every triggers idle-entry sweeps at this interval (default 500ms;
	// requires MaxIdle, or an enabled Conntrack section with its own
	// MaxIdle, so the sweep has something to evict).
	Every time.Duration
	// MaxIdle expires cache entries idle longer than this (0 disables
	// cache-entry expiry).
	MaxIdle time.Duration
}

func (c ExpiryConfig) validate() error {
	if c.MaxIdle < 0 {
		return fmt.Errorf("service: negative Expiry.MaxIdle (%v)", c.MaxIdle)
	}
	if c.Every < 0 {
		return fmt.Errorf("service: negative Expiry.Every (%v)", c.Every)
	}
	return nil
}

func (c ExpiryConfig) withDefaults() ExpiryConfig {
	if c.Every == 0 {
		c.Every = 500 * time.Millisecond
	}
	return c
}

// UpcallConfig configures the asynchronous slow-path offload (one
// section of Config).
type UpcallConfig struct {
	// Workers enables the offload with this many engine goroutines (0,
	// the default, keeps misses inline). With the offload on, a
	// main-cache miss parks the packet and enqueues an upcall instead of
	// blocking the worker on the pipeline traversal; concurrent misses
	// of the same flow coalesce onto one traversal, and parked packets
	// are released in arrival order per flow, so results and VSwitch
	// stats are indistinguishable from inline processing, OverflowInline's
	// fallback included. Each tier's own stats are too while no miss
	// meets a full queue and no cache tier evicts: the fallback probes a
	// parked packet's tiers a second time, and a batch's parked misses
	// reach an LRU tier after the batch's hits, so once one evicts, which
	// flows it keeps can differ.
	Workers int
	// Queue bounds the shared miss queue (default 1024). A fresh miss
	// that finds it full is handled per Overflow; packets of
	// already-pending flows never touch the queue.
	Queue int
	// Overflow selects the full-queue policy: OverflowInline (default)
	// traverses on the worker, OverflowDrop fails the packet with
	// ErrUpcallOverflow.
	Overflow OverflowPolicy
}

func (c UpcallConfig) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("service: negative Upcall.Workers (%d)", c.Workers)
	}
	if c.Queue < 0 {
		return fmt.Errorf("service: negative Upcall.Queue (%d)", c.Queue)
	}
	switch c.Overflow {
	case OverflowInline, OverflowDrop:
	default:
		return fmt.Errorf("service: unknown Upcall.Overflow (%d)", c.Overflow)
	}
	if c.Workers == 0 && (c.Queue != 0 || c.Overflow != OverflowInline) {
		return errors.New("service: upcall knobs set but Upcall.Workers is 0 (offload disabled)")
	}
	return nil
}

func (c UpcallConfig) withDefaults() UpcallConfig {
	if c.Workers > 0 && c.Queue <= 0 {
		c.Queue = 1024
	}
	return c
}

// LatencyConfig configures the per-worker latency attribution layer (one
// section of Config).
type LatencyConfig struct {
	// Disable turns off attribution (per-tier nanosecond histograms and
	// the flight-recorder ring, served on /latency and /debug/flight).
	// Attribution is on by default: its hot path adds two clock reads
	// per batch and plain stores per packet.
	Disable bool
	// FlightRecords sizes each worker's flight-recorder ring, rounded up
	// to a power of two (default telemetry.DefaultFlightRecords, 1024).
	FlightRecords int
	// Spike, when set, snapshots a worker's flight ring whenever a
	// packet's latency meets or exceeds it, so a tail spike comes with
	// the events that surrounded it (0 disables spike captures).
	Spike time.Duration
}

func (c LatencyConfig) validate() error {
	if c.FlightRecords < 0 {
		return fmt.Errorf("service: negative Latency.FlightRecords (%d)", c.FlightRecords)
	}
	if c.Spike < 0 {
		return fmt.Errorf("service: negative Latency.Spike (%v)", c.Spike)
	}
	if c.Disable && (c.FlightRecords != 0 || c.Spike != 0) {
		return errors.New("service: Latency.FlightRecords/Spike set but Latency.Disable turns attribution off")
	}
	return nil
}

// ConntrackConfig configures connection tracking (one section of
// Config). With Enable set, every worker runs a conntrack table in front
// of its pipeline: ct_state bits are folded into the key the caches and
// slowpath match on, and stateful NAT actions (dnat/snat/ct_nat) resolve
// against per-connection bindings. Flows are sharded symmetrically —
// both directions of a 5-tuple land on the same worker, so its private
// table sees the whole conversation with no cross-shard locks.
//
// NAT pipelines scale past one worker through pool partitioning: each
// shard binds connections only inside its own disjoint sub-range of every
// NAT pool (so each pool needs at least Workers targets, in New and after
// every UpdateRules), so a shard only ever binds to endpoints it owns, and
// replies — which arrive on the translated tuple, outside the forward
// direction's symmetric hash — are routed to the owning shard by an
// endpoint→shard map consulted before the hash. Pool endpoints must be
// disjoint from the client endpoint space for that routing to be
// unambiguous.
type ConntrackConfig struct {
	// Enable turns connection tracking on.
	Enable bool
	// MaxConns is the TOTAL live-connection budget, divided across
	// workers like the cache budgets (default 65536; only meaningful
	// with Enable). Under pressure the least recently seen connection is
	// evicted.
	MaxConns int
	// MaxIdle expires connections idle longer than this on the Expiry
	// sweep (0 keeps connections forever). Expired connections are
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
// subsystem knobs live in the nested sections (Expiry, Upcall, Latency,
// Conntrack), each with its own defaults and validation.
type Config struct {
	// Workers is the number of forwarding workers (default 1). The cache
	// budget is split evenly between them.
	Workers int
	// Backend selects the main cache (default BackendGigaflow).
	Backend Backend
	// Cache configures the Gigaflow cache; TableCapacity is the TOTAL
	// budget, divided across workers (defaults 4×8192). Setting any field
	// with BackendMegaflow is a configuration error.
	Cache gigaflow.CacheConfig
	// MegaflowCapacity is the TOTAL Megaflow entry budget, divided across
	// workers (default 32768). Only valid with BackendMegaflow.
	MegaflowCapacity int
	// MicroflowCapacity fronts each worker's main cache with an
	// exact-match Microflow tier; the TOTAL budget is divided across
	// workers (0 disables the tier).
	MicroflowCapacity int
	// QueueDepth is each worker's input queue length (default 1024).
	QueueDepth int

	// Expiry configures the periodic idle sweep.
	Expiry ExpiryConfig
	// Upcall configures the asynchronous slow-path offload. Mutually
	// exclusive with Conntrack.Enable: the offload's parked slowpath is
	// stateless.
	Upcall UpcallConfig
	// Latency configures the latency attribution layer.
	Latency LatencyConfig
	// Conntrack configures connection tracking.
	Conntrack ConntrackConfig

	// TelemetryAddr, when non-empty, serves the introspection endpoints
	// (/metrics, /traces, /cache, /shards, /latency, /debug/flight,
	// /debug/pprof, /debug/vars; see TelemetryHandler) on this address
	// from Start until Close (e.g. "127.0.0.1:9090"; use port 0 to pick
	// a free port, readable via Service.TelemetryAddr). Cancelling
	// Start's context stops the workers but not this server: until Close
	// it keeps serving the registry's last values and answers the
	// per-shard endpoints with 503.
	TelemetryAddr string
	// TraceSample records a full traversal trace for one in N processed
	// packets (0 disables tracing; the packet path then carries a single
	// branch and no allocations).
	TraceSample int
	// TraceBuffer bounds the ring of retained traces (default 256).
	TraceBuffer int
}

// validate rejects nonsensical configurations instead of silently
// papering over them with defaults.
func (c Config) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("service: negative Workers (%d)", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("service: negative QueueDepth (%d)", c.QueueDepth)
	}
	if c.MicroflowCapacity < 0 {
		return fmt.Errorf("service: negative MicroflowCapacity (%d)", c.MicroflowCapacity)
	}
	if c.TraceSample < 0 {
		return fmt.Errorf("service: negative TraceSample (%d)", c.TraceSample)
	}
	if c.TraceBuffer < 0 {
		return fmt.Errorf("service: negative TraceBuffer (%d)", c.TraceBuffer)
	}
	if err := c.Expiry.validate(); err != nil {
		return err
	}
	if err := c.Upcall.validate(); err != nil {
		return err
	}
	if err := c.Latency.validate(); err != nil {
		return err
	}
	if err := c.Conntrack.validate(); err != nil {
		return err
	}
	if c.Expiry.Every > 0 && c.Expiry.MaxIdle == 0 &&
		!(c.Conntrack.Enable && c.Conntrack.MaxIdle > 0) {
		return errors.New("service: Expiry.Every set but MaxIdle is 0 (expiry would never evict)")
	}
	if c.Conntrack.Enable && c.Upcall.Workers > 0 {
		return errors.New("service: Conntrack and the Upcall offload are mutually exclusive: a conntrack switch resolves every miss inline, so the upcall workers would never receive work (lifting this takes a parked record that carries the tracked key, the connection's epoch and the direction)")
	}
	switch c.Backend {
	case BackendGigaflow:
		if c.MegaflowCapacity != 0 {
			return errors.New("service: MegaflowCapacity set but Backend is BackendGigaflow")
		}
		if c.Cache.NumTables < 0 || c.Cache.TableCapacity < 0 {
			return fmt.Errorf("service: negative Gigaflow cache shape (%d tables × %d)",
				c.Cache.NumTables, c.Cache.TableCapacity)
		}
	case BackendMegaflow:
		if c.Cache != (gigaflow.CacheConfig{}) {
			return errors.New("service: Gigaflow Cache parameters set but Backend is BackendMegaflow")
		}
		if c.MegaflowCapacity < 0 {
			return fmt.Errorf("service: negative MegaflowCapacity (%d)", c.MegaflowCapacity)
		}
	default:
		return fmt.Errorf("service: unknown Backend (%d)", c.Backend)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	switch c.Backend {
	case BackendGigaflow:
		if c.Cache.NumTables <= 0 {
			c.Cache.NumTables = 4
		}
		if c.Cache.TableCapacity <= 0 {
			c.Cache.TableCapacity = 8192
		}
	case BackendMegaflow:
		if c.MegaflowCapacity <= 0 {
			c.MegaflowCapacity = 32768
		}
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 256
	}
	c.Expiry = c.Expiry.withDefaults()
	c.Upcall = c.Upcall.withDefaults()
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
// snapshot, expiry, a group of engine-completed upcalls to apply).
type packet struct {
	job     *batchJob
	control func(i int, w *worker)
	ack     chan<- struct{} // control ops: signalled once the function has run
}

// respMsg is one Result bound for a WithResponse channel.
type respMsg struct {
	ch chan<- Result
	r  Result
}

// worker is one shard: a cache shard over the service's pipeline, and the
// goroutine that serves its input queue.
type worker struct {
	// own is the shard's owner lock: vs, rec, tally, procPark, stopped and
	// the async offload state below are touched only while holding it. The
	// worker goroutine takes it around every queued message; a blocking
	// submitter takes it — TryLock, never waiting — to run its own share.
	own sync.Mutex
	// inflight counts messages sent to in whose run has not finished:
	// incremented before the send, decremented after the message has run
	// and its signals are out. A submitter may run its share itself only
	// at zero: len(in) would miss a message already dequeued but not yet
	// run, and with it the rule that nothing a goroutine submitted
	// earlier — a nonblocking packet, a control op — is overtaken.
	inflight atomic.Int64

	vs    *gigaflow.VSwitch
	rec   *telemetry.LatencyRecorder // nil when Config.Latency.Disable
	fm    *frameMetrics              // shared frame accounting (atomic counters)
	tally frameTally                 // this shard's share of one job's frames, flushed to fm per job
	in    chan packet
	idx   int    // shard index = upcall.Miss.Shard
	label string // shard index, precomputed for metric labels

	procPark []bool // ProcessBatchPark's parked flags, grown to the largest job seen
	stopped  bool   // drain has begun: a share run from here on fails with ErrClosed

	// What the message being served must tell other goroutines, collected
	// under the owner lock and sent once it is released. Only the worker
	// goroutine fills and flushes these: a submitter running its own share
	// has no response channel and learns of completion by return value.
	resps []respMsg
	fin   []*batchJob

	drops atomic.Uint64 // nonblocking rejections due to a full queue
	skips atomic.Uint64 // expiry sweeps skipped due to a full queue

	// Asynchronous offload state (Config.Upcall.Workers > 0), all of it
	// owner-lock state.
	async    bool
	overflow OverflowPolicy
	pending  *upcall.Table[parked]
	upq      *upcall.Queue[parked]

	ovInline  uint64 // full-queue misses traversed inline
	ovDrop    uint64 // full-queue misses dropped (OverflowDrop)
	stale     uint64 // engine traversals discarded
	completed uint64 // flow completions applied
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
	// pipe is the pipeline every shard and the upcall engine walk. Walks
	// only read it; UpdateRules changes it holding every owner lock and
	// rules, which the engine read-locks around its walks (a shard's own
	// walks run under its owner lock).
	pipe  *gigaflow.Pipeline
	rules sync.RWMutex
	// natOwner routes NAT'd reply traffic: with conntrack enabled,
	// Workers > 1, and NAT pools defined, it maps every pool endpoint to
	// the shard whose sub-range of the pool holds it. A reply arrives on
	// the translated tuple — outside the forward direction's symmetric
	// hash — but its source endpoint is the bound backend, which only the
	// owning shard can have picked, so the map finds the shard that holds
	// the connection. Unset when conntrack is off or Workers is 1 (pure
	// symmetric sharding); UpdateRules publishes a new one.
	natOwner atomic.Pointer[map[natEndpoint]int]

	// Asynchronous offload (Config.Upcall.Workers > 0): the shared miss
	// queue and the engine draining it. Nil when running synchronously.
	upq *upcall.Queue[parked]
	eng *upcall.Engine[parked]

	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	latency *telemetry.Histogram
	frames  *frameMetrics
	started atomic.Int64 // start wall time (unix ns); 0 before Start
	tsrv    *telemetryServer

	state atomic.Int32  // stateNew → stateRunning → stateClosed
	term  chan struct{} // closed once every worker has exited

	mu     sync.Mutex
	cancel context.CancelFunc
	done   sync.WaitGroup
}

// New builds a service around a pipeline. The service clones it once,
// through the textual program format, and every shard and the upcall
// engine walk that one copy, so the original may be retained or discarded
// freely by the caller; post-start rule changes must go through
// UpdateRules. With conntrack on and Workers > 1, every NAT pool needs at
// least Workers targets.
func New(p *gigaflow.Pipeline, cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		reg:    telemetry.NewRegistry(),
		tracer: telemetry.NewTracer(cfg.TraceSample, cfg.TraceBuffer),
		term:   make(chan struct{}),
	}
	s.latency = s.reg.Histogram("gigaflow_submit_latency_ns",
		"End-to-end Submit latency (enqueue to result) in nanoseconds.")
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
	for i := 0; i < cfg.Workers; i++ {
		opts := []gigaflow.VSwitchOption{gigaflow.WithTracer(s.tracer)}
		if cfg.Expiry.MaxIdle > 0 {
			opts = append(opts, gigaflow.WithMaxIdle(cfg.Expiry.MaxIdle.Nanoseconds()))
		}
		if cfg.Conntrack.Enable {
			// Shard i binds only inside its own sub-range of every NAT pool,
			// so its bindings stay on the endpoints it owns.
			opts = append(opts, gigaflow.WithConntrack(shareOf(cfg.Conntrack.MaxConns, cfg.Workers, i)),
				gigaflow.WithNATShard(i, cfg.Workers))
			if cfg.Conntrack.MaxIdle > 0 {
				opts = append(opts, gigaflow.WithConntrackMaxIdle(cfg.Conntrack.MaxIdle.Nanoseconds()))
			}
		}
		perWorker := cfg.Cache
		perWorker.TableCapacity = shareOf(cfg.Cache.TableCapacity, cfg.Workers, i)
		if cfg.Backend == BackendMegaflow {
			opts = append(opts, gigaflow.WithMegaflowBackend(shareOf(cfg.MegaflowCapacity, cfg.Workers, i)))
		}
		if cfg.MicroflowCapacity > 0 {
			opts = append(opts, gigaflow.WithMicroflow(shareOf(cfg.MicroflowCapacity, cfg.Workers, i)))
		}
		var rec *telemetry.LatencyRecorder
		if !cfg.Latency.Disable {
			// One recorder per worker: like the VSwitch it instruments, its
			// state is single-writer and lives on the worker goroutine.
			rec = telemetry.NewLatencyRecorder(cfg.Latency.FlightRecords, cfg.Latency.Spike)
			opts = append(opts, gigaflow.WithLatencyRecorder(rec))
		}
		w := &worker{
			rec:   rec,
			fm:    s.frames,
			in:    make(chan packet, cfg.QueueDepth),
			idx:   i,
			label: fmt.Sprintf("%d", i),
		}
		if cfg.Upcall.Workers > 0 {
			w.async = true
			w.overflow = cfg.Upcall.Overflow
			w.pending = upcall.NewTable[parked]()
		}
		w.vs = gigaflow.NewVSwitch(pipe, perWorker, opts...)
		s.workers = append(s.workers, w)
	}
	if cfg.Upcall.Workers > 0 {
		s.upq = upcall.NewQueue[parked](cfg.Upcall.Queue)
		// An engine goroutine drains up to DefaultBatchSize queued misses
		// per wakeup, batching their traversals and completions.
		s.eng = upcall.NewEngine(s.upq, cfg.Upcall.Workers, DefaultBatchSize, s.handleUpcalls)
		for _, w := range s.workers {
			w.upq = s.upq
		}
	}
	return s, nil
}

// Start launches the workers and the expiry ticker. Cancel ctx or call
// Close to stop. Errors: ErrStarted on a second Start, ErrClosed after
// Close.
func (s *Service) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state.Load() {
	case stateRunning:
		return ErrStarted
	case stateClosed:
		return ErrClosed
	}
	s.state.Store(stateRunning)
	s.started.Store(time.Now().UnixNano())
	ctx, s.cancel = context.WithCancel(ctx)
	if s.eng != nil {
		s.eng.Start(ctx)
	}
	for _, w := range s.workers {
		s.done.Add(1)
		go s.runWorker(ctx, w)
	}
	if s.cfg.Expiry.MaxIdle > 0 ||
		(s.cfg.Conntrack.Enable && s.cfg.Conntrack.MaxIdle > 0) {
		s.done.Add(1)
		go s.runExpiry(ctx)
	}
	// The watcher closes term once every worker has exited — whether the
	// shutdown came from Close or from the caller cancelling ctx — so
	// batch submitters gathering completions always unblock.
	go func() {
		s.done.Wait()
		close(s.term)
	}()
	if s.cfg.TelemetryAddr != "" {
		if err := s.startTelemetry(s.cfg.TelemetryAddr); err != nil {
			s.cancel()
			return err
		}
	}
	return nil
}

func (s *Service) runWorker(ctx context.Context, w *worker) {
	defer s.done.Done()
	for {
		select {
		case <-ctx.Done():
			w.drain()
			return
		case m := <-w.in:
			w.serve(m, false)
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
// lock — and reports whether it did. It never waits: a busy shard's
// share is queued instead. j.finished is set unless packets were parked
// behind upcalls, whose completions will signal j.done. now stamps every
// packet of the share, as a queued message's dequeue time would.
//
//gf:hotpath-safe the one uncontended owner-lock acquisition a share pays; never per packet
func (w *worker) tryRun(j *batchJob, now int64) bool {
	if w.inflight.Load() != 0 || !w.own.TryLock() {
		return false
	}
	if w.stopped {
		j.blk.settle(ErrClosed)
		j.finished = true
	} else {
		j.finished = w.runJob(j, now)
	}
	w.own.Unlock()
	return true
}

// serve runs one queued message under the owner lock and then — lock
// released — sends what it produced: results to response channels,
// finished jobs to their submitters, the control acknowledgement. The
// in-flight count drops last, so a submitter that sees the shard idle
// sees everything it queued earlier fully delivered. closing is drain's
// mode: work fails with ErrClosed and no send may wait.
func (w *worker) serve(m packet, closing bool) {
	w.own.Lock()
	if closing {
		w.stopped = true
		w.refuse(m)
	} else {
		w.run(m)
	}
	w.own.Unlock()
	w.flush(closing)
	if m.ack != nil {
		m.ack <- struct{}{} // buffered for every shard by eachShard
	}
	w.inflight.Add(-1)
}

// flush sends the collected results and completion signals, in the order
// they were produced. try makes response sends give up on a full channel
// (shutdown: a fire-and-forget submitter may be gone); done channels are
// buffered for every share of their batch and never block.
func (w *worker) flush(try bool) {
	for i := range w.resps {
		m := &w.resps[i]
		if !try {
			m.ch <- m.r
			continue
		}
		select {
		case m.ch <- m.r:
		default:
		}
	}
	for _, j := range w.fin {
		j.done <- j
	}
	w.resps, w.fin = w.resps[:0], w.fin[:0]
}

// reply queues one packet's result for its response channel, if it has
// one.
func (w *worker) reply(ch chan<- Result, res *gigaflow.ProcessResult, err error) {
	if ch != nil {
		w.resps = append(w.resps, respMsg{ch, Result{Verdict: res.Verdict, Final: res.Final, CacheHit: res.CacheHit, Err: err}})
	}
}

// run executes one queued message under the owner lock. A job's wall
// clock is read once and stamps every packet of the share, so the share
// ages caches identically and the latency recorder anchors its flight
// timestamps on the same stamp that touched the cache entries.
func (w *worker) run(m packet) {
	if m.control != nil {
		m.control(w.idx, w)
	} else if w.runJob(m.job, time.Now().UnixNano()) && m.job.done != nil {
		w.fin = append(w.fin, m.job)
	}
}

// refuse is run for a message found queued at shutdown: control ops run
// normally (they only touch shard state — and upcall completions the
// engine already delivered give their submitters real results), while
// jobs fail with ErrClosed.
func (w *worker) refuse(m packet) {
	if m.control != nil {
		m.control(w.idx, w)
		return
	}
	m.job.blk.settle(ErrClosed)
	if m.job.done != nil {
		w.fin = append(w.fin, m.job)
	}
}

// runJob processes one share on the shard that owns it, under the owner
// lock, on whichever goroutine holds it — the worker's for a queued job,
// the submitter's for one run in place; there is no other body. Entries
// that arrived as raw frames are decoded first, straight into the key
// slots the batch scan reads; then a single ProcessBatchMeta call covers
// every key — one VSwitch stats flush and one counter flush per cache
// tier for the whole share — writing each result into the slot
// Batch.Result reads. now is the message's single wall-clock stamp,
// shared by every packet of the share. It reports whether the job is
// finished; an async job that parked packets finishes later, in deliver.
//
//gf:hotpath
func (w *worker) runJob(j *batchJob, now int64) (finished bool) {
	blk := j.blk
	if len(blk.frames) != 0 {
		var info wire.Info
		for i := range blk.frames {
			fr := &blk.frames[i]
			if fr.data == nil {
				continue // decoded by the submitter (RSS extractor refused it)
			}
			wire.DecodeInto(fr.data, fr.inPort, &blk.keys[i], &info)
			w.tally.add(&info, len(fr.data))
			blk.metas[i] = info.TCPFlags
		}
		// Once per job, and before its results are visible: a submitter
		// that has its verdicts reads its frames in /metrics.
		w.fm.flush(&w.tally)
	}
	if w.async {
		return w.parkJob(j, now)
	}
	w.vs.ProcessBatchMeta(blk.keys, blk.metas, blk.out, blk.errs, now)
	if j.resp != nil {
		for i := range blk.out {
			w.reply(j.resp, &blk.out[i], blk.errs[i])
		}
	}
	return true
}

// parkJob is runJob's scan in async offload mode: hits resolve in the
// batch scan; misses park behind their flows and answer later via
// complete. j.pending starts at 1 for the scan itself so a completion
// can never finish the job mid-scan (impossible today — completions need
// the owner lock this scan holds — but cheap to make structural); the
// scan's own unit is released at the end, finishing the job if nothing
// parked.
//
//gf:hotpath-safe async offload: parking a miss allocates its pending-flow entry and feeds the upcall queue by design
func (w *worker) parkJob(j *batchJob, now int64) (finished bool) {
	blk := j.blk
	n := len(blk.keys)
	if cap(w.procPark) < n {
		w.procPark = make([]bool, n)
	}
	parks := w.procPark[:n]
	w.vs.ProcessBatchPark(blk.keys, blk.out, blk.errs, parks, now)
	j.pending = 1
	for i := 0; i < n; i++ {
		if parks[i] {
			if w.parkOne(blk.keys[i], parked{job: j, idx: i}, now) {
				j.pending++
				continue
			}
			blk.out[i], blk.errs[i] = w.parkFallback(blk.keys[i], now)
		}
		w.reply(j.resp, &blk.out[i], blk.errs[i])
	}
	j.pending--
	return j.pending == 0
}

// drain completes work still queued at shutdown so blocking submitters
// are never stranded (see refuse). The loop stops as soon as the queue
// is momentarily empty — nonblocking submissions racing Close past that
// point are dropped with the queue, exactly like packets lost in a NIC
// ring at teardown (one that starts after Close has returned is refused
// with ErrClosed) — and then the pending-flow table is swept so parked
// packets whose completions never arrived fail with ErrClosed too. The
// owner lock is taken per message, never across the receive.
func (w *worker) drain() {
	for {
		select {
		case m := <-w.in:
			w.serve(m, true)
		default:
			w.own.Lock()
			w.stopped = true
			w.sweepParked()
			w.own.Unlock()
			w.flush(true)
			return
		}
	}
}

func (s *Service) runExpiry(ctx context.Context) {
	defer s.done.Done()
	ticker := time.NewTicker(s.cfg.Expiry.Every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			now := time.Now().UnixNano()
			expire := func(_ int, w *worker) { w.vs.ExpireIdle(now) }
			for _, w := range s.workers {
				// A full queue skips this sweep; the next tick retries.
				if !w.offer(packet{control: expire}) {
					w.skips.Add(1)
				}
			}
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
// every shard's owner lock and the engine's traversal lock, so no walk
// overlaps it; a failing fn's partial change stays and is revalidated
// like a whole one. With conntrack on and Workers > 1, the NAT pools fn
// leaves are split between the shards anew and replies routed by the new
// split; a pool left with fewer targets than Workers is reported as New
// reports it. fn's error comes first.
func (s *Service) UpdateRules(ctx context.Context, fn func(p *gigaflow.Pipeline) error) error {
	if err := s.eachShard(ctx, func(int, *worker) {}); err != nil {
		return err
	}
	for _, w := range s.workers {
		w.own.Lock()
	}
	s.rules.Lock()
	err := fn(s.pipe)
	s.pipe.Settle()
	if natErr := s.routeNAT(); err == nil {
		err = natErr
	}
	for _, w := range s.workers {
		w.vs.Revalidate()
	}
	s.rules.Unlock()
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

// CacheEntries sums cache entries across shards, each counted under its
// owner lock; 0 on a service that is not running.
func (s *Service) CacheEntries() int {
	per := make([]int, len(s.workers))
	if err := s.eachShard(context.Background(), func(i int, w *worker) { per[i] = w.vs.CacheEntries() }); err != nil {
		return 0
	}
	total := 0
	for _, n := range per {
		total += n
	}
	return total
}

// Close stops the workers, the telemetry server, and waits for them to
// exit. Work still queued is drained: control ops run, packets and jobs
// complete with ErrClosed. Errors: ErrNotStarted before Start, ErrClosed
// on a second Close.
func (s *Service) Close() error {
	s.mu.Lock()
	switch s.state.Load() {
	case stateNew:
		s.mu.Unlock()
		return ErrNotStarted
	case stateClosed:
		s.mu.Unlock()
		return ErrClosed
	}
	s.state.Store(stateClosed)
	tsrv := s.tsrv
	s.mu.Unlock()
	if tsrv != nil {
		tsrv.stop()
	}
	s.cancel()
	<-s.term // the Start watcher closes term once every worker has exited
	if s.eng != nil {
		s.eng.Wait() // engine goroutines exit on the same cancellation
	}
	return nil
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
// the endpoint-symmetric 5-tuple hash — both directions of a connection
// land on one shard, and it is bit-identical to the wire-bytes RSS hash
// (flow.SymHash5 under both), so key-routed and wire-routed packets of a
// flow always agree. With partitioned NAT pools the hash is preceded by
// the owner map: a NAT'd reply arrives on the translated tuple, whose
// hash knows nothing of the forward direction, but its source endpoint
// is the bound backend — owned by exactly one shard. The source side is
// checked first (replies FROM a backend), then the destination (already
// translated keys flowing toward one, e.g. re-submissions of rewritten
// traffic).
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

// shardOfTuple is shardOfKey for a wire-extracted 5-tuple: same owner-map
// precedence, same symmetric hash, so a frame routed from its raw bytes
// lands exactly where its decoded key would have.
//
//gf:hotpath
func (s *Service) shardOfTuple(t *wire.Tuple) int {
	if len(s.workers) == 1 {
		return 0
	}
	if owner := s.natOwner.Load(); owner != nil {
		if w, ok := (*owner)[natEndpoint{t.SrcIP, t.SrcPort}]; ok {
			return w
		}
		if w, ok := (*owner)[natEndpoint{t.DstIP, t.DstPort}]; ok {
			return w
		}
	}
	return int(t.SymHash() % uint64(len(s.workers)))
}

// ShardStat is one worker shard's live-occupancy snapshot: how many
// packets it has processed and how much flow state it currently holds —
// the per-shard view of the churn story (live connections, idle expiry,
// capacity eviction) that aggregate counters average away.
type ShardStat struct {
	Worker       int    `json:"worker"`
	Packets      uint64 `json:"packets"`
	CacheEntries int    `json:"cache_entries"`
	Microflow    int    `json:"microflow_entries"`
	CtLive       int    `json:"ct_live"`
	CtCreated    uint64 `json:"ct_created"`
	CtExpired    uint64 `json:"ct_expired"`
	CtEvicted    uint64 `json:"ct_evicted"`
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
