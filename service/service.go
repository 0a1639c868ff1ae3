// Package service wraps gigaflow.VSwitch in the runtime scaffolding a
// deployment needs: a pool of forwarding workers fed by RSS-sharded
// queues (OVS's PMD-thread architecture), rule updates with immediate
// revalidation (§4.3.1), periodic idle-entry expiry (§4.3.2), and graceful
// shutdown.
//
// The underlying pipeline and caches are deliberately single-threaded (as
// in the paper, where one CPU core runs the slowpath), so the service is
// shared-nothing: each worker owns a full replica of the pipeline and its
// own cache shard, and every flow is RSS-hashed to exactly one worker —
// the same spreading a NIC performs before delivering to per-core queues.
// Rule updates are deterministic functions applied to every replica on its
// own goroutine, so replicas never diverge and the fast path never takes a
// lock.
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
	// are released in arrival order per flow, so results and stats are
	// indistinguishable from inline processing.
	Workers int
	// Queue bounds the shared miss queue (default 1024). A fresh miss
	// that finds it full is handled per Overflow; packets of
	// already-pending flows never touch the queue.
	Queue int
	// Batch bounds how many queued misses an engine goroutine drains per
	// wakeup, batching traversals and rule installs (default
	// DefaultBatchSize).
	Batch int
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
	if c.Batch < 0 {
		return fmt.Errorf("service: negative Upcall.Batch (%d)", c.Batch)
	}
	switch c.Overflow {
	case OverflowInline, OverflowDrop:
	default:
		return fmt.Errorf("service: unknown Upcall.Overflow (%d)", c.Overflow)
	}
	if c.Workers == 0 &&
		(c.Queue != 0 || c.Batch != 0 || c.Overflow != OverflowInline) {
		return errors.New("service: upcall knobs set but Upcall.Workers is 0 (offload disabled)")
	}
	return nil
}

func (c UpcallConfig) withDefaults() UpcallConfig {
	if c.Workers > 0 {
		if c.Queue <= 0 {
			c.Queue = 1024
		}
		if c.Batch <= 0 {
			c.Batch = DefaultBatchSize
		}
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
	// to a power of two (default 4096).
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
// NAT pipelines scale past one worker through pool partitioning: New
// splits every NAT pool into disjoint per-shard sub-ranges (each pool
// therefore needs at least Workers targets), so a shard only ever binds
// connections to endpoints it owns, and replies — which arrive on the
// translated tuple, outside the forward direction's symmetric hash —
// are routed to the owning shard by an endpoint→shard map consulted
// before the hash. Pool endpoints must be disjoint from the client
// endpoint space for that routing to be unambiguous.
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
	// (/metrics, /traces, /cache, /debug/pprof, /debug/vars) on this
	// address for the service's lifetime (e.g. "127.0.0.1:9090"; use
	// port 0 to pick a free port, readable via Service.TelemetryAddr).
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
		return errors.New("service: Conntrack and the Upcall offload are mutually exclusive (the parked slowpath is stateless)")
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

// packet is one queued unit of work: a flow key to forward, a batch job
// (many keys crossing the channel as one message), a control function
// (rule update / revalidation / expiry) executed inline on the worker
// goroutine so its pipeline and cache are never touched concurrently, or
// a group of engine-completed upcalls to apply (async offload mode).
type packet struct {
	key     gigaflow.Key
	meta    uint8 // TCP flag byte for the conntrack state machine
	resp    chan<- Result
	job     *batchJob
	control func()
	comp    []*upcall.Miss[parked]
}

// worker owns one pipeline replica and one cache shard.
type worker struct {
	vs    *gigaflow.VSwitch
	rec   *telemetry.LatencyRecorder // nil when Config.Latency.Disable
	fm    *frameMetrics              // shared frame accounting (atomic counters)
	tally frameTally                 // this worker's share of one job's frames, flushed to fm per job
	in    chan packet
	label string // worker index, precomputed for metric labels

	// Scratch for ProcessBatch output, grown to the largest job seen so
	// the steady-state batch path allocates nothing.
	procOut  []gigaflow.ProcessResult
	procErr  []error
	procPark []bool

	drops atomic.Uint64 // nonblocking rejections due to a full queue
	skips atomic.Uint64 // expiry sweeps skipped due to a full queue

	// Asynchronous offload state (Config.Upcall.Workers > 0). pending and
	// the counters below belong to the worker goroutine; slowMu is the
	// one lock shared with the engine, taken only around pipeline
	// traversals and rule mutations — never on the cache-hit path.
	async    bool
	idx      int // worker index = upcall.Miss.Shard
	overflow OverflowPolicy
	slowMu   sync.Mutex
	pending  *upcall.Table[parked]
	upq      *upcall.Queue[parked]

	ovInline  uint64 // full-queue misses traversed inline
	ovDrop    uint64 // full-queue misses dropped (OverflowDrop)
	stale     uint64 // engine traversals discarded
	completed uint64 // flow completions applied
	released  uint64 // parked packets answered
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
	// natOwner routes NAT'd reply traffic: with conntrack enabled,
	// Workers > 1, and NAT pools defined, it maps every pool endpoint to
	// the shard whose partitioned sub-pool owns it. A reply arrives on
	// the translated tuple — outside the forward direction's symmetric
	// hash — but its source endpoint is the bound backend, which only
	// the owning shard can have picked, so the map finds the shard that
	// holds the connection. Nil otherwise (pure symmetric sharding).
	natOwner map[natEndpoint]int

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

// New builds a service around a pipeline. Each worker receives its own
// replica (cloned through the textual program format), so the original may
// be retained or discarded freely by the caller; post-start rule changes
// must go through UpdateRules.
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

	natParts, err := partitionNATPools(p, cfg)
	if err != nil {
		return nil, err
	}
	if natParts != nil {
		s.natOwner = make(map[natEndpoint]int)
		for _, parts := range natParts {
			for w, sub := range parts {
				for _, t := range sub {
					ep := natEndpoint{t.IP, t.Port}
					if prev, dup := s.natOwner[ep]; dup && prev != w {
						return nil, fmt.Errorf(
							"service: NAT endpoint %d:%d appears in differently-owned pool partitions (shards %d and %d)",
							t.IP, t.Port, prev, w)
					}
					s.natOwner[ep] = w
				}
			}
		}
	}

	var program strings.Builder
	if err := gigaflow.DumpPipeline(&program, p); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		replica, err := gigaflow.LoadPipelineString(program.String())
		if err != nil {
			return nil, err
		}
		replica.SetStart(p.Start)
		// Shard i's replica sees only its own sub-range of every NAT
		// pool, so its bindings stay inside the endpoints it owns.
		for id, parts := range natParts {
			replica.SetNATPool(id, parts[i])
		}
		opts := []gigaflow.VSwitchOption{gigaflow.WithTracer(s.tracer)}
		if cfg.Expiry.MaxIdle > 0 {
			opts = append(opts, gigaflow.WithMaxIdle(cfg.Expiry.MaxIdle.Nanoseconds()))
		}
		if cfg.Conntrack.Enable {
			opts = append(opts, gigaflow.WithConntrack(shareOf(cfg.Conntrack.MaxConns, cfg.Workers, i)))
			if cfg.Conntrack.MaxIdle > 0 {
				opts = append(opts, gigaflow.WithConntrackMaxIdle(cfg.Conntrack.MaxIdle.Nanoseconds()))
			}
		}
		perWorker := cfg.Cache
		perWorker.TableCapacity = shareOf(cfg.Cache.TableCapacity, cfg.Workers, i)
		if cfg.Backend == BackendMegaflow {
			opts = append(opts, gigaflow.WithMegaflowBackend(shareOf(cfg.MegaflowCapacity, cfg.Workers, i)))
			// NewVSwitch still wants a valid Gigaflow shape before the
			// option swaps the backend out.
			perWorker = gigaflow.CacheConfig{NumTables: 1, TableCapacity: 1}
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
			label: fmt.Sprintf("%d", i),
		}
		if cfg.Upcall.Workers > 0 {
			w.async = true
			w.idx = i
			w.overflow = cfg.Upcall.Overflow
			w.pending = upcall.NewTable[parked]()
			// The engine traverses this worker's pipeline replica from its
			// own goroutine; the worker's inline traversals (overflow
			// fallback, follower replays, rule updates) take the same lock.
			opts = append(opts, gigaflow.WithSlowpathLock(&w.slowMu))
		}
		w.vs = gigaflow.NewVSwitch(replica, perWorker, opts...)
		s.workers = append(s.workers, w)
	}
	if cfg.Upcall.Workers > 0 {
		s.upq = upcall.NewQueue[parked](cfg.Upcall.Queue)
		s.eng = upcall.NewEngine(s.upq, cfg.Upcall.Workers, cfg.Upcall.Batch, s.handleUpcalls)
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
		case pkt := <-w.in:
			w.run(pkt)
		}
	}
}

// run executes one queued message on the worker goroutine. The wall
// clock is read once per message and threaded through both the
// single-packet and batch paths, so the two age caches identically and
// the latency recorder anchors its flight timestamps on the same stamp
// that touched the cache entries.
func (w *worker) run(pkt packet) {
	switch {
	case pkt.control != nil:
		pkt.control()
	case pkt.comp != nil:
		now := time.Now().UnixNano()
		for _, m := range pkt.comp {
			w.complete(m, now)
		}
	case pkt.job != nil:
		w.runJob(pkt.job, time.Now().UnixNano())
	default:
		now := time.Now().UnixNano()
		if w.async {
			res, wasParked, err := w.vs.ProcessPark(pkt.key, now)
			if wasParked {
				if w.parkOne(pkt.key, parked{idx: -1, resp: pkt.resp}, now) {
					return // answered later, by complete or sweepParked
				}
				r := w.parkFallback(pkt.key, now)
				if pkt.resp != nil {
					pkt.resp <- r
				}
				return
			}
			if pkt.resp != nil {
				pkt.resp <- Result{Verdict: res.Verdict, Final: res.Final, CacheHit: res.CacheHit, Err: err}
			}
			return
		}
		res, err := w.vs.ProcessMeta(pkt.key, pkt.meta, now)
		if pkt.resp != nil {
			pkt.resp <- Result{Verdict: res.Verdict, Final: res.Final, CacheHit: res.CacheHit, Err: err}
		}
	}
}

// runJob processes one batch job: a single ProcessBatch call covers every
// key — one VSwitch stats flush and one counter flush per cache tier for
// the whole job — then results fan back to the submitter, who paid one
// channel message for all of them. now is the message's single wall-clock
// stamp, shared by every packet in the job.
func (w *worker) runJob(j *batchJob, now int64) {
	// Wire-path entries arrive as raw frame bytes: the submitter routed
	// them by the RSS hash alone, so the full decode runs here, on the
	// owning shard — in parallel across workers — before the batch scan.
	if j.wire != nil {
		for i := range j.frames {
			fr := j.frames[i]
			if fr.n == 0 {
				continue // key-routed entry, already decoded
			}
			k, info := wire.Decode(j.wire[fr.off:fr.off+fr.n], fr.inPort)
			w.tally.add(info, fr.n)
			j.keys[i] = k
			j.metas[i] = info.TCPFlags
		}
		// Once per job, and before its results go back: a submitter that
		// has its verdicts reads its frames in /metrics.
		w.fm.flush(&w.tally)
	}
	n := len(j.keys)
	if cap(w.procOut) < n {
		w.procOut = make([]gigaflow.ProcessResult, n)
		w.procErr = make([]error, n)
		w.procPark = make([]bool, n)
	}
	out := w.procOut[:n]
	errs := w.procErr[:n]
	if !w.async {
		w.vs.ProcessBatchMeta(j.keys, j.metas, out, errs, now)
		for i := 0; i < n; i++ {
			j.res[i] = Result{Verdict: out[i].Verdict, Final: out[i].Final, CacheHit: out[i].CacheHit, Err: errs[i]}
			if j.resp != nil {
				j.resp <- j.res[i]
			}
		}
		if j.done != nil {
			j.done <- j
		}
		return
	}
	// Async offload: hits resolve in the batch scan; misses park behind
	// their flows and answer later via complete. j.pending starts at 1 for
	// the scan itself so a completion racing in mid-scan (impossible
	// today — completions arrive on this same goroutine — but cheap to
	// make structural) can never fire done early; the scan's own unit is
	// released at the end, signalling done if nothing parked.
	parks := w.procPark[:n]
	w.vs.ProcessBatchPark(j.keys, out, errs, parks, now)
	j.pending = 1
	for i := 0; i < n; i++ {
		if parks[i] {
			if w.parkOne(j.keys[i], parked{job: j, idx: i}, now) {
				j.pending++
				continue
			}
			j.res[i] = w.parkFallback(j.keys[i], now)
		} else {
			j.res[i] = Result{Verdict: out[i].Verdict, Final: out[i].Final, CacheHit: out[i].CacheHit, Err: errs[i]}
		}
		if j.resp != nil {
			j.resp <- j.res[i]
		}
	}
	j.pending--
	if j.pending == 0 && j.done != nil {
		j.done <- j
	}
}

// drain completes work still queued at shutdown so blocking submitters
// are never stranded: control ops run normally (they only touch
// worker-owned state and buffered channels), upcall completions already
// delivered by the engine are applied normally (their submitters get
// real results), while packets and jobs fail with ErrClosed. The loop
// stops as soon as the queue is momentarily empty — late nonblocking
// submissions after that point are dropped with the queue, exactly like
// packets lost in a NIC ring at teardown — and then the pending-flow
// table is swept so parked packets whose completions never arrived fail
// with ErrClosed too.
func (w *worker) drain() {
	for {
		select {
		case pkt := <-w.in:
			switch {
			case pkt.control != nil:
				pkt.control()
			case pkt.comp != nil:
				now := time.Now().UnixNano()
				for _, m := range pkt.comp {
					w.complete(m, now)
				}
			case pkt.job != nil:
				for i := range pkt.job.res {
					pkt.job.res[i] = Result{Err: ErrClosed}
				}
				if pkt.job.done != nil {
					pkt.job.done <- pkt.job
				}
			default:
				if pkt.resp != nil {
					select {
					case pkt.resp <- Result{Err: ErrClosed}:
					default:
					}
				}
			}
		default:
			w.sweepParked()
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
			for _, w := range s.workers {
				w := w
				// A full queue skips this sweep; the next tick retries.
				select {
				case w.in <- packet{control: func() { w.vs.ExpireIdle(now) }}:
				default:
					w.skips.Add(1)
				}
			}
		}
	}
}

// UpdateRules applies a deterministic mutation to every worker's pipeline
// replica (on the worker's own goroutine) and revalidates its cache
// immediately. The function is called once per replica and must perform
// the same logical change each time; an error from any replica is
// returned (replicas that already applied it keep the change and a
// consistent revalidated cache).
func (s *Service) UpdateRules(ctx context.Context, fn func(p *gigaflow.Pipeline) error) error {
	errs := make(chan error, len(s.workers))
	for _, w := range s.workers {
		w := w
		op := packet{control: func() {
			// Rule mutation and revalidation race the upcall engine's
			// traversals of this replica; slowMu excludes them. (Held
			// uncontended in synchronous mode.) The error send stays
			// outside the critical section.
			w.slowMu.Lock()
			err := fn(w.vs.Pipeline())
			if err == nil {
				w.vs.Revalidate()
			}
			w.slowMu.Unlock()
			errs <- err
		}}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case w.in <- op:
		}
	}
	var first error
	for range s.workers {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-errs:
			if err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Stats aggregates all workers' counters. It runs on the workers' own
// goroutines for a coherent snapshot.
func (s *Service) Stats(ctx context.Context) (gigaflow.VSwitchStats, error) {
	var mu sync.Mutex
	var out gigaflow.VSwitchStats
	done := make(chan struct{}, len(s.workers))
	for _, w := range s.workers {
		w := w
		op := packet{control: func() {
			st := w.vs.Stats()
			mu.Lock()
			out.Packets += st.Packets
			out.MicroflowHits += st.MicroflowHits
			out.CacheHits += st.CacheHits
			out.CacheMisses += st.CacheMisses
			out.Slowpath += st.Slowpath
			out.Installs += st.Installs
			out.InstallErrs += st.InstallErrs
			out.CtFastpath += st.CtFastpath
			out.CtGuardFails += st.CtGuardFails
			out.CtInvalidated += st.CtInvalidated
			mu.Unlock()
			done <- struct{}{}
		}}
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case w.in <- op:
		}
	}
	for range s.workers {
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case <-done:
		}
	}
	return out, nil
}

// CacheEntries sums cache entries across worker shards, snapshotted on
// the workers' own goroutines.
func (s *Service) CacheEntries() int {
	var mu sync.Mutex
	total := 0
	done := make(chan struct{}, len(s.workers))
	for _, w := range s.workers {
		w := w
		w.in <- packet{control: func() {
			mu.Lock()
			total += w.vs.CacheEntries()
			mu.Unlock()
			done <- struct{}{}
		}}
	}
	for range s.workers {
		<-done
	}
	mu.Lock()
	defer mu.Unlock()
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

// partitionNATPools splits every NAT pool of p into Workers disjoint
// contiguous sub-ranges — worker w gets len/W targets plus one unit of
// the remainder for the first len%W workers, so the sub-ranges cover the
// pool exactly. A shard holding only its own sub-range can never bind a
// connection to an endpoint another shard owns, which is what makes the
// natOwner reply-routing map well defined. Returns nil (no partitioning,
// no owner map) when conntrack is off, no pools exist, or Workers is 1 —
// the single worker keeps the full pool with zero routing overhead.
func partitionNATPools(p *gigaflow.Pipeline, cfg Config) (map[uint16][][]gigaflow.NATTarget, error) {
	ids := p.NATPoolIDs()
	if !cfg.Conntrack.Enable || len(ids) == 0 || cfg.Workers == 1 {
		return nil, nil
	}
	parts := make(map[uint16][][]gigaflow.NATTarget, len(ids))
	for _, id := range ids {
		pool := p.NATPool(id)
		if len(pool) < cfg.Workers {
			return nil, fmt.Errorf(
				"service: NAT pool %d has %d targets but Workers is %d — per-shard partitioning needs at least one target per worker",
				id, len(pool), cfg.Workers)
		}
		sub := make([][]gigaflow.NATTarget, cfg.Workers)
		off := 0
		for w := 0; w < cfg.Workers; w++ {
			n := len(pool) / cfg.Workers
			if w < len(pool)%cfg.Workers {
				n++
			}
			sub[w] = pool[off : off+n]
			off += n
		}
		parts[id] = sub
	}
	return parts, nil
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
	if s.natOwner != nil {
		if w, ok := s.natOwner[natEndpoint{k.Get(gigaflow.FieldIPSrc), k.Get(gigaflow.FieldTpSrc)}]; ok {
			return w
		}
		if w, ok := s.natOwner[natEndpoint{k.Get(gigaflow.FieldIPDst), k.Get(gigaflow.FieldTpDst)}]; ok {
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
func (s *Service) shardOfTuple(t wire.Tuple) int {
	if s.natOwner != nil {
		if w, ok := s.natOwner[natEndpoint{t.SrcIP, t.SrcPort}]; ok {
			return w
		}
		if w, ok := s.natOwner[natEndpoint{t.DstIP, t.DstPort}]; ok {
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

// ShardStats snapshots every worker shard on its own goroutine (the same
// control-op discipline as Stats, so the counters are coherent per
// shard). The slice is indexed by worker.
func (s *Service) ShardStats(ctx context.Context) ([]ShardStat, error) {
	out := make([]ShardStat, len(s.workers))
	done := make(chan struct{}, len(s.workers))
	for i, w := range s.workers {
		i, w := i, w
		op := packet{control: func() {
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
			done <- struct{}{}
		}}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case w.in <- op:
		}
	}
	for range s.workers {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-done:
		}
	}
	return out, nil
}
